"""Complex log-gamma and Gauss hypergeometric 2F1 on the principal branch.

Everything the quantization condition needs from classical analysis lives
here:

* log Gamma for complex arguments, via the Lanczos rational approximation
  (g = 7, the standard 15-digit coefficient set) valid for Re z >= 1/2,
  extended left by the exact principal-branch recurrence
  log Gamma(z) = log Gamma(z+1) - log z;
* the Gauss series for F(alpha, gamma; delta; z) inside |z| < 0.9;
* the Pfaff map z -> z/(z-1) for real z in (-2, -0.9];
* the two-term 1/z connection formula for real z <= -2, which is the form
  the low-energy quantization condition is read off from;
* the phase data (nu, |B|, arg B) of the gamma-function combination

      B = Gamma(i nu) / ( Gamma(1/4 + ell/2 + i nu/2) Gamma(5/4 + ell/2 + i nu/2) )

  that anchors the geometric tower of bound states, with
  nu = sqrt(4 kappa - (ell + 1/2)^2) real only in the strong-coupling regime.

All operations are pure functions; no public operation lets a NaN or Inf
escape: bad inputs and pole hits raise instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .heun import CouplingConfig

SERIES_TOL = 1e-14
SERIES_MAX_TERMS = 10_000
_POLE_TOL = 1e-12

# Lanczos g = 7, 9 coefficients (Godfrey's set, ~15 significant digits)
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class GammaPoleError(ValueError):
    """Argument is (within machine tolerance of) a pole of Gamma."""


class WeakCouplingError(ValueError):
    """4*kappa <= (ell + 1/2)^2: nu is not real positive, no bound-state tower."""


class NonConvergenceError(RuntimeError):
    """Neither the series nor a transformation regime applies."""


def _require_finite(z: complex, where: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonConvergenceError(f"non-finite value escaped {where}")
    return z


def _is_nonpositive_integer(z: complex) -> bool:
    n = round(z.real)
    return n <= 0 and abs(z - n) < _POLE_TOL


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    Satisfies log_gamma(z+1) = log_gamma(z) + log(z) exactly on the cut plane
    (the shift used internally IS that identity), and agrees with the real
    log Gamma on the positive axis.  Arguments at a non-positive integer raise
    GammaPoleError.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"argument must be finite, got {z}")
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"log_gamma pole at z = {z}")

    # shift right of Re z = 1/2 where the rational approximation holds
    shift = 0j
    w = z
    while w.real < 0.5:
        shift += cmath.log(w)
        w += 1.0

    acc = _LANCZOS_COEFFS[0]
    for k, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (w - 1.0 + k)
    t = w + _LANCZOS_G - 0.5
    result = _HALF_LOG_TWO_PI + (w - 0.5) * cmath.log(t) - t + cmath.log(acc) - shift
    return _require_finite(result, "log_gamma")


@dataclass(frozen=True)
class PhaseData:
    """Oscillation index nu and modulus/phase of the coefficient B."""

    nu: float
    b_modulus: float
    b_arg: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be finite and positive")
        if not (math.isfinite(self.b_modulus) and self.b_modulus > 0):
            raise ValueError("b_modulus must be finite and positive")
        if not -math.pi < self.b_arg <= math.pi:
            raise ValueError("b_arg must lie in (-pi, pi]")

    @property
    def b_value(self) -> complex:
        return self.b_modulus * cmath.exp(1j * self.b_arg)


def compute_phase(cfg: CouplingConfig) -> PhaseData:
    """nu, |B| and arg(B) for a strong-coupling configuration.

    Raises WeakCouplingError when 4*kappa <= (ell + 1/2)^2, where the
    inverse-square tower collapses and no bound state exists.
    """
    half_shift = cfg.ell + 0.5
    disc = 4.0 * cfg.kappa - half_shift * half_shift
    if disc <= 0.0:
        raise WeakCouplingError(
            f"4*kappa = {4.0 * cfg.kappa} does not exceed (ell+1/2)^2 = "
            f"{half_shift * half_shift}; no bound states"
        )
    nu = math.sqrt(disc)
    log_b = (log_gamma(1j * nu)
             - log_gamma(0.25 + 0.5 * cfg.ell + 0.5j * nu)
             - log_gamma(1.25 + 0.5 * cfg.ell + 0.5j * nu))
    b = cmath.exp(log_b)
    return PhaseData(nu=nu, b_modulus=abs(b), b_arg=cmath.phase(b))


def _gauss_series(alpha: complex, gamma_: complex, delta: complex, z: complex,
                  tol: float) -> complex:
    """sum of the defining series; caller guarantees |z| is inside the disk."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    consecutive_small = 0
    n = 0
    while consecutive_small < 3:
        if n >= SERIES_MAX_TERMS:
            raise NonConvergenceError(
                f"2F1 series did not converge at z = {z} within {SERIES_MAX_TERMS} terms"
            )
        term *= (alpha + n) * (gamma_ + n) / ((delta + n) * (n + 1.0)) * z
        total += term
        if abs(term) < tol * max(abs(total), 1e-300):
            consecutive_small += 1
        else:
            consecutive_small = 0
        n += 1
    return total


def hyp2f1(alpha: complex, gamma_: complex, delta: complex, z: complex,
           tol: float = SERIES_TOL) -> complex:
    """Gauss hypergeometric F(alpha, gamma; delta; z) on the principal branch.

    Dispatch: defining series for |z| < 0.9; for real z the Pfaff
    transformation covers (-2, -0.9] and the 1/z connection formula covers
    z <= -2.  Anything else (z near 1, complex z outside the disk) raises
    NonConvergenceError.
    """
    alpha, gamma_, delta, z = complex(alpha), complex(gamma_), complex(delta), complex(z)
    if _is_nonpositive_integer(delta):
        raise GammaPoleError(f"delta = {delta} is a non-positive integer")
    if abs(z) < 0.9:
        return _require_finite(_gauss_series(alpha, gamma_, delta, z, tol), "hyp2f1")
    if z.imag == 0.0 and z.real <= -2.0:
        try:
            return hyp2f1_large_negative(alpha, gamma_, delta, z.real, tol)
        except GammaPoleError:
            # degenerate (integer gamma-alpha) connection case: the Pfaff map
            # still converges for moderately negative arguments
            if abs(z / (z - 1.0)) >= 0.9:
                raise
    if z.imag == 0.0 and z.real <= -0.9:
        # Pfaff: F(a,g;d;z) = (1-z)^(-a) F(a, d-g; d; z/(z-1)); the mapped
        # argument stays below 0.9 for z > -9
        w = z / (z - 1.0)
        value = (1.0 - z) ** (-alpha) * _gauss_series(alpha, delta - gamma_, delta, w, tol)
        return _require_finite(value, "hyp2f1")
    raise NonConvergenceError(
        f"no series or transformation regime applies at z = {z}"
    )


def hyp2f1_large_negative(alpha: complex, gamma_: complex, delta: complex,
                          z: float, tol: float = SERIES_TOL) -> complex:
    """F(alpha, gamma; delta; z) for real z <= -2 via the 1/z connection formula.

        F = G(d)G(g-a)/(G(g)G(d-a)) (-z)^(-a) F(a, 1-d+a; 1-g+a; 1/z)
          + G(d)G(a-g)/(G(a)G(d-g)) (-z)^(-g) F(g, 1-d+g; 1-a+g; 1/z)

    with (-z)^(-a) = exp(-a ln(-z)) and ln(-z) real, so a conjugate pair
    (alpha, gamma) and real delta give a real result.  An integer gamma-alpha
    makes both Gamma(gamma-alpha) factors singular (logarithmic connection
    case) and raises GammaPoleError; for the physical parameters the
    difference is i*nu with nu > 0, which never degenerates.
    """
    alpha, gamma_, delta = complex(alpha), complex(gamma_), complex(delta)
    z = float(z)
    if z > -2.0:
        raise ValueError(f"connection formula requires z <= -2, got {z}")
    if _is_nonpositive_integer(delta):
        raise GammaPoleError(f"delta = {delta} is a non-positive integer")
    diff = gamma_ - alpha
    if abs(diff - round(diff.real)) < _POLE_TOL:
        raise GammaPoleError(
            f"gamma - alpha = {diff} is an integer; connection formula degenerates"
        )
    log_neg_z = math.log(-z)
    inv_z = 1.0 / z
    coeff_a = cmath.exp(log_gamma(delta) + log_gamma(gamma_ - alpha)
                        - log_gamma(gamma_) - log_gamma(delta - alpha))
    coeff_g = cmath.exp(log_gamma(delta) + log_gamma(alpha - gamma_)
                        - log_gamma(alpha) - log_gamma(delta - gamma_))
    term_a = (coeff_a * cmath.exp(-alpha * log_neg_z)
              * _gauss_series(alpha, 1.0 - delta + alpha, 1.0 - gamma_ + alpha, inv_z, tol))
    term_g = (coeff_g * cmath.exp(-gamma_ * log_neg_z)
              * _gauss_series(gamma_, 1.0 - delta + gamma_, 1.0 - alpha + gamma_, inv_z, tol))
    return _require_finite(term_a + term_g, "hyp2f1_large_negative")


def reduced_hypergeometric_parameters(cfg: CouplingConfig) -> tuple[complex, complex, float]:
    """(alpha', gamma', delta') of the regular branch in the shallow-energy limit.

    alpha' = 1/4 + ell/2 - i nu/2, gamma' = conj(alpha'), delta' = 3/2 + ell.
    Strong coupling required (nu real).
    """
    phase = compute_phase(cfg)
    alpha_p = 0.25 + 0.5 * cfg.ell - 0.5j * phase.nu
    gamma_p = 0.25 + 0.5 * cfg.ell + 0.5j * phase.nu
    delta_p = 1.5 + cfg.ell
    return alpha_p, gamma_p, delta_p
