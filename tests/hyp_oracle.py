"""Reference for the shallow-energy reduction: 2F1 at large negative argument and its zeros.

The package gets its levels from the exact condition Hc(y*) = 0 and the
closed-form tower; these are the consistency checks between the two
(acceptance criteria 5 and 6), and the d = 0 degeneration of the Heun
function:

* F(alpha, gamma; delta; z) for real z <= -2 only, by the two-term 1/z
  connection formula, each term a Gauss series in 1/z: the shallow-energy
  quantization condition reads F at z = -1/Omega <= -10, and no other
  regime of 2F1 is used;
* (alpha', gamma', delta') of the regular branch in that limit;
* the zeros of F(alpha', gamma'; delta'; -1/Omega) in omega, bracketed on the
  package's log grid and refined by scipy's brentq to ROOT_TOL.

The connection formula is the one caller of log Gamma that can meet a pole:
each of its log Gamma calls goes through log_gamma below, which refuses a
non-finite argument, a pole and a non-finite value.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.optimize import brentq

from gupheun.heun import CouplingConfig
from gupheun import specfun
from gupheun.specfun import WeakCouplingError, compute_phase
from gupheun.spectral import DEFAULT_VALIDITY, _find_brackets, _scan_grid

SERIES_TOL = 1e-14
SERIES_MAX_TERMS = 10_000
ROOT_TOL = 1e-9  # absolute, in omega
_POLE_TOL = 1e-12


class GammaPoleError(ValueError):
    """Argument is (within machine tolerance of) a pole of Gamma."""


class NonConvergenceError(RuntimeError):
    """A series or an iteration did not converge to a finite value."""


def _require_finite(z: complex, where: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonConvergenceError(f"non-finite value escaped {where}")
    return z


def log_gamma(z: complex) -> complex:
    """gupheun.specfun.log_gamma behind its domain checks.

    A non-finite argument raises ValueError, one within _POLE_TOL of a
    non-positive integer GammaPoleError, and a non-finite value
    NonConvergenceError.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"argument must be finite, got {z}")
    n = round(z.real)
    if n <= 0 and abs(z - n) < _POLE_TOL:
        raise GammaPoleError(f"log_gamma pole at z = {z}")
    return _require_finite(specfun.log_gamma(z), "log_gamma")


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


def hyp2f1_large_negative(alpha: complex, gamma_: complex, delta: complex,
                          z: float) -> complex:
    """F(alpha, gamma; delta; z) for real z <= -2 via the 1/z connection formula.

        F = G(d)G(g-a)/(G(g)G(d-a)) (-z)^(-a) F(a, 1-d+a; 1-g+a; 1/z)
          + G(d)G(a-g)/(G(a)G(d-g)) (-z)^(-g) F(g, 1-d+g; 1-a+g; 1/z)

    with (-z)^(-a) = exp(-a ln(-z)) and ln(-z) real, so a conjugate pair
    (alpha, gamma) and real delta give a real result.  A non-positive integer
    delta, or an integer gamma-alpha (the logarithmic connection case, where
    Gamma(gamma-alpha) or Gamma(alpha-gamma) is singular), meets a pole of
    log_gamma and raises GammaPoleError; for the physical parameters the
    difference is i*nu with nu > 0, which never degenerates.
    """
    alpha, gamma_, delta = complex(alpha), complex(gamma_), complex(delta)
    z = float(z)
    if z > -2.0:
        raise ValueError(f"connection formula requires z <= -2, got {z}")
    log_neg_z = math.log(-z)
    inv_z = 1.0 / z
    coeff_a = cmath.exp(log_gamma(delta) + log_gamma(gamma_ - alpha)
                        - log_gamma(gamma_) - log_gamma(delta - alpha))
    coeff_g = cmath.exp(log_gamma(delta) + log_gamma(alpha - gamma_)
                        - log_gamma(alpha) - log_gamma(delta - gamma_))
    term_a = (coeff_a * cmath.exp(-alpha * log_neg_z)
              * _gauss_series(alpha, 1.0 - delta + alpha, 1.0 - gamma_ + alpha, inv_z,
                              SERIES_TOL))
    term_g = (coeff_g * cmath.exp(-gamma_ * log_neg_z)
              * _gauss_series(gamma_, 1.0 - delta + gamma_, 1.0 - alpha + gamma_, inv_z,
                              SERIES_TOL))
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


def hypergeometric_condition_roots(cfg: CouplingConfig,
                                   omega_range: tuple[float, float] = (1e-6, DEFAULT_VALIDITY),
                                   n_points: int = 400) -> tuple[float, ...]:
    """Zeros of F(alpha', gamma'; delta'; -1/Omega), decreasing: the intermediate spectrum.

    The condition only makes sense in the shallow window omega < 0.05 where
    the reduction applies; weak coupling returns no roots.  Roots are
    refined to ROOT_TOL.
    """
    lo, hi = omega_range
    if not (0.0 < lo < hi <= DEFAULT_VALIDITY):
        raise ValueError("omega_range must satisfy 0 < lo < hi <= 0.05")
    omegas = _scan_grid(lo, hi, n_points)
    try:
        alpha_p, gamma_p, delta_p = reduced_hypergeometric_parameters(cfg)
    except WeakCouplingError:
        return ()

    def f(w: float) -> float:
        # conjugate parameter pair: the imaginary part is roundoff
        return hyp2f1_large_negative(alpha_p, gamma_p, delta_p, -0.5 / w).real

    brackets = _find_brackets(np.array([f(w) for w in omegas]))
    return tuple(sorted((brentq(f, omegas[i], omegas[j], xtol=ROOT_TOL) for i, j in brackets),
                        reverse=True))
