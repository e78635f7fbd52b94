"""Complex log-gamma and the phase data of the closed-form tower.

Everything the closed form needs from classical analysis lives here:

* log Gamma for complex arguments, via the Lanczos rational approximation
  (g = 7, the standard 15-digit coefficient set) valid for Re z >= 1/2,
  extended left by the exact principal-branch recurrence
  log Gamma(z) = log Gamma(z+1) - log z;
* the phase data (nu, arg B) of the gamma-function combination

      B = Gamma(i nu) / ( Gamma(1/4 + ell/2 + i nu/2) Gamma(5/4 + ell/2 + i nu/2) )

  that anchors the geometric tower of bound states, with
  nu = sqrt(4 kappa - (ell + 1/2)^2) real only in the strong-coupling regime.

log_gamma takes a finite z off the poles 0, -1, -2, ...; the tower calls it
only at i nu, 1/4 + ell/2 + i nu/2 and 5/4 + ell/2 + i nu/2 with nu > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .heun import CouplingConfig

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


class WeakCouplingError(ValueError):
    """4*kappa <= (ell + 1/2)^2: nu is not real positive, no bound-state tower."""


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    Satisfies log_gamma(z+1) = log_gamma(z) + log(z) exactly on the cut plane
    (the shift used internally IS that identity), and agrees with the real
    log Gamma on the positive axis.  z must be finite and off the poles.
    """
    # shift right of Re z = 1/2 where the rational approximation holds
    shift = 0j
    w = complex(z)
    while w.real < 0.5:
        shift += cmath.log(w)
        w += 1.0

    acc = _LANCZOS_COEFFS[0]
    for k, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (w - 1.0 + k)
    t = w + _LANCZOS_G - 0.5
    return _HALF_LOG_TWO_PI + (w - 0.5) * cmath.log(t) - t + cmath.log(acc) - shift


@dataclass(frozen=True)
class PhaseData:
    """Oscillation index nu and phase arg B of the coefficient B."""

    nu: float
    b_arg: float
    winding: int  # Im log B, continuous in nu, is arg B + 2 pi winding

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError("nu must be finite and positive")
        if not -math.pi < self.b_arg <= math.pi:
            raise ValueError("b_arg must lie in (-pi, pi]")


def compute_phase(cfg: CouplingConfig) -> PhaseData:
    """nu and arg(B) for a strong-coupling configuration.

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
    b_arg = cmath.phase(cmath.exp(log_b))
    return PhaseData(nu=nu, b_arg=b_arg, winding=round((log_b.imag - b_arg) / (2.0 * math.pi)))
