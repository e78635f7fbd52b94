"""Radial wavefunction in minimal-length units and its asymptotic behavior.

Lengths are measured in units of the minimal length, xi = r / (hbar sqrt(5 beta)).
The Heun argument then reads

    y(xi) = -(1 - Omega) * 5 * xi^2 / (8 * kappa),

and the physical radial solution (normalization fixed to 1, overall sign
chosen so R(0+) > 0) is

    R(xi) = xi^ell * (1 - y) * Hc(a, -b, c, d, e; y(xi)).

The spectral evaluation point y* = (Omega-1)/Omega corresponds to
xi* = sqrt(4 kappa / (5 omega)); eigenvalues are exactly the energies at
which R(xi*) vanishes.  Near the origin the admissible branch always behaves
like xi^ell, for every coupling strength: the minimal length removes the
strong-coupling pathology of the undeformed problem.  In the far field the
envelope decays like exp(-rate * xi) with rate = sqrt(5 omega / (1 - 2 omega)).

A profile is one call of the Heun evaluator for one energy and all grid
points (heun_continue_path): points inside its seed radius come from the
series, the others from one continuation solve; y = 0 (xi = 0) is the
normalization Hc = 1.  The default grid stops at 1.2 * xi* because only r up
to ~sqrt(-alpha/E) is physically meaningful for this boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heun import CouplingConfig, EnergyPoint, heun_continue_path, heun_params

DEFAULT_GRID_POINTS = 400
DEFAULT_GRID_START = 1e-3
DEFAULT_GRID_STRETCH = 1.2  # grid extends to 1.2 * xi*
_PROFILE_TOL = 1e-10


def map_xi_to_y(xi, cfg: CouplingConfig, ep: EnergyPoint):
    """Heun argument y = -(1-Omega)*5*xi^2/(8*kappa) for xi >= 0 (scalar or array)."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be non-negative")
    y = -(1.0 - ep.big_omega) * 5.0 * xi**2 / (8.0 * cfg.kappa)
    return float(y) if y.ndim == 0 else y


def xi_star(cfg: CouplingConfig, ep: EnergyPoint) -> float:
    """Radius sqrt(4*kappa/(5*omega)) where y(xi) hits the spectral point."""
    return math.sqrt(4.0 * cfg.kappa / (5.0 * ep.omega))


@dataclass(frozen=True)
class AsymptoticExponents:
    """Local exponents at the origin and the far-field decay rate in xi units."""

    s_minus: float
    s_plus: float
    farfield_rate: float

    def __post_init__(self):
        if self.s_plus - self.s_minus != 2.0 * self.s_plus + 1.0:
            raise ValueError("exponents must satisfy s_plus - s_minus = 2*ell + 1")
        if not (math.isfinite(self.farfield_rate) and self.farfield_rate > 0):
            raise ValueError("farfield_rate must be finite and positive")


def asymptotic_exponents(cfg: CouplingConfig, ep: EnergyPoint) -> AsymptoticExponents:
    """Indicial exponents (-1-ell, ell) and decay rate sqrt(5w/(1-2w))."""
    return AsymptoticExponents(
        s_minus=-1.0 - cfg.ell,
        s_plus=float(cfg.ell),
        farfield_rate=math.sqrt(5.0 * ep.omega / (1.0 - 2.0 * ep.omega)),
    )


@dataclass(frozen=True)
class RadialProfile:
    """Sampled R(xi) together with the defining (omega, kappa, ell)."""

    xi: np.ndarray
    values: np.ndarray
    omega: float
    kappa: float
    ell: int

    def __post_init__(self):
        if len(self.xi) != len(self.values):
            raise ValueError("xi and values must have equal length")
        if np.any(np.diff(self.xi) <= 0):
            raise ValueError("xi must be strictly increasing")
        if np.any(self.xi < 0):
            raise ValueError("xi must be non-negative")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")

    @property
    def xi_star(self) -> float:
        return math.sqrt(4.0 * self.kappa / (5.0 * self.omega))

    @property
    def non_decaying(self) -> bool:
        """True when |R| near xi* fails to drop below its mid-range level.

        The physical range ends at xi*; the flag compares max|R| on the last
        decile [0.9, 1.0]*xi* against max|R| on the mid window
        [0.45, 0.55]*xi*.  Eigenvalues decay by an order of magnitude or more
        into the tail, non-eigenvalues do not.  Requires the grid to reach xi*.
        """
        xs = self.xi_star
        if self.xi[-1] < xs:
            raise ValueError("grid does not reach xi*; flag undefined")
        absval = np.abs(self.values)
        tail = absval[(self.xi >= 0.9 * xs) & (self.xi <= xs)]
        mid = absval[(self.xi >= 0.45 * xs) & (self.xi <= 0.55 * xs)]
        if tail.size == 0 or mid.size == 0:
            raise ValueError("grid too coarse around xi* for the decay flag")
        return bool(tail.max() > mid.max())


def default_xi_grid(cfg: CouplingConfig, ep: EnergyPoint,
                    n: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Log-spaced grid over [1e-3, 1.2*xi*], resolving power law and spectral zero."""
    if n < 2:
        raise ValueError("need at least two grid points")
    stop = DEFAULT_GRID_STRETCH * xi_star(cfg, ep)
    return np.exp(np.linspace(math.log(DEFAULT_GRID_START), math.log(stop), n))


def wavefunction(cfg: CouplingConfig, ep: EnergyPoint, xi_grid) -> RadialProfile:
    """Sample R(xi) = xi^ell * (1-y) * Hc(y(xi)) on a sorted non-negative grid."""
    xi = np.asarray(xi_grid, dtype=float)
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError("xi_grid must be a non-empty 1-d array")
    if np.any(np.diff(xi) <= 0) or np.any(xi < 0):
        raise ValueError("xi_grid must be sorted strictly increasing and non-negative")

    y = map_xi_to_y(xi, cfg, ep)
    hc = np.ones_like(y)
    off_origin = y != 0.0
    hc[off_origin] = heun_continue_path(heun_params(cfg, ep), y[off_origin], tol=_PROFILE_TOL)

    values = xi**cfg.ell * (1.0 - y) * hc
    return RadialProfile(xi=xi, values=values, omega=ep.omega,
                         kappa=cfg.kappa, ell=cfg.ell)
