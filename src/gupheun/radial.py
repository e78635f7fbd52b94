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

A profile is one heun_continue_arrays call with one energy, repeated once
per grid point, and every grid point as a target: points inside its seed
radius come from the series, the others from one chain of continuation
panels; y = 0 (xi = 0) is the normalization Hc = 1, and a point that fails
to evaluate raises HeunEvaluationError.  The default grid stops at
1.2 * xi* because only r up to ~sqrt(-alpha/E) is physically meaningful for
this boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import heun
from .heun import (
    CouplingConfig,
    EnergyPoint,
    HeunEvaluationError,
    heun_coefficients,
    heun_continue_arrays,
)

DEFAULT_GRID_POINTS = 400
DEFAULT_GRID_START = 1e-3
DEFAULT_GRID_STRETCH = 1.2  # grid extends to 1.2 * xi*
_PROFILE_TOL = 1e-10


def map_xi_to_y(xi, cfg: CouplingConfig, ep: EnergyPoint):
    """Heun argument y = -(1-Omega)*5*xi^2/(8*kappa) for xi >= 0 (scalar or array)."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be non-negative")
    y = -(1.0 - 2.0 * ep.omega) * 5.0 * xi**2 / (8.0 * cfg.kappa)
    return float(y) if y.ndim == 0 else y


def xi_star(cfg: CouplingConfig, ep: EnergyPoint) -> float:
    """Radius sqrt(4*kappa/(5*omega)) where y(xi) hits the spectral point."""
    return math.sqrt(4.0 * cfg.kappa / (5.0 * ep.omega))


@dataclass(frozen=True)
class RadialProfile:
    """Sampled R(xi) together with the radius xi* of its spectral point."""

    xi: np.ndarray
    values: np.ndarray
    xi_star: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")

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
    """Log-spaced grid over [1e-3, 1.2*xi*], resolving power law and spectral zero.

    Raises ValueError when 1.2*xi* does not exceed the 1e-3 start (a tiny
    kappa at a large omega), where the grid would run backwards, or is not
    finite (an omega near the smallest floats).
    """
    if n < 2:
        raise ValueError("need at least two grid points")
    stop = DEFAULT_GRID_STRETCH * xi_star(cfg, ep)
    if not math.isfinite(stop):
        raise ValueError(f"1.2*xi* at omega = {ep.omega:g} is not finite")
    if stop <= DEFAULT_GRID_START:
        raise ValueError(f"1.2*xi* = {stop:.3g} does not exceed the grid start "
                         f"{DEFAULT_GRID_START:g}")
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
    targets = y[off_origin]
    B, q0, q1 = heun_coefficients(cfg.kappa, cfg.ell, np.full(targets.size, ep.omega))
    g, _ = heun_continue_arrays(B, q0, q1, targets, tol=_PROFILE_TOL)
    failed = targets[np.isnan(g)]
    if failed.size:
        raise HeunEvaluationError(
            f"continuation to y = {failed[0]} failed ({failed.size} of {targets.size} targets): "
            f"the target lies beyond {heun._MAX_PANELS} panels, or a continuation panel "
            f"overflows or stays unresolved"
        )
    hc[off_origin] = g

    with np.errstate(over="ignore", invalid="ignore"):  # RadialProfile refuses the non-finite
        values = xi**cfg.ell * (1.0 - y) * hc
    return RadialProfile(xi=xi, values=values, xi_star=xi_star(cfg, ep))
