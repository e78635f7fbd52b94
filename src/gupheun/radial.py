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
per target: the grid points, then the 32 radii of the decay flag
(RadialProfile).  Points inside its seed radius come from the series, the
others from one chain of continuation panels; y = 0 (xi = 0) is the
normalization Hc = 1, and a point that fails to evaluate raises
HeunEvaluationError.  The default grid stops at 1.2 * xi* because only r up
to ~sqrt(-alpha/E) is physically meaningful for this boundary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import heun
from .heun import CouplingConfig, HeunEvaluationError, heun_coefficients, heun_continue_arrays

DEFAULT_GRID_POINTS = 400
DEFAULT_GRID_START = 1e-3
DEFAULT_GRID_STRETCH = 1.2  # grid extends to 1.2 * xi*
_PROFILE_TOL = 1e-10


def map_xi_to_y(xi, cfg: CouplingConfig, omega: float):
    """Heun argument y = -(1-Omega)*5*xi^2/(8*kappa) for xi >= 0 (scalar or array)."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be non-negative")
    with np.errstate(over="ignore"):  # -inf below omega ~ 3e-309, which the kernel refuses
        y = -(1.0 - 2.0 * omega) * 5.0 * xi**2 / (8.0 * cfg.kappa)
    return float(y) if y.ndim == 0 else y


def xi_star(cfg: CouplingConfig, omega: float) -> float:
    """Radius sqrt(4*kappa/(5*omega)) where y(xi) hits the spectral point.

    Raises ValueError for a dimensionless energy omega = -2*m*beta*E outside
    (0, 1/2), the range where omega > 0 and 1 - 2*omega > 0.
    """
    if not 0.0 < omega < 0.5:
        raise ValueError(f"omega must lie in (0, 1/2), got {omega}")
    return math.sqrt(4.0 * cfg.kappa / (5.0 * omega))


@dataclass(frozen=True)
class RadialProfile:
    """Sampled R(xi) and whether |R| fails to fall off toward xi*.

    non_decaying: max|R| on the last decile [0.9, 1.0]*xi* of the physical
    range exceeds max|R| on [0.45, 0.55]*xi*, each window valued at 16 evenly
    spaced radii of its own, whatever the grid.  Eigenvalues decay by an
    order of magnitude or more into the tail, non-eigenvalues do not.
    """

    xi: np.ndarray
    values: np.ndarray
    non_decaying: bool


def default_xi_grid(cfg: CouplingConfig, omega: float,
                    n: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Log-spaced grid over [1e-3, 1.2*xi*], resolving power law and spectral zero.

    Raises ValueError when 1.2*xi* does not exceed the 1e-3 start (a tiny
    kappa at a large omega), where the grid would run backwards, or is not
    finite (an omega near the smallest floats).
    """
    stop = DEFAULT_GRID_STRETCH * xi_star(cfg, omega)
    if n < 2:
        raise ValueError("need at least two grid points")
    if not math.isfinite(stop):
        raise ValueError(f"1.2*xi* at omega = {omega:g} is not finite")
    if stop <= DEFAULT_GRID_START:
        raise ValueError(f"1.2*xi* = {stop:.3g} does not exceed the grid start "
                         f"{DEFAULT_GRID_START:g}")
    return np.exp(np.linspace(math.log(DEFAULT_GRID_START), math.log(stop), n))


def wavefunction(cfg: CouplingConfig, omega: float, xi_grid) -> RadialProfile:
    """Sample R(xi) = xi^ell * (1-y) * Hc(y(xi)) on a sorted non-negative grid.

    A kernel value depends only on its energy, target and tol, so the flag's
    radii in the same call leave R bit for bit.  A value that is not finite,
    on the grid or at a flag radius, raises ValueError.
    """
    xi = np.asarray(xi_grid, dtype=float)
    if xi.ndim != 1 or xi.size == 0:
        raise ValueError("xi_grid must be a non-empty 1-d array")
    if np.any(np.diff(xi) <= 0) or np.any(xi < 0):
        raise ValueError("xi_grid must be sorted strictly increasing and non-negative")

    windows = np.concatenate([np.linspace(0.45, 0.55, 16), np.linspace(0.9, 1.0, 16)])
    xi_all = np.concatenate([xi, xi_star(cfg, omega) * windows])
    y = map_xi_to_y(xi_all, cfg, omega)
    hc = np.ones_like(y)
    off_origin = y != 0.0
    targets = y[off_origin]
    B, q0, q1 = heun_coefficients(cfg.kappa, cfg.ell, np.full(targets.size, omega))
    g, _ = heun_continue_arrays(B, q0, q1, targets, tol=_PROFILE_TOL)
    failed = targets[np.isnan(g)]
    if failed.size:
        raise HeunEvaluationError(
            f"continuation to y = {failed[0]} failed ({failed.size} of {targets.size} targets): "
            f"the target lies beyond {heun._MAX_PANELS} panels, or a continuation panel "
            f"overflows or stays unresolved"
        )
    hc[off_origin] = g

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = xi_all**cfg.ell * (1.0 - y) * hc
    if not np.all(np.isfinite(values)):
        raise ValueError("profile values must be finite")
    mid, tail = np.abs(values[xi.size:]).reshape(2, 16).max(axis=1)
    return RadialProfile(xi=xi, values=values[:xi.size], non_decaying=bool(tail > mid))
