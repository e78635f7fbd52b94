"""Bound-state spectra: exact Heun condition, closed form, and comparisons.

Two routes to the spectrum of the deformed inverse-square problem:

* exact_heun (exact_spectrum): zeros in omega of Hc(a, -b, c, d, e;
  (Omega-1)/Omega), the condition R(xi*) = 0 at the edge of the physical
  range.  Level k is the root of F = k, F being the zero count that
  critical_coupling bisects on (below) made continuous (heun), solved for
  all levels at once, each from the two counted grid energies (about two
  a level) whose counts hold it.
* closed_form: the explicit tower

      omega_n = 1/2 * exp[ (2/nu) * (arg B - (n + 1/2) pi) ],   n = 0, 1, ...

  valid for |E_n| well below the deformation scale 1/(4 m beta); entries at or
  above the validity cut (default omega >= 0.05) are discarded.  Successive
  levels contract by exactly exp(-2 pi / nu): the accumulation point at zero
  energy.

The shallow-energy reduction F(alpha', gamma'; delta'; -1/Omega) = 0 that
links the two is a test reference (tests/hyp_oracle.py), not a route.

Weak coupling (4 kappa <= (ell+1/2)^2) has no bound states at all; the
critical coupling is located by bisecting on the presence of a level above
omega_floor, N(omega_floor) >= 1, counted without a scan: the zeros N of the
Heun function on (y*, 0) drop by one at each eigenvalue as omega rises, and a
level that rises through omega = 1/2 leaves its node, so no window top is
counted.  Near the critical point the remaining states sink exponentially
fast (omega_1 ~ exp(-2 pi / nu) with nu -> 0), so the floor must reach
extremely shallow omega; the default of 1e-45 resolves the transition to
about 1e-3 in kappa.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .heun import (
    CouplingConfig,
    HeunEvaluationError,
    heun_coefficients,
    heun_continue_arrays,
    heun_zero_counts,
)
from .specfun import WeakCouplingError, compute_phase

METHOD_EXACT = "exact_heun"
METHOD_CLOSED_FORM = "closed_form"
_METHODS = (METHOD_EXACT, METHOD_CLOSED_FORM)

DEFAULT_OMEGA_MIN = 1e-5
DEFAULT_OMEGA_MAX = 0.45
DEFAULT_SCAN_POINTS = 600
DEFAULT_SCAN_TOL = 1e-8
DEFAULT_VALIDITY = 0.05

CRITICAL_OMEGA_FLOOR = 1e-45
DEFAULT_KAPPA_TOL = 5e-4
# halvings per count call of critical_coupling: a call's cost grows with its
# energies; critical_coupling(0, 0.05, 0.08) takes 7.4 / 4.6 / 4.7 / 5.6 / 11.2
# ms at 1 / 2 / 3 / 4 / 6 (2-core Xeon, medians of 15 rounds, each best of 5)
_LEVELS_PER_CALL = 3
# evaluation tolerance of critical_coupling's zero counts, looser than a scan's
_COUNT_TOL = 1e-6
# grid energies in the second zero count of _counted_brackets below 20 levels
# (two a level above): every 16th of the default 600, and up to 40 points all
_COARSE_POINTS = 40


class NoTransitionError(RuntimeError):
    """Both bisection endpoints agree on bound-state presence."""


def _spectral_points(omegas):
    """y* = (Omega-1)/Omega at every omega (a float or an array), radius sqrt(-alpha/E)."""
    big_omega = 2.0 * omegas
    return (big_omega - 1.0) / big_omega


def _spectral_values(cfg: CouplingConfig, omegas: np.ndarray, tol: float) -> np.ndarray:
    """Hc(0, -b, 1, d, e; y*) at every omega, zero exactly at eigenvalues; NaN where it fails."""
    values, _ = heun_continue_arrays(*heun_coefficients(cfg.kappa, cfg.ell, omegas),
                                     _spectral_points(omegas), tol=tol)
    return values


def _find_brackets(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(i, i+1) wherever values i and i+1 are finite, nonzero and of opposite sign.

    NaN points are gaps, and so are exact zeros: the Heun evaluation reaches
    0.0 only when a value underflows, which marks no root.  Signs come from
    signbit, not from a product, which can overflow or underflow.
    """
    v = np.asarray(values, dtype=float)
    a, b = v[:-1], v[1:]
    left = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & (a != 0.0) & (b != 0.0)
                          & (np.signbit(a) != np.signbit(b)))
    return tuple((i, i + 1) for i in left.tolist())


def _check_window(omega_min: float, omega_max: float) -> None:
    """Reject a window outside (0, 1/2), or one whose spectral point at omega_min overflows.

    y* ~ -1/(2 omega) overflows below omega ~ 2.7e-309.
    """
    if not (0.0 < omega_min < omega_max < 0.5):
        raise ValueError("need 0 < omega_min < omega_max < 1/2")
    if not math.isfinite(_spectral_points(float(omega_min))):  # Python floats divide to inf
        raise ValueError(f"the spectral point y* = (Omega-1)/Omega at omega = "
                         f"{omega_min:g} is not finite")


def spectral_scan(cfg: CouplingConfig, omega_min: float = DEFAULT_OMEGA_MIN,
                  omega_max: float = DEFAULT_OMEGA_MAX,
                  n_points: int = DEFAULT_SCAN_POINTS,
                  tol: float = DEFAULT_SCAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(omegas, values): Hc(y*) on a log grid of omegas; _find_brackets gives its sign changes.

    The whole grid is one heun_continue_arrays call, with each energy held to
    tol.  Energies that fail to evaluate are recorded as NaN gaps; the scan
    itself never aborts.
    """
    omegas = _scan_grid(omega_min, omega_max, n_points)
    return omegas, _spectral_values(cfg, omegas, tol)


def _scan_grid(omega_min: float, omega_max: float, n_points: int) -> np.ndarray:
    """The log grid of spectral_scan, after its checks of the window and n_points."""
    _check_window(omega_min, omega_max)
    if n_points < 2:
        raise ValueError("need at least two scan points")
    return np.exp(np.linspace(math.log(omega_min), math.log(omega_max), n_points))


def _bisect(count, x, width, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Halve every step of a monotone function of x down to spans at most width wide.

    x are sorted points, counted with the midpoints of the first round.  An
    interval between neighbours is open where their values differ and it is
    wider than width.  Each round is one call count(points) -> values on the
    midpoints of the next `levels` halvings of every open interval, in heap
    order (the midpoint of each, then those of its halves, ...), halving
    only spans wider than width; no point is counted twice.  Returns the
    counted points, sorted, and their values.
    """
    x = np.asarray(x, dtype=float)
    todo, n = x, np.arange(x.size)
    while True:
        step = n[:-1] != n[1:]
        a, b = x[:-1][step], x[1:][step]
        for _ in range(levels):
            wide = b - a > width
            a, b = a[wide], b[wide]
            mid = 0.5 * (a + b)
            todo = np.concatenate((todo, mid))
            a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
        if not todo.size:
            return x, n
        # a point's last value wins: its count replaces the stand-in arange of x
        x, last = np.unique(np.concatenate((x, todo))[::-1], return_index=True)
        n, todo = np.concatenate((n, count(todo)))[::-1][last], x[:0]


def _counted_brackets(cfg: CouplingConfig, omega_min: float, omega_max: float, n_points: int,
                      tol: float) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """spectral_scan's grid energies that the zero count took, and the levels between them.

    N(omega), the zeros of the Heun function on (y*, 0), drops by one at each
    eigenvalue as omega rises.  A first heun_zero_counts call, at the scan's
    tol, counts the grid's two ends; a grid whose ends hold L > 0 levels
    gets a second call on every stride-th energy, stride = ceil((n_points -
    1) / max(_COARSE_POINTS - 1, 2 L)): about two counted energies a level,
    and level k lies between counted i, i+1 where N_i >= k > N_{i+1}.
    Returns the counted energies by increasing omega as (omega, N, g, F - N),
    every level's k, decreasing, and its i.  A count that fails, or rises
    with omega between two counted energies, raises HeunEvaluationError.
    """
    omegas = _scan_grid(omega_min, omega_max, n_points)
    w = omegas[[0, -1]]
    n, g, fraction = heun_zero_counts(*heun_coefficients(cfg.kappa, cfg.ell, w),
                                      _spectral_points(w), tol=tol)
    first, last = n
    if first > last and n_points > 2:
        stride = -(-(n_points - 1) // max(_COARSE_POINTS - 1, 2 * (first - last)))
        inner = omegas[stride:-1:stride]
        more = heun_zero_counts(*heun_coefficients(cfg.kappa, cfg.ell, inner),
                                _spectral_points(inner), tol=tol)
        w, n, g, fraction = (np.insert(a, 1, b) for a, b in zip((w, n, g, fraction),
                                                                (inner, *more)))
    if (rise := np.flatnonzero(np.diff(n) > 0)).size:
        i = rise[0]
        raise HeunEvaluationError(
            f"zero count rises with omega, from {n[i]} at omega = {w[i]:g} "
            f"to {n[i + 1]} at omega = {w[i + 1]:g}")
    k = np.arange(first, last, -1)
    return (w, n, g, fraction), k, np.searchsorted(-n, -k, side="right") - 1


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues omega_n (strictly decreasing) found by one of the methods."""

    method: str
    omegas: tuple[float, ...]
    kappa: float
    ell: int
    first_level: int = 1  # Sturm index k of omegas[0]; level k has k - 1 zeros of R in xi*

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for w in self.omegas:
            if not 0.0 < w < 0.5:
                raise ValueError(f"eigenvalue omega = {w} outside (0, 1/2)")
        if any(b >= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValueError("omegas must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.omegas)


def _chandrupatla(f, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray,
                  xatol: float, maxiter: int = 2046) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeros of f in every bracket [lo, hi] at once by Chandrupatla's method.

    A step-for-step port of scipy.optimize.elementwise.find_root (Adv. Eng.
    Softw. 28 (1997) 145) at xrtol = 4*eps, fatol = frtol = 0 and its cap, bit
    for bit in x, status and final bracket (low, high) wherever f is finite.
    f_lo and f_hi are f at the ends; f(x, i) takes a point x of each open
    bracket i, as find_root's f(x, *args) does with args = (i,).  A bracket
    stops at the first of: an exact zero (status 0), ends of one sign (-1, x
    NaN), NaN at either end (-3, x NaN), |x2 - x1| < |xmin|*xrtol + xatol
    (0), the cap (-2).  scipy stops only at NaN at both ends: a bracket with
    one NaN end stays open there and can shrink onto the edge of a NaN
    region, to end with status 0 at no root.
    """
    x, status = np.full(lo.size, np.nan), np.full(lo.size, -2)
    ends = np.full((2, lo.size), np.nan)
    x1, x2, f1, f2 = (np.asarray(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    active, t, nit = np.arange(lo.size), 0.5, 0
    while True:
        xmin, fmin = np.where(np.abs(f1) < np.abs(f2), (x1, f1), (x2, f2))
        st = np.where(fmin == 0.0, 0, 1)
        st[(st == 1) & (np.sign(f1) == np.sign(f2))] = -1
        st[(st == 1) & (~(np.isfinite(x1) & np.isfinite(x2)) | np.isnan(f1) | np.isnan(f2))] = -3
        xmin[st < 0] = np.nan
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * (4.0 * sys.float_info.epsilon) + xatol
        st[dx < tol] = 0
        go = st == 1
        x[active[~go]], status[active[~go]] = xmin[~go], st[~go]
        ends[:, active] = np.sort((x1, x2), axis=0)
        active, x1, f1, x2, f2, xmin, dx, tol = (
            v[go] for v in (active, x1, f1, x2, f2, xmin, dx, tol))
        if not active.size or nit >= maxiter:
            x[active] = xmin
            return x, status, ends
        if nit:
            x3, f3 = x3[go], f3[go]
            with np.errstate(all="ignore"):
                xi1, phi1 = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                t = np.where(((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1)),
                             f1 / (f1 - f2) * f3 / (f3 - f2)
                             - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            t = np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx)
        xn = x1 + t * (x2 - x1)
        fn = np.asarray(f(xn, active), dtype=float)
        same = np.sign(fn) == np.sign(f1)
        x3, f3, x2, f2 = np.where(same, (x1, f1, x2, f2), (x2, f2, x1, f1))
        x1, f1, nit = xn, fn, nit + 1


def exact_spectrum(cfg: CouplingConfig, omega_min: float = DEFAULT_OMEGA_MIN,
                   omega_max: float = DEFAULT_OMEGA_MAX,
                   n_points: int = DEFAULT_SCAN_POINTS,
                   tol: float = DEFAULT_SCAN_TOL) -> SpectrumResult:
    """Every level in [omega_min, omega_max], each the root of F = k on the zero count.

    _counted_brackets places each level k between two counted grid
    energies; _chandrupatla solves F(omega) = k for all levels at once in
    ln omega from their F, one heun_zero_counts call at tol a round, to
    brackets narrower than tol (or 16 eps |ln omega|); the root is the
    secant of F - k across its bracket, so tol is its relative accuracy.
    The bracket certifies the root: the count is at least k at its lower
    end and below k at its upper end, with g of the sign (-1)^N at both,
    but for one end within 4 eps |ln omega| of the root, where count and g
    are rounding.  A root without a certificate, or a count that fails or
    rises with omega, raises HeunEvaluationError.
    """
    (w, n, g, fraction), k, i = _counted_brackets(cfg, omega_min, omega_max, n_points, tol)
    first_level = int(n[-1]) + 1  # N(omega_max) levels lie above the window
    x = np.log(w)
    counted = dict(zip(x.tolist(), zip(n.tolist(), fraction.tolist(), g.tolist())))

    def f(x: np.ndarray, j: np.ndarray) -> np.ndarray:
        """F - k at ln omega = x of levels j, as (N - k) + (F - N), each distinct x counted once."""
        x, at = np.unique(x, return_inverse=True)
        w = np.exp(x)
        n, g, fraction = heun_zero_counts(*heun_coefficients(cfg.kappa, cfg.ell, w),
                                          _spectral_points(w), tol=tol)
        counted.update(zip(x.tolist(), zip(n.tolist(), fraction.tolist(), g.tolist())))
        return (n[at] - k[j]) + fraction[at]

    # a step lands half the stopping width from each end: no bracket stops at the root at both
    xatol = max(tol, 16.0 * sys.float_info.epsilon * float(np.abs(x).max()))
    _, status, ends = _chandrupatla(f, x[i], x[i + 1], (n[i] - k) + fraction[i],
                                    (n[i + 1] - k) + fraction[i + 1], xatol)
    # N, F - N and g at the lower and the upper end of every final bracket, each (2, levels)
    n, fraction, g = np.array([[counted[v] for v in end] for end in ends.tolist()]).reshape(
        2, -1, 3).transpose(2, 0, 1)
    f = (n - k) + fraction
    with np.errstate(divide="ignore", invalid="ignore"):  # equal or NaN F fail the certificate
        roots = ends[0] + f[0] / (f[0] - f[1]) * (ends[1] - ends[0])
    at_root = np.abs(ends - roots) <= 4.0 * sys.float_info.epsilon * np.abs(roots)
    # the count on its side of k, which f leaves for g's near a zero; g of the sign (-1)^N
    held = ((n >= k) == [[True], [False]]) & (g != 0.0) & (np.signbit(g) == (n % 2 == 1))
    bad = np.flatnonzero((status != 0) | at_root.all(axis=0) | ~(at_root | held).all(axis=0))
    if bad.size:
        j = bad[0]
        raise HeunEvaluationError(
            f"level {k[j]} is not certified in omega = [{math.exp(ends[0, j]):.12g}, "
            f"{math.exp(ends[1, j]):.12g}] by the count and the sign of g")
    return SpectrumResult(method=METHOD_EXACT, omegas=tuple(np.exp(roots[::-1]).tolist()),
                          kappa=cfg.kappa, ell=cfg.ell, first_level=first_level)


def closed_form_spectrum(cfg: CouplingConfig, n_max: int = 20,
                         validity: float = DEFAULT_VALIDITY) -> SpectrumResult:
    """Explicit low-energy tower omega_n = exp[(2/nu)(arg B - (n+1/2)pi)] / 2.

    Levels at or above the validity cut violate the shallow-energy premise and
    are discarded, and so are levels at or above 1/2, outside the bound-state
    range, whatever the cut; weak coupling returns an empty spectrum (not an
    error).  The levels decrease strictly, so the tower stops at the first one
    below the smallest normal float: from there they underflow towards 0.0
    and stop being distinct.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    # a NaN cut would silently discard every level
    if not (math.isfinite(validity) and validity > 0):
        raise ValueError(f"validity must be finite and positive, got {validity}")
    try:
        phase = compute_phase(cfg)
    except WeakCouplingError:
        return SpectrumResult(method=METHOD_CLOSED_FORM, omegas=(),
                              kappa=cfg.kappa, ell=cfg.ell)
    tower = []
    for n in range(n_max + 1):
        w = 0.5 * math.exp((2.0 / phase.nu) * (phase.b_arg - (n + 0.5) * math.pi))
        if w < sys.float_info.min:
            break
        tower.append(w)
    omegas = tuple(w for w in tower if w < min(validity, 0.5))
    # level n on arg B is level n + 2 winding on the unwrapped phase, Sturm level n + 2 winding + 1
    return SpectrumResult(method=METHOD_CLOSED_FORM, omegas=omegas, kappa=cfg.kappa, ell=cfg.ell,
                          first_level=len(tower) - len(omegas) + 2 * phase.winding + 1)


def critical_coupling(ell: int, kappa_lo: float, kappa_hi: float,
                      omega_floor: float = CRITICAL_OMEGA_FLOOR,
                      kappa_tol: float = DEFAULT_KAPPA_TOL) -> float:
    """Bisect on the presence of a level above omega_floor to find the transition.

    At each kappa a level is present where N(omega_floor) >= 1, N being the
    zeros of the Heun function on (y*, 0), counted at the relaxed _COUNT_TOL
    (heun_zero_counts): one energy per kappa.  N never falls as kappa rises
    (Sturm comparison), so presence flips once, where the first level reaches
    the floor.  _bisect halves [kappa_lo, kappa_hi] to kappa_tol as plain
    bisection does, _LEVELS_PER_CALL halvings a call, the ends in the first,
    and the middle of the last span is returned.  Near the transition the
    last level sits at omega ~ exp(-2 pi / nu), hence the default floor
    1e-45: a floor of 1e-5 would place the threshold near kappa ~ 0.115 for
    ell = 0 instead of ~1/16.  A count that fails, or presence that changes
    more than once across the counted kappas, raises HeunEvaluationError.
    """
    if not kappa_lo < kappa_hi:
        raise ValueError("need kappa_lo < kappa_hi")
    if not (0.0 < omega_floor < 0.5 and math.isfinite(_spectral_points(float(omega_floor)))):
        raise ValueError(f"need 0 < omega_floor < 1/2 and a finite y* there, got {omega_floor:g}")
    for kappa in (kappa_lo, kappa_hi):
        CouplingConfig(kappa=kappa, ell=ell)  # validates kappa and ell
    if not (math.isfinite(kappa_tol) and kappa_tol > 0):
        raise ValueError(f"kappa_tol must be finite and positive, got {kappa_tol}")
    # bisection down to a few float spacings would end on adjacent floats, never stopping
    spacing = 4.0 * sys.float_info.epsilon * kappa_hi
    if kappa_tol <= spacing:
        raise ValueError(f"4 float spacings of kappa in [{kappa_lo:g}, {kappa_hi:g}] are "
                         f"{spacing:.3g}, not below kappa_tol = {kappa_tol:.3g}")

    def count(kappas: np.ndarray) -> np.ndarray:
        """Whether a level lies above the floor at each of kappas: N(omega_floor) >= 1."""
        omegas = np.full(kappas.size, omega_floor)
        return heun_zero_counts(*heun_coefficients(kappas, ell, omegas),
                                _spectral_points(omegas), tol=_COUNT_TOL)[0] >= 1

    kappas, present = _bisect(count, [kappa_lo, kappa_hi], kappa_tol, _LEVELS_PER_CALL)
    flips = np.flatnonzero(present[:-1] != present[1:])
    if flips.size > 1:
        raise HeunEvaluationError(
            f"presence of a level above omega_floor = {omega_floor:g} changes more than once "
            f"with kappa: again between kappa = {kappas[flips[1]]} and {kappas[flips[1] + 1]}")
    if not flips.size:
        raise NoTransitionError(f"no transition in [{kappa_lo}, {kappa_hi}]: bound states "
                                f"{'present' if present[-1] else 'absent'} at both ends")
    return 0.5 * float(kappas[flips[0]] + kappas[flips[0] + 1])


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    omega_exact: float
    omega_closed_form: float
    rel_dev: float


@dataclass(frozen=True)
class SpectrumComparison:
    """Pairs of equal Sturm index from two spectra plus the level-ratio diagnostics."""

    rows: tuple[ComparisonRow, ...]
    ratio_reference: float | None  # exp(-2 pi / nu), None for weak coupling
    ratios_exact: tuple[float, ...]
    both_empty: bool


def compare_spectra(exact: SpectrumResult, approx: SpectrumResult) -> SpectrumComparison:
    """Pair the levels of two spectra by their Sturm index and report deviations.

    Each level of exact whose index approx also holds is one row; a row's n
    is the level's position in exact (1 for omegas[0]), not its index.  Also
    reports the empirical successive ratios of the exact list against the
    asymptotic contraction exp(-2 pi / nu).  Empty-vs-empty compares as
    agreement.
    """
    if (exact.kappa, exact.ell) != (approx.kappa, approx.ell):
        raise ValueError("spectra to compare must share (kappa, ell)")
    cfg = CouplingConfig(exact.kappa, exact.ell)
    try:
        ratio_ref = math.exp(-2.0 * math.pi / compute_phase(cfg).nu)
    except WeakCouplingError:
        ratio_ref = None
    # exact.omegas[p] and approx.omegas[p + shift] are the same level
    shift = exact.first_level - approx.first_level
    p0 = max(0, -shift)
    rows = tuple(ComparisonRow(n=p + 1, omega_exact=w, omega_closed_form=wa,
                               rel_dev=abs(wa - w) / w)
                 for p, w, wa in zip(range(p0, len(exact.omegas)), exact.omegas[p0:],
                                     approx.omegas[p0 + shift:]))
    ratios = tuple(b / a for a, b in zip(exact.omegas, exact.omegas[1:]))
    return SpectrumComparison(rows=rows, ratio_reference=ratio_ref, ratios_exact=ratios,
                              both_empty=(not exact.omegas and not approx.omegas))
