"""Bound-state spectra: exact Heun condition, closed form, and comparisons.

Three routes to the spectrum of the deformed inverse-square problem:

* exact_heun (exact_spectrum): zeros in omega of Hc(a, -b, c, d, e;
  (Omega-1)/Omega), bracketed on a log-spaced grid and refined in one
  batch.  This is the condition R(xi*) = 0 at the edge of the physical
  range.  The brackets are spectral_scan's, found from the zero count that
  critical_coupling bisects on (below), which brings their values; only the
  grid neighbours whose count drops by an odd number are tested for a
  sign change (_counted_brackets).  A window without levels takes one
  count of its two ends, and fewer roots than levels draw a warning.
* hypergeometric_condition: zeros of F(alpha', gamma'; delta'; -1/Omega),
  the shallow-energy reduction of the same boundary condition.
* closed_form: the explicit tower

      omega_n = 1/2 * exp[ (2/nu) * (arg B - (n + 1/2) pi) ],   n = 0, 1, ...

  valid for |E_n| well below the deformation scale 1/(4 m beta); entries at or
  above the validity cut (default omega >= 0.05) are discarded.  Successive
  levels contract by exactly exp(-2 pi / nu): the accumulation point at zero
  energy.

Weak coupling (4 kappa <= (ell+1/2)^2) has no bound states at all; the
critical coupling is located by bisecting on the presence of levels in
(omega_floor, omega_max), counted without a scan: the zeros of the Heun
function on (y*, 0) drop by one at each eigenvalue as omega rises (Sturm
oscillation), so the levels in the window are N(omega_floor) - N(omega_max).
Near the critical point the remaining states sink exponentially fast
(omega_1 ~ exp(-2 pi / nu) with nu -> 0), so the window must reach
extremely shallow omega; the default floor of 1e-45 resolves the transition
to about 1e-3 in kappa.

Physical units enter only at the very end: E_n = -omega_n / (2 m beta),
equivalently -(5 hbar^2 / (4 m dx_min^2)) with dx_min = hbar sqrt(5 beta).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .heun import (
    CouplingConfig,
    HeunEvaluationError,
    heun_coefficients,
    heun_continue_arrays,
    heun_zero_counts,
)
from .specfun import (
    NonConvergenceError,
    WeakCouplingError,
    compute_phase,
    hyp2f1_large_negative,
    reduced_hypergeometric_parameters,
)

METHOD_EXACT = "exact_heun"
METHOD_CLOSED_FORM = "closed_form"
METHOD_HYPERGEOMETRIC = "hypergeometric_condition"
_METHODS = (METHOD_EXACT, METHOD_CLOSED_FORM, METHOD_HYPERGEOMETRIC)

DEFAULT_OMEGA_MIN = 1e-5
DEFAULT_OMEGA_MAX = 0.45
DEFAULT_SCAN_POINTS = 600
DEFAULT_SCAN_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-9
DEFAULT_VALIDITY = 0.05
REFINE_EVAL_TOL = 1e-10

CRITICAL_OMEGA_FLOOR = 1e-45
CRITICAL_OMEGA_MAX = 0.4
DEFAULT_KAPPA_TOL = 5e-4
# bisection levels of critical_coupling whose midpoints one count call takes:
# a call's cost grows with its energies, and critical_coupling(0, 0.05, 0.08)
# takes 7.4 / 4.6 / 4.7 / 5.6 / 11.2 ms at 1 / 2 / 3 / 4 / 6 levels (2-core
# Xeon, medians of 15 rounds, each the best of 5)
_LEVELS_PER_CALL = 3
# evaluation tolerance of critical_coupling's zero counts, looser than a scan's
_COUNT_TOL = 1e-6
# grid energies in the coarse zero count of _counted_brackets: every 16th of
# the default 600, and the whole grid in one call up to 40 points
_COARSE_POINTS = 40
# halvings of each dropping interval per count call of _counted_brackets (3
# points an interval; 2 calls at stride 16, not 4): 14.9 / 13.6 / 15.2 ms at
# 1 / 2 / 3 at kappa = 2, 21.8 / 16.5 / 17.4 ms on 2400 points, but 53 / 72 /
# 94 ms at kappa = 100, where nearly every coarse interval drops (2-core Xeon,
# default window, medians of 9 rounds, each the best of 3)
_HALVINGS_PER_CALL = 2


class NoTransitionError(RuntimeError):
    """Both bisection endpoints agree on bound-state presence."""


class UnitMismatchError(ValueError):
    """UnitSystem-derived kappa disagrees with the spectrum's kappa."""


def _spectral_points(omegas, point_scale: float):
    """y* = c^2 (Omega-1)/Omega at every omega (a float or an array), radius c*sqrt(-alpha/E)."""
    big_omega = 2.0 * omegas
    return point_scale**2 * (big_omega - 1.0) / big_omega


def _spectral_values(cfg: CouplingConfig, omegas: np.ndarray, tol: float,
                     point_scale: float) -> np.ndarray:
    """spectral_function at every omega in one heun_continue_arrays call; NaN where it fails."""
    values, _ = heun_continue_arrays(*heun_coefficients(cfg.kappa, cfg.ell, omegas),
                                     _spectral_points(omegas, point_scale), tol=tol)
    return values


def spectral_function(cfg: CouplingConfig, omega: float, tol: float = DEFAULT_SCAN_TOL,
                      point_scale: float = 1.0) -> float:
    """Hc(0, -b, 1, d, e; y*) at trial energy omega: zero exactly at eigenvalues.

    The one-omega case of _spectral_values; raises HeunEvaluationError where
    that gives NaN.
    """
    (value,) = _spectral_values(cfg, np.array([float(omega)]), tol, point_scale)
    if math.isnan(value):
        raise HeunEvaluationError(f"spectral function at omega = {omega} failed: the series "
                                  f"or a continuation panel did not evaluate")
    return float(value)


@dataclass(frozen=True)
class SpectralScan:
    """Log-spaced samples of the spectral function with sign-change brackets."""

    omegas: np.ndarray
    values: np.ndarray
    brackets: tuple[tuple[int, int], ...]
    kappa: float
    ell: int

    def __post_init__(self):
        if len(self.omegas) != len(self.values):
            raise ValueError("omegas and values must have equal length")
        for i, j in self.brackets:
            vi, vj = self.values[i], self.values[j]
            if j != i + 1 or not (np.isfinite(vi) and np.isfinite(vj)
                                  and _opposite_signs(vi, vj)):
                raise ValueError(f"bracket ({i}, {j}) is not a sign change between neighbours")


def _opposite_signs(a, b):
    """a * b < 0 without forming the product, which can overflow or underflow."""
    return (a != 0.0) & (b != 0.0) & (np.signbit(a) != np.signbit(b))


def _find_brackets(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(i, i+1) wherever values i and i+1 are finite, nonzero and of opposite sign.

    NaN points are gaps, and so are exact zeros: the Heun evaluation reaches
    0.0 only when a value underflows, which marks no root.
    """
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    left = np.flatnonzero(finite[:-1] & finite[1:] & _opposite_signs(v[:-1], v[1:]))
    return tuple((i, i + 1) for i in left.tolist())


def _check_window(omega_min: float, omega_max: float, point_scale: float) -> None:
    """Reject a window outside (0, 1/2) or whose spectral point at omega_min overflows.

    y* ~ -c^2/(2 omega) passes the largest float below omega of about
    2.7e-309 at c = 1, and for any omega once c exceeds about 1e154.
    """
    if not (0.0 < omega_min < omega_max < 0.5):
        raise ValueError("need 0 < omega_min < omega_max < 1/2")
    with np.errstate(over="ignore"):  # numpy scalars overflow to inf, Python's c**2 raises
        y = _spectral_points(np.float64(omega_min), np.float64(point_scale))
    if not np.isfinite(y):
        raise ValueError(f"the spectral point y* = c^2 (Omega-1)/Omega at omega = "
                         f"{omega_min:g}, c = {point_scale:g}, is not finite")


def spectral_scan(cfg: CouplingConfig, omega_min: float = DEFAULT_OMEGA_MIN,
                  omega_max: float = DEFAULT_OMEGA_MAX,
                  n_points: int = DEFAULT_SCAN_POINTS,
                  tol: float = DEFAULT_SCAN_TOL,
                  point_scale: float = 1.0) -> SpectralScan:
    """Sample the spectral function on a log grid and record sign-change brackets.

    The whole grid is one heun_continue_arrays call, with each energy held to
    tol.  Energies that fail to evaluate are recorded as NaN gaps; the scan
    itself never aborts.
    """
    omegas = _scan_grid(omega_min, omega_max, n_points, point_scale)
    values = _spectral_values(cfg, omegas, tol, point_scale)
    return SpectralScan(omegas=omegas, values=values, brackets=_find_brackets(values),
                        kappa=cfg.kappa, ell=cfg.ell)


def _scan_grid(omega_min: float, omega_max: float, n_points: int,
               point_scale: float) -> np.ndarray:
    """The log grid of spectral_scan, after its checks of the window and n_points."""
    _check_window(omega_min, omega_max, point_scale)
    if n_points < 2:
        raise ValueError("need at least two scan points")
    return np.exp(np.linspace(math.log(omega_min), math.log(omega_max), n_points))


def _counted_brackets(cfg: CouplingConfig, omega_min: float, omega_max: float,
                      n_points: int, tol: float, point_scale: float
                      ) -> tuple[np.ndarray, tuple[tuple[int, int], ...], int]:
    """spectral_scan's grid and brackets, found by the zero count; and the grid's levels.

    N(omega), the zeros of the Heun function on (y*, 0), drops by one at each
    eigenvalue as omega rises, and the sign of Hc at y* follows its parity.
    Each heun_zero_counts call, at the scan's tol and point_scale, returns
    the counts with the scan's own values.  A first call counts the grid's
    two ends: N(first) - N(last) is the number of levels on the grid, and a
    grid without levels is done.  Otherwise a second call counts every
    stride-th grid energy, about _COARSE_POINTS of them, and each interval
    whose count drops is bisected on grid indices, _HALVINGS_PER_CALL
    halvings of all of them per call, down to neighbours (i, i+1); a pair
    whose count drops by an odd number is a candidate, and _find_brackets
    keeps the sign changes among the candidates' values.  So the brackets
    are a subset of the scan's, and all of them where every sign change of
    the scan drops the count by an odd number.  A count that rises with
    omega between any two counted grid energies, or that fails, raises
    HeunEvaluationError.
    """
    omegas = _scan_grid(omega_min, omega_max, n_points, point_scale)
    counts = np.full(n_points, -1)
    values = np.full(n_points, np.nan)

    def count(todo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Count at grid indices todo; every counted index and the drops between them."""
        w = omegas[todo]
        counts[todo], values[todo] = heun_zero_counts(
            *heun_coefficients(cfg.kappa, cfg.ell, w), _spectral_points(w, point_scale), tol=tol)
        known = np.flatnonzero(counts >= 0)
        drops = counts[known[:-1]] - counts[known[1:]]
        if (rise := np.flatnonzero(drops < 0)).size:
            i, j = known[rise[0]], known[rise[0] + 1]
            raise HeunEvaluationError(
                f"zero count rises with omega, from {counts[i]} at omega = {omegas[i]:g} "
                f"to {counts[j]} at omega = {omegas[j]:g}")
        return known, drops

    known, drops = count(np.array([0, n_points - 1]))
    levels = int(drops[0])
    stride = -(-(n_points - 1) // (_COARSE_POINTS - 1))
    todo = np.arange(stride, n_points - 1, stride) if levels else np.arange(0)
    while todo.size:
        known, drops = count(todo)
        lo, hi = known[:-1][drops > 0], known[1:][drops > 0]
        for _ in range(_HALVINGS_PER_CALL):  # each halving's midpoints join lo
            mid = (lo + hi) // 2
            lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        todo = np.setdiff1d(lo, known)
    left = known[:-1][drops % 2 == 1]  # every dropping interval is one step wide now
    candidates = np.full(n_points, np.nan)
    candidates[left], candidates[left + 1] = values[left], values[left + 1]
    return omegas, _find_brackets(candidates), levels


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues omega_n (strictly decreasing) found by one of the methods."""

    method: str
    omegas: tuple[float, ...]
    kappa: float
    ell: int

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


def _chandrupatla(f, lo: np.ndarray, hi: np.ndarray, xatol: float,
                  maxiter: int = 2046) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of f in every bracket [lo, hi] at once by Chandrupatla's method.

    A step-for-step port of scipy.optimize.elementwise.find_root (Adv. Eng.
    Softw. 28 (1997) 145) at xrtol = 4*eps, fatol = frtol = 0 and its cap, bit
    for bit in x and status wherever f is finite.  A bracket stops at the
    first of: an exact zero (status 0), ends of one sign (-1, x NaN), NaN at
    either end (-3, x NaN), |x2 - x1| < |xmin|*xrtol + xatol (0), the cap
    (-2).  scipy stops only at NaN at both ends: a bracket with one NaN end
    stays open there and can shrink onto the edge of a NaN region, to end
    with status 0 at no root.  The first call of f takes both ends of every
    bracket, each later one the open brackets.
    """
    x, status = np.full(lo.size, np.nan), np.full(lo.size, -2)
    if not lo.size:
        return x, status
    x1, x2 = lo.astype(float), hi.astype(float)
    f1, f2 = np.split(np.asarray(f(np.concatenate([x1, x2])), dtype=float), 2)
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
        active, x1, f1, x2, f2, xmin, dx, tol = (
            v[go] for v in (active, x1, f1, x2, f2, xmin, dx, tol))
        if not active.size or nit >= maxiter:
            x[active] = xmin
            return x, status
        if nit:
            x3, f3 = x3[go], f3[go]
            with np.errstate(all="ignore"):
                xi1, phi1 = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                t = np.where(((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1)),
                             f1 / (f1 - f2) * f3 / (f3 - f2)
                             - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            t = np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx)
        xn = x1 + t * (x2 - x1)
        fn = np.asarray(f(xn), dtype=float)
        same = np.sign(fn) == np.sign(f1)
        x3, f3, x2, f2 = np.where(same, (x1, f1, x2, f2), (x2, f2, x1, f1))
        x1, f1, nit = xn, fn, nit + 1


def _bracket_roots(f, omegas: np.ndarray, brackets: tuple[tuple[int, int], ...],
                   tol: float) -> tuple[float, ...]:
    """Zeros of f in the brackets over omegas, decreasing, deduplicated at 2*tol.

    The brackets, (i, i+1) pairs of _find_brackets, are refined together by
    _chandrupatla until each is narrower than tol + 4*eps*omega.  A bracket
    without a sign change under f is dropped with a RuntimeWarning at the
    caller's caller; one that ends on NaN values
    or the iteration cap raises NonConvergenceError.  tol must be finite and
    positive: at tol = inf deduplication merges every root.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    pairs = np.array(brackets, dtype=int).reshape(-1, 2)
    lo, hi = omegas[pairs[:, 0]], omegas[pairs[:, 1]]
    x, status = _chandrupatla(f, lo, hi, tol)
    if (failed := np.flatnonzero(status < -1)).size:
        i = failed[0]
        raise NonConvergenceError(f"bracket [{lo[i]:g}, {hi[i]:g}] ended on " + (
            "NaN values" if status[i] == -3 else "the iteration cap"))
    for a, b in zip(lo[status == -1], hi[status == -1]):
        warnings.warn(f"bracket [{a:g}, {b:g}] lost its sign change; dropped",
                      RuntimeWarning, stacklevel=3)
    roots = sorted(x[status == 0].tolist(), reverse=True)
    deduped: list[float] = []
    for r in roots:
        if not deduped or deduped[-1] - r > 2.0 * tol:
            deduped.append(r)
    return tuple(deduped)


def exact_spectrum(cfg: CouplingConfig, omega_min: float = DEFAULT_OMEGA_MIN,
                   omega_max: float = DEFAULT_OMEGA_MAX,
                   n_points: int = DEFAULT_SCAN_POINTS,
                   tol: float = DEFAULT_SCAN_TOL,
                   point_scale: float = 1.0) -> SpectrumResult:
    """The levels on spectral_scan's grid: its brackets, refined by _bracket_roots.

    _counted_brackets finds the brackets of the same spectral_scan from the
    zero count, without valuing every grid point, and with them the grid's
    level count.  They are refined together to min(tol, DEFAULT_ROOT_TOL),
    evaluated at min(REFINE_EVAL_TOL, tol) so that their signs hold near
    convergence.  Fewer roots than levels draw a RuntimeWarning at the
    caller that names where they were lost: in the brackets (refine the
    grid) or in their refinement.  A count or an evaluation that fails, or
    a count that rises with omega, raises HeunEvaluationError.
    """
    omegas, brackets, levels = _counted_brackets(cfg, omega_min, omega_max, n_points, tol,
                                                 point_scale)

    def f(w: np.ndarray) -> np.ndarray:
        values = _spectral_values(cfg, w, min(REFINE_EVAL_TOL, tol), point_scale)
        failed = w[np.isnan(values)]
        if failed.size:
            raise HeunEvaluationError(f"refinement evaluation failed at omega = "
                                      f"{failed[0]:g} ({failed.size} of {w.size})")
        return values

    roots = _bracket_roots(f, omegas, brackets, min(tol, DEFAULT_ROOT_TOL))
    k, b = len(roots), len(brackets)
    if k < levels:
        warnings.warn(f"found {k} of {levels} levels in [{omega_min:g}, {omega_max:g}]"
                      + ("; refine the grid" if b < levels else "")
                      + (f"; the refinement kept {k} of {b} brackets" if k < b else ""),
                      RuntimeWarning, stacklevel=2)
    return SpectrumResult(method=METHOD_EXACT, omegas=roots, kappa=cfg.kappa, ell=cfg.ell)


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
    cut = min(validity, 0.5)
    omegas = []
    for n in range(n_max + 1):
        w = 0.5 * math.exp((2.0 / phase.nu) * (phase.b_arg - (n + 0.5) * math.pi))
        if w < sys.float_info.min:
            break
        if w < cut:
            omegas.append(w)
    return SpectrumResult(method=METHOD_CLOSED_FORM, omegas=tuple(omegas),
                          kappa=cfg.kappa, ell=cfg.ell)


def hypergeometric_condition_roots(cfg: CouplingConfig,
                                   omega_range: tuple[float, float] = (1e-6, DEFAULT_VALIDITY),
                                   n_points: int = 400) -> SpectrumResult:
    """Zeros of F(alpha', gamma'; delta'; -1/Omega): the intermediate spectrum.

    The condition only makes sense in the shallow window omega < 0.05 where
    the reduction applies; weak coupling returns an empty result.  Roots are
    refined to DEFAULT_ROOT_TOL.
    """
    lo, hi = omega_range
    if not (0.0 < lo < hi <= DEFAULT_VALIDITY):
        raise ValueError("omega_range must satisfy 0 < lo < hi <= 0.05")
    if n_points < 2:
        raise ValueError("need at least two scan points")
    try:
        alpha_p, gamma_p, delta_p = reduced_hypergeometric_parameters(cfg)
    except WeakCouplingError:
        return SpectrumResult(method=METHOD_HYPERGEOMETRIC, omegas=(),
                              kappa=cfg.kappa, ell=cfg.ell)

    def f(w: np.ndarray) -> np.ndarray:
        # conjugate parameter pair: the imaginary part is roundoff
        return np.array([hyp2f1_large_negative(alpha_p, gamma_p, delta_p, -0.5 / x).real
                         for x in w])

    omegas = np.exp(np.linspace(math.log(lo), math.log(hi), n_points))
    roots = _bracket_roots(f, omegas, _find_brackets(f(omegas)), DEFAULT_ROOT_TOL)
    return SpectrumResult(method=METHOD_HYPERGEOMETRIC, omegas=roots,
                          kappa=cfg.kappa, ell=cfg.ell)


def _bisection_midpoints(lo: float, hi: float, kappa_tol: float, levels: int) -> list[float]:
    """The midpoints that bisecting [lo, hi] may visit in its next `levels` halvings.

    Heap order: the midpoint of [lo, hi], then those of its two halves, and
    so on, each computed as 0.5*(lo + hi) exactly as the bisection loop of
    critical_coupling computes it, and only for the spans that loop would
    still halve (wider than kappa_tol).
    """
    out: list[float] = []
    spans = [(lo, hi)]
    for _ in range(levels):
        spans = [(a, b) for a, b in spans if b - a > kappa_tol]
        mids = [0.5 * (a + b) for a, b in spans]
        out += mids
        spans = [half for (a, b), m in zip(spans, mids) for half in ((a, m), (m, b))]
    return out


def critical_coupling(ell: int, kappa_lo: float, kappa_hi: float,
                      omega_floor: float = CRITICAL_OMEGA_FLOOR,
                      kappa_tol: float = DEFAULT_KAPPA_TOL) -> float:
    """Bisect on the presence of levels in (omega_floor, omega_max) to find the transition.

    The window's upper end omega_max is CRITICAL_OMEGA_MAX = 0.4.  At each
    kappa the levels in the window are counted as N(omega_floor) -
    N(omega_max), N being the number of zeros of the Heun function on
    (y*, 0) (heun_zero_counts).  The midpoints of the next halvings are
    known before any count, so one batched call counts them together: the
    first call takes the two ends of the bracket and the midpoints of the
    first _LEVELS_PER_CALL halvings, and a new call, for the next levels, is
    made only when the bisection walks past them.  The halvings themselves
    are those of plain bisection.  Near the transition the last
    bound state sits at omega ~ exp(-2 pi / nu), which is why omega_floor
    defaults to 1e-45: a floor of 1e-5 would place the detection threshold
    near kappa ~ 0.115 for ell = 0 instead of ~1/16.  Returns the transition
    kappa to roughly kappa_tol.  Counting zeros does not need tight
    evaluation, so the counts run at the relaxed _COUNT_TOL.  A count that
    fails raises HeunEvaluationError, also at a midpoint the bisection would
    not have visited.
    """
    if not kappa_lo < kappa_hi:
        raise ValueError("need kappa_lo < kappa_hi")
    if not (0.0 < omega_floor < CRITICAL_OMEGA_MAX):
        raise ValueError("need 0 < omega_floor < omega_max < 1/2")
    for kappa in (kappa_lo, kappa_hi):
        CouplingConfig(kappa=kappa, ell=ell)  # validates kappa and ell
    # at a kappa_tol within a few floats of the bracket's spacing, or <= 0,
    # the bisection would end on adjacent floats and never stop
    spacing = 4.0 * sys.float_info.epsilon * max(abs(kappa_lo), abs(kappa_hi))
    if not (math.isfinite(kappa_tol) and kappa_tol > spacing):
        raise ValueError(f"kappa_tol must be finite and positive, got {kappa_tol}")
    _check_window(omega_floor, CRITICAL_OMEGA_MAX, 1.0)

    has_states: dict[float, bool] = {}

    def count(*kappas: float) -> None:
        omegas = np.tile([omega_floor, CRITICAL_OMEGA_MAX], len(kappas))
        n, _ = heun_zero_counts(*heun_coefficients(np.repeat(kappas, 2), ell, omegas),
                                _spectral_points(omegas, 1.0), tol=_COUNT_TOL)
        has_states.update(zip(kappas, (n[0::2] > n[1::2]).tolist()))

    lo, hi = kappa_lo, kappa_hi
    count(lo, hi, *_bisection_midpoints(lo, hi, kappa_tol, _LEVELS_PER_CALL))
    hi_has = has_states[hi]
    if has_states[lo] == hi_has:
        raise NoTransitionError(
            f"no transition in [{kappa_lo}, {kappa_hi}]: "
            f"bound states {'present' if hi_has else 'absent'} at both ends"
        )
    while hi - lo > kappa_tol:
        mid = 0.5 * (lo + hi)
        if mid not in has_states:
            count(*_bisection_midpoints(lo, hi, kappa_tol, _LEVELS_PER_CALL))
        if has_states[mid] == hi_has:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    omega_exact: float
    omega_closed_form: float
    rel_dev: float


@dataclass(frozen=True)
class SpectrumComparison:
    """Nearest-log pairing of two spectra plus the level-ratio diagnostics."""

    rows: tuple[ComparisonRow, ...]
    ratio_reference: float | None  # exp(-2 pi / nu), None for weak coupling
    ratios_exact: tuple[float, ...]
    both_empty: bool


def compare_spectra(exact: SpectrumResult, approx: SpectrumResult) -> SpectrumComparison:
    """Pair roots of two spectra by nearest log-omega and report deviations.

    Also reports the empirical successive ratios of the exact list against the
    asymptotic contraction exp(-2 pi / nu).  Empty-vs-empty compares as
    agreement.
    """
    if (exact.kappa, exact.ell) != (approx.kappa, approx.ell):
        raise ValueError("spectra to compare must share (kappa, ell)")
    try:
        nu = compute_phase(CouplingConfig(exact.kappa, exact.ell)).nu
    except WeakCouplingError:
        ratio_ref, cap = None, math.inf
    else:
        # pairs farther apart than half the level spacing 2*pi/nu stay unmatched
        ratio_ref, cap = math.exp(-2.0 * math.pi / nu), math.pi / nu

    rows = []
    if exact.omegas and approx.omegas:
        # globally greedy matching on log distance, each root used once
        candidates = sorted(
            (abs(math.log(w) - math.log(wa)), n, j)
            for n, w in enumerate(exact.omegas, start=1)
            for j, wa in enumerate(approx.omegas)
        )
        used_approx: set[int] = set()
        matches = {}
        for dist, n, j in candidates:
            if dist > cap or n in matches or j in used_approx:
                continue
            used_approx.add(j)
            matches[n] = j
        for n, w in enumerate(exact.omegas, start=1):
            if n in matches:
                wa = approx.omegas[matches[n]]
                rows.append(ComparisonRow(n=n, omega_exact=w, omega_closed_form=wa,
                                          rel_dev=abs(wa - w) / w))
    ratios = tuple(b / a for a, b in zip(exact.omegas, exact.omegas[1:]))
    return SpectrumComparison(rows=tuple(rows), ratio_reference=ratio_ref,
                              ratios_exact=ratios,
                              both_empty=(not exact.omegas and not approx.omegas))


@dataclass(frozen=True)
class UnitSystem:
    """SI-style inputs fixing the physical scales of the dimensionless problem."""

    mass: float
    hbar: float
    beta: float
    alpha_coupling: float

    def __post_init__(self):
        for name in ("mass", "hbar", "beta", "alpha_coupling"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive")

    @property
    def min_length(self) -> float:
        return self.hbar * math.sqrt(5.0 * self.beta)

    @property
    def kappa(self) -> float:
        return self.mass * self.alpha_coupling / (2.0 * self.hbar**2)

    @property
    def energy_scale(self) -> float:
        """Deformation energy 1/(4 m beta), equal to 5 hbar^2/(4 m dx_min^2)."""
        return 1.0 / (4.0 * self.mass * self.beta)


def natural_units_for(kappa: float) -> UnitSystem:
    """mass = hbar = beta = 1 units consistent with the given kappa."""
    return UnitSystem(mass=1.0, hbar=1.0, beta=1.0, alpha_coupling=2.0 * kappa)


def energy_from_omega(omega: float, units: UnitSystem) -> float:
    """E = -omega / (2 m beta); omega = 0 maps to the zero-energy threshold."""
    return -omega / (2.0 * units.mass * units.beta)


def to_physical_energy(result: SpectrumResult, units: UnitSystem) -> list[float]:
    """Convert a spectrum to physical energies, checking unit consistency.

    The units must reproduce the spectrum's kappa to 1e-12 relative: SI
    constants carry roundoff into m*alpha/(2*hbar^2), and one ulp of kappa =
    3e4 is 3.6e-12.  Natural-units conversion (mass = beta = 1) is simply
    E_n = -omega_n / 2.
    """
    if not math.isclose(units.kappa, result.kappa, rel_tol=1e-12):
        raise UnitMismatchError(
            f"units give kappa = {units.kappa!r}, spectrum has {result.kappa!r}"
        )
    return [energy_from_omega(w, units) for w in result.omegas]
