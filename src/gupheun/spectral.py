"""Bound-state spectra: exact Heun condition, closed form, and comparisons.

Three routes to the spectrum of the deformed inverse-square problem:

* exact_heun: zeros in omega of Hc(a, -b, c, d, e; (Omega-1)/Omega), located
  by a log-spaced scan and refined in one batch.  This is the condition
  R(xi*) = 0 at the edge of the physical range.
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
from scipy.optimize.elementwise import find_root

from .heun import (
    CouplingConfig,
    EnergyPoint,
    HeunEvaluationError,
    HeunParams,
    heun_continue,
    heun_continue_arrays,
    heun_params,
    heun_zero_counts,
)
from .specfun import (
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


class NoTransitionError(RuntimeError):
    """Both bisection endpoints agree on bound-state presence."""


class UnitMismatchError(ValueError):
    """UnitSystem-derived kappa disagrees with the spectrum's kappa."""


def spectral_point(ep: EnergyPoint, point_scale: float = 1.0) -> float:
    """Evaluation argument y* = c^2 (Omega-1)/Omega for cutoff radius c*sqrt(-alpha/E)."""
    return point_scale**2 * (ep.big_omega - 1.0) / ep.big_omega


def spectral_function(cfg: CouplingConfig, omega: float, tol: float = DEFAULT_SCAN_TOL,
                      point_scale: float = 1.0) -> float:
    """Hc(0, -b, 1, d, e; y*) at trial energy omega: zero exactly at eigenvalues."""
    ep = EnergyPoint.from_omega(omega)
    return heun_continue(heun_params(cfg, ep), spectral_point(ep, point_scale), tol=tol)


def _heun_arguments(kappa, ell: int, omegas: np.ndarray,
                    point_scale: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(B, q0, q1, y*) of heun_continue_arrays at every omega; kappa may vary with omega.

    The parameters are those of EnergyPoint, heun_params and spectral_point,
    computed on arrays in the same operations, and invalid ones raise the
    same ValueError.  epsilon^2 goes through float_power, which calls the C
    library's pow as Python's ** does; np.square can round differently.
    """
    invalid = ~((0.0 < omegas) & (omegas < 0.5))
    if invalid.any():
        EnergyPoint.from_omega(omegas[invalid][0])  # raises its ValueError
    big_omega = 2.0 * omegas
    epsilon = 1.0 - big_omega
    with np.errstate(over="ignore"):  # as in Python floats; rejected just below
        d = kappa * big_omega / np.float_power(epsilon, 2.0)
        e = kappa / epsilon + 0.5
    invalid = ~(np.isfinite(d) & np.isfinite(e))
    if invalid.any():
        HeunParams(b=-0.5 - ell, d=d[invalid][0], e=e[invalid][0])  # raises
    B = 0.5 + ell
    return B, e + B + 0.5, d, point_scale**2 * (big_omega - 1.0) / big_omega


def _spectral_values(cfg: CouplingConfig, omegas: np.ndarray, tol: float,
                     point_scale: float) -> np.ndarray:
    """spectral_function at every omega in one heun_continue_arrays call; NaN where it fails."""
    values, _ = heun_continue_arrays(*_heun_arguments(cfg.kappa, cfg.ell, omegas, point_scale),
                                     tol=tol)
    return values


@dataclass(frozen=True)
class SpectralScan:
    """Log-spaced samples of the spectral function with sign-change brackets."""

    omegas: np.ndarray
    values: np.ndarray
    brackets: tuple[tuple[int, int], ...]
    kappa: float
    ell: int
    tol: float = DEFAULT_SCAN_TOL
    point_scale: float = 1.0

    def __post_init__(self):
        if len(self.omegas) != len(self.values):
            raise ValueError("omegas and values must have equal length")
        for i, j in self.brackets:
            vi, vj = self.values[i], self.values[j]
            if i != j and not (np.isfinite(vi) and np.isfinite(vj)
                               and _opposite_signs(vi, vj)):
                raise ValueError(f"bracket ({i}, {j}) lacks opposite-sign endpoints")


def _opposite_signs(a, b):
    """a * b < 0 without forming the product, which can overflow or underflow."""
    return (a != 0.0) & (b != 0.0) & (np.signbit(a) != np.signbit(b))


def _find_brackets(values: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(i, i) at exact zeros and (i, i+1) at sign changes; NaN points are gaps."""
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    pair = finite[:-1] & finite[1:]
    zero = pair & (v[:-1] == 0.0)
    change = pair & _opposite_signs(v[:-1], v[1:])
    left = np.flatnonzero(zero | change)
    out = list(zip(left.tolist(), (left + change[left]).tolist()))
    if v.size and v[-1] == 0.0:
        out.append((v.size - 1, v.size - 1))
    return tuple(out)


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
    if not (0.0 < omega_min < omega_max < 0.5):
        raise ValueError("need 0 < omega_min < omega_max < 1/2")
    if n_points < 2:
        raise ValueError("need at least two scan points")
    omegas = np.exp(np.linspace(math.log(omega_min), math.log(omega_max), n_points))
    values = _spectral_values(cfg, omegas, tol, point_scale)
    return SpectralScan(omegas=omegas, values=values, brackets=_find_brackets(values),
                        kappa=cfg.kappa, ell=cfg.ell, tol=tol, point_scale=point_scale)


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


def _bracket_roots(f, omegas: np.ndarray, brackets: tuple[tuple[int, int], ...],
                   tol: float) -> tuple[float, ...]:
    """Zeros of f in the brackets over omegas, decreasing, deduplicated at 2*tol.

    (i, i) brackets are exact zeros.  The others are refined together by
    Chandrupatla's method (scipy.optimize.elementwise.find_root), one call of f
    per iteration on every open bracket, until each is narrower than
    tol + 4*eps*omega.  f raises rather than return NaN.  A bracket without a
    sign change under f is dropped with a RuntimeWarning.  tol must be finite
    and positive: at tol = inf the deduplication would merge every root.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    pairs = np.array(brackets, dtype=int).reshape(-1, 2)
    exact = pairs[:, 0] == pairs[:, 1]
    lo, hi = omegas[pairs[~exact, 0]], omegas[pairs[~exact, 1]]
    res = find_root(f, (lo, hi), tolerances=dict(xatol=tol, fatol=0.0))
    lost = res.status == -1
    for a, b in zip(lo[lost], hi[lost]):
        warnings.warn(f"bracket [{a:g}, {b:g}] lost its sign change; dropped",
                      RuntimeWarning, stacklevel=3)
    roots = sorted(omegas[pairs[exact, 0]].tolist() + res.x[res.status == 0].tolist(),
                   reverse=True)
    deduped: list[float] = []
    for r in roots:
        if not deduped or deduped[-1] - r > 2.0 * tol:
            deduped.append(r)
    return tuple(deduped)


def find_roots(scan: SpectralScan, tol: float = DEFAULT_ROOT_TOL) -> SpectrumResult:
    """Refine every scan bracket to |d omega| < tol with _bracket_roots.

    Each iteration is one heun_continue_arrays call over the open brackets, at
    the tightened evaluation tolerance so the bracket sign structure is
    trustworthy near convergence.  A bracket whose sign change evaporates
    under re-evaluation is dropped with a RuntimeWarning; a failed evaluation
    raises HeunEvaluationError.
    """
    cfg = CouplingConfig(kappa=scan.kappa, ell=scan.ell)

    def f(w: np.ndarray) -> np.ndarray:
        values = _spectral_values(cfg, w, min(REFINE_EVAL_TOL, scan.tol), scan.point_scale)
        failed = w[np.isnan(values)]
        if failed.size:
            raise HeunEvaluationError(f"refinement evaluation failed at omega = "
                                      f"{failed[0]:g} ({failed.size} of {w.size})")
        return values

    return SpectrumResult(method=METHOD_EXACT,
                          omegas=_bracket_roots(f, scan.omegas, scan.brackets, tol),
                          kappa=scan.kappa, ell=scan.ell)


def closed_form_spectrum(cfg: CouplingConfig, n_max: int = 20,
                         validity: float = DEFAULT_VALIDITY) -> SpectrumResult:
    """Explicit low-energy tower omega_n = exp[(2/nu)(arg B - (n+1/2)pi)] / 2.

    Levels at or above the validity cut violate the shallow-energy premise and
    are discarded; weak coupling returns an empty spectrum (not an error).  The
    levels decrease strictly, so the tower stops at the first one below the
    smallest normal float: from there they underflow towards 0.0 and stop
    being distinct.
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
    omegas = []
    for n in range(n_max + 1):
        w = 0.5 * math.exp((2.0 / phase.nu) * (phase.b_arg - (n + 0.5) * math.pi))
        if w < sys.float_info.min:
            break
        if w < validity:
            omegas.append(w)
    return SpectrumResult(method=METHOD_CLOSED_FORM, omegas=tuple(omegas),
                          kappa=cfg.kappa, ell=cfg.ell)


def hypergeometric_condition_roots(cfg: CouplingConfig,
                                   omega_range: tuple[float, float] = (1e-6, DEFAULT_VALIDITY),
                                   tol: float = DEFAULT_ROOT_TOL,
                                   n_points: int = 400) -> SpectrumResult:
    """Zeros of F(alpha', gamma'; delta'; -1/Omega): the intermediate spectrum.

    The condition only makes sense in the shallow window omega < 0.05 where
    the reduction applies; weak coupling returns an empty result.
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
    roots = _bracket_roots(f, omegas, _find_brackets(f(omegas)), tol)
    return SpectrumResult(method=METHOD_HYPERGEOMETRIC, omegas=roots,
                          kappa=cfg.kappa, ell=cfg.ell)


def _level_counts(ell: int, kappas, omega_lo: float, omega_hi: float,
                  tol: float) -> np.ndarray:
    """Levels in (omega_lo, omega_hi) at each kappa: N(omega_lo) - N(omega_hi).

    N(omega) is the number of zeros of the Heun function on (y*, 0), which
    drops by one at each eigenvalue as omega rises; all 2 * len(kappas)
    counts come from one heun_zero_counts call.
    """
    for kappa in kappas:
        CouplingConfig(kappa=kappa, ell=ell)  # validates kappa and ell
    n = heun_zero_counts(*_heun_arguments(np.repeat(kappas, 2), ell,
                                          np.tile([omega_lo, omega_hi], len(kappas)), 1.0),
                         tol=tol)
    return n[0::2] - n[1::2]


def critical_coupling(ell: int, kappa_lo: float, kappa_hi: float,
                      omega_floor: float = CRITICAL_OMEGA_FLOOR,
                      omega_max: float = CRITICAL_OMEGA_MAX,
                      kappa_tol: float = DEFAULT_KAPPA_TOL,
                      scan_tol: float = 1e-6) -> float:
    """Bisect on the presence of levels in (omega_floor, omega_max) to find the transition.

    At each kappa the levels in the window are counted as N(omega_floor) -
    N(omega_max), N being the number of zeros of the Heun function on
    (y*, 0) (heun_zero_counts): one batched evaluation of two energies, and
    of four for the two ends of the bracket.  Near the transition the last
    bound state sits at omega ~ exp(-2 pi / nu), which is why omega_floor
    defaults to 1e-45: a floor of 1e-5 would place the detection threshold
    near kappa ~ 0.115 for ell = 0 instead of ~1/16.  Returns the transition
    kappa to roughly kappa_tol.  Counting zeros does not need tight
    evaluation, hence the relaxed scan_tol default.  A count that fails
    raises HeunEvaluationError.
    """
    if not kappa_lo < kappa_hi:
        raise ValueError("need kappa_lo < kappa_hi")
    # at kappa_tol <= 0 the bisection would end on adjacent floats and never stop
    if not (math.isfinite(kappa_tol) and kappa_tol > 0):
        raise ValueError(f"kappa_tol must be finite and positive, got {kappa_tol}")
    if not (0.0 < omega_floor < omega_max < 0.5):
        raise ValueError("need 0 < omega_floor < omega_max < 1/2")

    def has_states(*kappas: float) -> np.ndarray:
        return _level_counts(ell, kappas, omega_floor, omega_max, scan_tol) > 0

    lo_has, hi_has = has_states(kappa_lo, kappa_hi)
    if lo_has == hi_has:
        raise NoTransitionError(
            f"no transition in [{kappa_lo}, {kappa_hi}]: "
            f"bound states {'present' if lo_has else 'absent'} at both ends"
        )
    lo, hi = kappa_lo, kappa_hi
    while hi - lo > kappa_tol:
        mid = 0.5 * (lo + hi)
        if has_states(mid)[0] == hi_has:
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
        ratio_ref = math.exp(-2.0 * math.pi / compute_phase(
            CouplingConfig(exact.kappa, exact.ell)).nu)
    except WeakCouplingError:
        ratio_ref = None

    rows = []
    if exact.omegas and approx.omegas:
        # globally greedy matching on log distance, each root used once; pairs
        # farther apart than half the level spacing 2*pi/nu stay unmatched
        cap = math.pi / compute_phase(CouplingConfig(exact.kappa, exact.ell)).nu \
            if ratio_ref is not None else math.inf
        candidates = sorted(
            (abs(math.log(w) - math.log(wa)), n, j)
            for n, w in enumerate(exact.omegas, start=1)
            for j, wa in enumerate(approx.omegas)
        )
        used_exact: set[int] = set()
        used_approx: set[int] = set()
        matches = {}
        for dist, n, j in candidates:
            if dist > cap or n in used_exact or j in used_approx:
                continue
            used_exact.add(n)
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

    The units must reproduce the spectrum's kappa to 1e-12; natural-units
    conversion (mass = beta = 1) is simply E_n = -omega_n / 2.
    """
    if abs(units.kappa - result.kappa) > 1e-12:
        raise UnitMismatchError(
            f"units give kappa = {units.kappa!r}, spectrum has {result.kappa!r}"
        )
    return [energy_from_omega(w, units) for w in result.omegas]
