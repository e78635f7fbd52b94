"""Confluent Heun equation: parameters, Frobenius series, analytic continuation.

The deformed radial problem for the attractive 1/r^2 potential with a minimal
length reduces (after pulling out the local exponent and moving the second
regular singular point to 1) to the confluent Heun equation

    g'' + ( a + (b+1)/y + (c+1)/(y-1) ) g'
        + [ (a(b+c+2)/2 + d) y + e + b/2 + (c-a)(b+1)/2 ] / ( y(y-1) ) g = 0

with regular singular points at y = 0, 1 and an irregular point of rank 1 at
infinity.  Hc(a,b,c,d,e;y) denotes the local Frobenius solution at y = 0
normalized to Hc(...;0) = 1; the second local solution is
y^(-b) Hc(a,-b,c,d,e;y).  For dimensionless coupling kappa and orbital
number ell the parameters read

    a = 0,   b = -1/2 - ell,   c = 1,
    d = kappa*Omega/eps^2,     e = kappa/eps + 1/2,     eps = 1 - Omega,

with Omega = 2*omega the dimensionless energy.  The square-integrable radial
branch behaves like r^ell at the origin and therefore carries the flipped
second parameter -b = ell + 1/2.

Evaluation strategy
-------------------
Inside the unit disk (restricted to |y| <= 0.9 for safety) the power series
from the three-term coefficient recurrence is used directly.  Outside, the
solution is continued along the negative real axis, which contains no
singularity, by adaptive eighth-order integration of the equation written as
a first-order system in (g, g').  The outward leg steps in t = ln(-y):
spectral evaluation points (Omega-1)/Omega reach -1e4 and far beyond for
shallow states, and logarithmic stepping keeps the step count bounded.

heun_continue_batch evaluates many energies at once: one vectorised series
seeds them all, and one integration in a normalized variable carries every
energy to its own target.  A spectral scan is a single call; the scalar
entry points are its one-energy case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

SERIES_MAX_TERMS = 10_000
SERIES_RADIUS_LIMIT = 0.9
DEFAULT_SEED_POINT = -0.5
# DOP853 error control is meaningless below ~100*eps
_RTOL_FLOOR = 3e-14
# On y < 0 the series terms alternate in sign and peak near
# exp(2*sqrt((|q0| + sqrt|q1|)*|y|)); continuation is seeded where that
# stays below e^8, so the sum keeps about 12 of its 16 digits
_SEED_GROWTH = 8.0


class HeunEvaluationError(RuntimeError):
    """Series truncation overflow or integrator failure during continuation."""


@dataclass(frozen=True)
class CouplingConfig:
    """Dimensionless problem definition.

    kappa = m*alpha/(2*hbar^2) is the strength of the attractive 1/r^2
    potential; ell is the orbital quantum number.
    """

    kappa: float
    ell: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")
        if not isinstance(self.ell, (int, np.integer)) or self.ell < 0:
            raise ValueError(f"ell must be a non-negative integer, got {self.ell}")


@dataclass(frozen=True)
class EnergyPoint:
    """Dimensionless trial energy omega = -2*m*beta*E with derived quantities.

    big_omega = 2*omega and epsilon = 1 - big_omega; bound states require
    omega in (0, 1/2) so that epsilon stays positive.
    """

    omega: float
    big_omega: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.omega < 0.5):
            raise ValueError(f"omega must lie in (0, 1/2), got {self.omega}")
        if self.big_omega != 2.0 * self.omega:
            raise ValueError("big_omega must equal 2*omega")
        if self.epsilon != 1.0 - self.big_omega:
            raise ValueError("epsilon must equal 1 - big_omega")

    @classmethod
    def from_omega(cls, omega: float) -> "EnergyPoint":
        omega = float(omega)
        return cls(omega=omega, big_omega=2.0 * omega, epsilon=1.0 - 2.0 * omega)


@dataclass(frozen=True)
class HeunParams:
    """The five confluent-Heun parameters (a, b, c, d, e).

    For this problem a = 0 and c = 1 always, and b = -1/2 - ell for a
    non-negative integer ell.  The physical branch is evaluated with the
    sign-flipped second parameter -b.
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        if self.a != 0.0 or self.c != 1.0:
            raise ValueError("expected a = 0 and c = 1")
        ell = -0.5 - self.b
        if abs(ell - round(ell)) > 1e-12 or round(ell) < 0:
            raise ValueError(f"b must equal -1/2 - ell for integer ell >= 0, got {self.b}")

    def effective_b(self, use_minus_b: bool) -> float:
        return -self.b if use_minus_b else self.b


def heun_params(cfg: CouplingConfig, ep: EnergyPoint) -> HeunParams:
    """Confluent-Heun parameter set for coupling cfg at trial energy ep."""
    return HeunParams(
        a=0.0,
        b=-0.5 - cfg.ell,
        c=1.0,
        d=cfg.kappa * ep.big_omega / ep.epsilon**2,
        e=cfg.kappa / ep.epsilon + 0.5,
    )


def _linear_coefficients(p: HeunParams, use_minus_b: bool) -> tuple[float, float, float, float, float]:
    """(a, b_eff, c, q1, q0) with the polynomial part q1*y + q0 of the g term."""
    b = p.effective_b(use_minus_b)
    q1 = 0.5 * p.a * (b + p.c + 2.0) + p.d
    q0 = p.e + 0.5 * b + 0.5 * (p.c - p.a) * (b + 1.0)
    return p.a, b, p.c, q1, q0


@dataclass(frozen=True)
class HeunSeries:
    """Truncated Frobenius series sum(v_n y^n) of the exponent-zero solution.

    coeffs[0] = 1 by normalization.  The truncation tail is below tol at
    |y| = radius_used, so evaluations are only allowed inside that radius.
    """

    coeffs: np.ndarray
    tol: float
    radius_used: float

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def _check_radius(self, y: float) -> None:
        if abs(y) > self.radius_used * (1.0 + 1e-12):
            raise ValueError(
                f"|y| = {abs(y)} exceeds the certified series radius {self.radius_used}"
            )

    def value(self, y: float) -> float:
        self._check_radius(y)
        acc = 0.0
        for v in self.coeffs[::-1]:
            acc = acc * y + v
        return acc

    def derivative(self, y: float) -> float:
        self._check_radius(y)
        acc = 0.0
        for n in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * y + n * self.coeffs[n]
        return acc

    def second_derivative(self, y: float) -> float:
        self._check_radius(y)
        acc = 0.0
        for n in range(len(self.coeffs) - 1, 1, -1):
            acc = acc * y + n * (n - 1) * self.coeffs[n]
        return acc


def heun_series(
    p: HeunParams,
    use_minus_b: bool = True,
    tol: float = 1e-12,
    radius: float = 0.5,
) -> HeunSeries:
    """Power-series coefficients of Hc with the chosen branch of b.

    Substituting sum(v_n y^n) into the equation gives the three-term recurrence

        (n+1)(n+b+1) v_{n+1} = [n(n-1) + n(b+c+2-a) + q0] v_n + [a(n-1) + q1] v_{n-1}

    with v_0 = 1.  Generation stops once three consecutive terms at |y| = radius
    drop below tol relative to the accumulated (absolute) sum, with an n^2
    weight on the term so that the residual of the truncated polynomial in the
    differential equation (which picks up the dropped coefficients through the
    indicial factor (n+1)(n+b+1)) is bounded by tol as well, not only the
    value; it is an error to need more than SERIES_MAX_TERMS coefficients.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0 < radius <= SERIES_RADIUS_LIMIT:
        raise ValueError(f"radius must lie in (0, {SERIES_RADIUS_LIMIT}]")
    a, b, c, q1, q0 = _linear_coefficients(p, use_minus_b)
    if b <= -1.0 and abs(b - round(b)) < 1e-12:
        # (n + b + 1) would vanish at n = -b - 1; cannot happen on the
        # physical branch where b = ell + 1/2
        raise HeunEvaluationError(f"recurrence breaks down for b = {b}")

    coeffs = [1.0, q0 / (b + 1.0)]
    abs_sum = 1.0 + abs(coeffs[1]) * radius
    consecutive_small = 0
    n = 1
    while consecutive_small < 3:
        if n >= SERIES_MAX_TERMS:
            raise HeunEvaluationError(
                f"series needs more than {SERIES_MAX_TERMS} terms at radius {radius}"
            )
        num = (n * (n - 1.0) + n * (b + c + 2.0 - a) + q0) * coeffs[n] \
            + (a * (n - 1.0) + q1) * coeffs[n - 1]
        v = num / ((n + 1.0) * (n + b + 1.0))
        coeffs.append(v)
        n += 1
        term = abs(v) * radius**n
        abs_sum += term
        if (n * n + 1.0) * term < tol * abs_sum:
            consecutive_small += 1
        else:
            consecutive_small = 0
    return HeunSeries(coeffs=np.asarray(coeffs), tol=tol, radius_used=radius)


def heun_second_derivative(
    p: HeunParams, use_minus_b: bool, y: float, g: float, gp: float
) -> float:
    """g'' at y given (g, g'), straight from the equation.  y must avoid 0 and 1."""
    a, b, c, q1, q0 = _linear_coefficients(p, use_minus_b)
    return -((a + (b + 1.0) / y + (c + 1.0) / (y - 1.0)) * gp
             + (q1 * y + q0) / (y * (y - 1.0)) * g)


def _seed_tol(tol: float) -> float:
    return min(max(tol * 1e-3, 1e-15), 1e-9)


def _validate_continuation_args(y_target, seed_point: float) -> None:
    if not np.all(np.isfinite(y_target) & (np.asarray(y_target) < 0.0)):
        raise ValueError(f"y_target must be finite and negative, got {y_target}")
    if not -0.7 <= seed_point <= -0.4:
        raise ValueError(f"seed point must lie in [-0.7, -0.4], got {seed_point}")


def _series_state(b: float, q0: np.ndarray, q1: np.ndarray, z: np.ndarray,
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, g') of every energy's Frobenius series at its own point z_i; NaN where it fails.

    The recurrence of heun_series runs on the scaled terms w_n = v_n z^n of all
    energies at once, with the same stopping rule at radius |z_i|.  An energy
    fails when a term stops being finite or it needs more than
    SERIES_MAX_TERMS coefficients.
    """
    g = np.full(z.shape, np.nan)
    gp = np.full(z.shape, np.nan)
    active = np.arange(z.size)
    w_prev = np.ones(z.size)
    w = q0 * z / (b + 1.0)
    value = 1.0 + w
    slope = w.copy()  # sum of n * w_n
    abs_sum = 1.0 + np.abs(w)
    small = np.zeros(z.size, dtype=int)
    n = 1
    while active.size and n < SERIES_MAX_TERMS:
        w_prev, w = w, ((n * (n + b + 2.0) + q0) * w + q1 * z * w_prev) * z \
            / ((n + 1.0) * (n + b + 1.0))
        n += 1
        value += w
        slope += n * w
        term = np.abs(w)
        abs_sum += term
        small = np.where((n * n + 1.0) * term < tol * abs_sum, small + 1, 0)
        done = small >= 3
        failed = ~np.isfinite(term)
        if done.any() or failed.any():
            finished = active[done]
            g[finished] = value[done]
            gp[finished] = slope[done] / z[done]
            keep = ~(done | failed)
            active, q0, q1, z = active[keep], q0[keep], q1[keep], z[keep]
            w_prev, w, value, slope = w_prev[keep], w[keep], value[keep], slope[keep]
            abs_sum, small = abs_sum[keep], small[keep]
    return g, gp


def _integrate(b: float, q0: np.ndarray, q1: np.ndarray, g0: np.ndarray, gp0: np.ndarray,
               t0: np.ndarray, t_end: np.ndarray, rtol: float):
    """(g, g') at t_end_i = ln(-y_i) from the seed states at t0_i, or None on failure.

    All energies share one DOP853 solve in tau = (t - t0_i)/(t_end_i - t0_i),
    so each starts at tau = 0 and reaches its own endpoint at tau = 1.  The
    error norm is the RMS over all 2m components, so rtol/sqrt(m) bounds each
    energy's own RMS error in (g, g') by rtol.
    """
    m = g0.size
    span = t_end - t0
    # with e = -y and r = 1/(1-y) the equation (a = 0, c = 1) times span*y reads
    #   span*y*g'' = -span*((b+3)*g' + q1*g) + r*span*(2*g' + (q0+q1)*g),
    # which keeps the number of numpy calls per evaluation small
    coefs = (t0, span, -span, span * (b + 3.0), span * q1, 2.0 * span, span * (q0 + q1))
    # a single energy (root refinement) runs on Python floats: a numpy call
    # costs several times a float operation on arrays this small
    scalar = m == 1
    if scalar:
        coefs = tuple(float(c[0]) for c in coefs)
    start, scale, neg_scale, gp_coef, g_coef, gp_r_coef, g_r_coef = coefs
    exp = math.exp if scalar else np.exp

    def rhs(tau, s):
        e = exp(start + tau * scale)
        r = 1.0 / (1.0 + e)
        g, gp = s.tolist() if scalar else (s[:m], s[m:])
        dg = neg_scale * e * gp
        dgp = r * (gp_r_coef * gp + g_r_coef * g) - gp_coef * gp - g_coef * g
        return [dg, dgp] if scalar else np.concatenate((dg, dgp))

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate((g0, gp0)), method="DOP853",
                    rtol=rtol / math.sqrt(m), atol=0.0)
    if not sol.success:
        return None
    return sol.y[:m, -1], sol.y[m:, -1]


def heun_continue_batch(
    params: Sequence[HeunParams],
    use_minus_b: bool,
    y_targets,
    tol: float = 1e-10,
    seed_point: float = DEFAULT_SEED_POINT,
) -> tuple[np.ndarray, np.ndarray]:
    """(g, g') of the physical branch for many energies, each at its own y_target < 0.

    All params must share b (one ell).  Each energy is seeded by its
    Frobenius series at radius |seed_point|, or closer to the origin when its
    series terms would cancel there (see _SEED_GROWTH).  Targets inside the
    seed radius are read straight from the series.  The others are continued
    in t = ln(-y) by one DOP853 solve over the whole batch, with absolute
    tolerance zero so the solution sign stays reliable while the amplitude
    decays through many orders of magnitude.  Each energy's error stays
    within tol; a batch whose shared tolerance would fall below the
    integrator's floor is split, and a failed batch is retried one energy at
    a time.  An energy whose series or integration fails comes back as NaN
    without affecting the others.
    """
    y = np.asarray(y_targets, dtype=float).reshape(-1)
    if len(params) != y.size:
        raise ValueError("need one parameter set per target")
    if y.size == 0:
        return np.empty(0), np.empty(0)
    _validate_continuation_args(y, seed_point)
    coeffs = np.array([_linear_coefficients(p, use_minus_b) for p in params])
    b = float(coeffs[0, 1])
    if np.any(coeffs[:, 1] != b):
        raise ValueError("all parameter sets must share b")
    if b <= -1.0 and abs(b - round(b)) < 1e-12:
        raise HeunEvaluationError(f"recurrence breaks down for b = {b}")
    q1, q0 = coeffs[:, 3], coeffs[:, 4]

    radius = np.minimum(-seed_point,
                        (0.5 * _SEED_GROWTH) ** 2 / (np.abs(q0) + np.sqrt(np.abs(q1))))
    inner = -y <= radius
    g, gp = _series_state(b, q0, q1, np.where(inner, y, -radius), _seed_tol(tol))

    t0, t_end = np.log(radius), np.log(-y)
    rtol = max(tol, _RTOL_FLOOR)
    size = max(1, int((rtol / _RTOL_FLOOR) ** 2))
    outer = np.flatnonzero(~inner & ~np.isnan(g))  # failed series stay NaN
    batches = [outer[i:i + size] for i in range(0, outer.size, size)]
    while batches:
        idx = batches.pop()
        result = _integrate(b, q0[idx], q1[idx], g[idx], gp[idx], t0[idx], t_end[idx], rtol)
        if result is not None:
            g[idx], gp[idx] = result
        elif idx.size > 1:
            batches.extend(idx[i:i + 1] for i in range(idx.size))
        else:
            g[idx] = gp[idx] = np.nan
    return g, gp


def heun_continue_state(
    p: HeunParams,
    use_minus_b: bool,
    y_target: float,
    tol: float = 1e-10,
    seed_point: float = DEFAULT_SEED_POINT,
) -> tuple[float, float]:
    """Continue the physical branch to y_target < 0; returns (g, g') there.

    The single-energy case of heun_continue_batch.
    """
    g, gp = heun_continue_batch([p], use_minus_b, [y_target], tol, seed_point)
    if math.isnan(g[0]):
        raise HeunEvaluationError(
            f"continuation to y = {y_target} failed: the series needs more than "
            f"{SERIES_MAX_TERMS} terms or overflows, or the integrator failed"
        )
    return float(g[0]), float(gp[0])


def heun_continue(
    p: HeunParams,
    use_minus_b: bool,
    y_target: float,
    tol: float = 1e-10,
    seed_point: float = DEFAULT_SEED_POINT,
) -> float:
    """Value of the physical Heun branch at y_target < 0 (see heun_continue_state)."""
    return heun_continue_state(p, use_minus_b, y_target, tol, seed_point)[0]


def heun_continue_path(
    p: HeunParams,
    use_minus_b: bool,
    y_targets: np.ndarray,
    tol: float = 1e-10,
    seed_point: float = DEFAULT_SEED_POINT,
) -> np.ndarray:
    """Values of the physical branch at many targets on the outward leg.

    All targets must satisfy y <= seed_point; they are evaluated in one
    integration sweep, which is what makes dense wavefunction sampling cheap.
    """
    y_targets = np.asarray(y_targets, dtype=float)
    if y_targets.size == 0:
        return np.empty(0)
    _validate_continuation_args(float(np.max(y_targets)), seed_point)
    if np.any(y_targets > seed_point):
        raise ValueError("path targets must all lie at or beyond the seed point")

    series = heun_series(p, use_minus_b, tol=_seed_tol(tol), radius=abs(seed_point))
    g0 = series.value(seed_point)
    gp0 = series.derivative(seed_point)

    t_targets = np.log(-y_targets)
    order = np.argsort(t_targets)
    t_sorted = t_targets[order]

    def rhs(t, s):
        y = -math.exp(t)
        gpp = heun_second_derivative(p, use_minus_b, y, s[0], s[1])
        return [y * s[1], y * gpp]

    sol = solve_ivp(rhs, (math.log(-seed_point), t_sorted[-1]), [g0, gp0],
                    method="DOP853", rtol=max(tol, _RTOL_FLOOR), atol=0.0,
                    t_eval=t_sorted)
    if not sol.success:
        raise HeunEvaluationError(f"path continuation failed: {sol.message}")
    values = np.empty_like(t_targets)
    values[order] = sol.y[0]
    return values
