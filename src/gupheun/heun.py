"""Confluent Heun equation of the deformed problem: parameters and evaluation.

The deformed radial problem for the attractive 1/r^2 potential with a minimal
length reduces (after pulling out the local exponent and moving the second
regular singular point to 1) to the confluent Heun equation with a = 0, c = 1,

    g'' + ( (b+1)/y + 2/(y-1) ) g' + [ d y + e + b + 1/2 ] / ( y(y-1) ) g = 0

with regular singular points at y = 0, 1 and an irregular point of rank 1 at
infinity.  Hc(0,b,1,d,e;y) denotes the local Frobenius solution at y = 0
normalized to Hc(...;0) = 1; the second local solution is
y^(-b) Hc(0,-b,1,d,e;y).  For dimensionless coupling kappa and orbital
number ell the parameters read

    b = -1/2 - ell,   d = kappa*Omega/eps^2,   e = kappa/eps + 1/2,   eps = 1 - Omega,

with Omega = 2*omega the dimensionless energy.  The square-integrable radial
branch behaves like r^ell at the origin and therefore carries the flipped
second parameter B = -b = ell + 1/2.  It is the only branch evaluated here:

    g'' + ( (B+1)/y + 2/(y-1) ) g' + (q1 y + q0) / ( y(y-1) ) g = 0,
    q1 = d,   q0 = e + B + 1/2.

Evaluation strategy
-------------------
heun_continue_batch is the one evaluator.  It takes (energy, target) pairs
with targets y < 0.  One vectorised three-term recurrence seeds every pair
with its Frobenius series, at |y| = 0.5 or closer to the origin where the
alternating terms would cancel; targets inside that seed radius are read
straight from the series.  The others are continued along the negative real
axis, which contains no singularity, by one adaptive eighth-order solve of
the equation as a first-order system in (g, g').  It steps in t = ln(-y),
normalized so that every pair reaches its own target together: spectral
points (Omega-1)/Omega reach -1e4 and far beyond for shallow states, and
logarithmic stepping keeps the step count bounded.  A spectral scan is one
call with many energies, a radial profile (heun_continue_path) one call with
one energy and many targets, and heun_continue the one-target case.

heun_series (a coefficient list with Horner evaluation) and
heun_second_derivative (the equation itself) are the textbook forms; the
evaluator does not use them, and they serve as independent checks of it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

SERIES_MAX_TERMS = 10_000
SERIES_RADIUS_LIMIT = 0.9
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
    """The parameters (b, d, e) of Hc(0, b, 1, d, e; y).

    b = -1/2 - ell for a non-negative integer ell; the physical branch is
    evaluated with the flipped second parameter B = -b = ell + 1/2.
    """

    b: float
    d: float
    e: float

    def __post_init__(self):
        for name in ("b", "d", "e"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        ell = -0.5 - self.b
        if abs(ell - round(ell)) > 1e-12 or round(ell) < 0:
            raise ValueError(f"b must equal -1/2 - ell for integer ell >= 0, got {self.b}")


def heun_params(cfg: CouplingConfig, ep: EnergyPoint) -> HeunParams:
    """Confluent-Heun parameter set for coupling cfg at trial energy ep."""
    return HeunParams(
        b=-0.5 - cfg.ell,
        d=cfg.kappa * ep.big_omega / ep.epsilon**2,
        e=cfg.kappa / ep.epsilon + 0.5,
    )


def _linear_coefficients(p: HeunParams) -> tuple[float, float, float]:
    """(B, q1, q0): B = -b and the polynomial part q1*y + q0 of the g term."""
    B = -p.b
    return B, p.d, p.e + B + 0.5


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


def heun_series(p: HeunParams, tol: float = 1e-12, radius: float = 0.5) -> HeunSeries:
    """Power-series coefficients of the physical branch Hc(0, B, 1, d, e; y).

    Substituting sum(v_n y^n) into the equation gives the three-term recurrence

        (n+1)(n+B+1) v_{n+1} = [n(n+B+2) + q0] v_n + q1 v_{n-1}

    with v_0 = 1.  Generation stops once three consecutive terms at |y| = radius
    drop below tol relative to the accumulated (absolute) sum, with an n^2
    weight on the term so that the residual of the truncated polynomial in the
    differential equation (which picks up the dropped coefficients through the
    indicial factor (n+1)(n+B+1)) is bounded by tol as well, not only the
    value; it is an error to need more than SERIES_MAX_TERMS coefficients.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0 < radius <= SERIES_RADIUS_LIMIT:
        raise ValueError(f"radius must lie in (0, {SERIES_RADIUS_LIMIT}]")
    B, q1, q0 = _linear_coefficients(p)

    coeffs = [1.0, q0 / (B + 1.0)]
    abs_sum = 1.0 + abs(coeffs[1]) * radius
    consecutive_small = 0
    n = 1
    while consecutive_small < 3:
        if n >= SERIES_MAX_TERMS:
            raise HeunEvaluationError(
                f"series needs more than {SERIES_MAX_TERMS} terms at radius {radius}"
            )
        v = ((n * (n + B + 2.0) + q0) * coeffs[n] + q1 * coeffs[n - 1]) \
            / ((n + 1.0) * (n + B + 1.0))
        coeffs.append(v)
        n += 1
        term = abs(v) * radius**n
        abs_sum += term
        if (n * n + 1.0) * term < tol * abs_sum:
            consecutive_small += 1
        else:
            consecutive_small = 0
    return HeunSeries(coeffs=np.asarray(coeffs), tol=tol, radius_used=radius)


def heun_second_derivative(p: HeunParams, y: float, g: float, gp: float) -> float:
    """g'' of the physical branch at y given (g, g'), straight from the equation.

    y must avoid 0 and 1.
    """
    B, q1, q0 = _linear_coefficients(p)
    return -(((B + 1.0) / y + 2.0 / (y - 1.0)) * gp + (q1 * y + q0) / (y * (y - 1.0)) * g)


def _seed_tol(tol: float) -> float:
    return min(max(tol * 1e-3, 1e-15), 1e-9)


def _series_state(B: float, q0: np.ndarray, q1: np.ndarray, z: np.ndarray,
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
    w = q0 * z / (B + 1.0)
    value = 1.0 + w
    slope = w.copy()  # sum of n * w_n
    abs_sum = 1.0 + np.abs(w)
    small = np.zeros(z.size, dtype=int)
    n = 1
    while active.size and n < SERIES_MAX_TERMS:
        w_prev, w = w, ((n * (n + B + 2.0) + q0) * w + q1 * z * w_prev) * z \
            / ((n + 1.0) * (n + B + 1.0))
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


def _integrate(B: float, q0: np.ndarray, q1: np.ndarray, g0: np.ndarray, gp0: np.ndarray,
               t0: np.ndarray, t_end: np.ndarray, rtol: float):
    """(g, g') at t_end_i = ln(-y_i) from the seed states at t0_i, or None on failure.

    All energies share one DOP853 solve in tau = (t - t0_i)/(t_end_i - t0_i),
    so each starts at tau = 0 and reaches its own endpoint at tau = 1.  The
    error norm is the RMS over all 2m components, so rtol/sqrt(m) bounds each
    energy's own RMS error in (g, g') by rtol.
    """
    m = g0.size
    span = t_end - t0
    # with e = -y and r = 1/(1-y) the equation times span*y reads
    #   span*y*g'' = -span*((B+3)*g' + q1*g) + r*span*(2*g' + (q0+q1)*g),
    # which keeps the number of numpy calls per evaluation small
    coefs = (t0, span, -span, span * (B + 3.0), span * q1, 2.0 * span, span * (q0 + q1))
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


def heun_continue_batch(params: Sequence[HeunParams], y_targets,
                        tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """(g, g') of the physical branch for many energies, each at its own y_target < 0.

    All params must share b (one ell); the same energy may appear many times.
    Each energy is seeded by its Frobenius series at radius 0.5, or closer to
    the origin when its series terms would cancel there (see _SEED_GROWTH).
    Targets inside the seed radius are read straight from the series.  The
    others are continued in t = ln(-y) by one DOP853 solve over the whole
    batch, with absolute tolerance zero so the solution sign stays reliable
    while the amplitude decays through many orders of magnitude.  Each
    target's error stays within tol; a batch whose shared tolerance would
    fall below the integrator's floor is split, and a failed batch is retried
    one target at a time.  A target whose series or integration fails comes
    back as NaN without affecting the others.
    """
    y = np.asarray(y_targets, dtype=float).reshape(-1)
    if len(params) != y.size:
        raise ValueError("need one parameter set per target")
    if y.size == 0:
        return np.empty(0), np.empty(0)
    if not np.all(np.isfinite(y) & (y < 0.0)):
        raise ValueError(f"y_target must be finite and negative, got {y_targets}")
    coeffs = np.array([_linear_coefficients(p) for p in params])
    B = float(coeffs[0, 0])
    if np.any(coeffs[:, 0] != B):
        raise ValueError("all parameter sets must share b")
    q1, q0 = coeffs[:, 1], coeffs[:, 2]

    radius = np.minimum(0.5, (0.5 * _SEED_GROWTH) ** 2 / (np.abs(q0) + np.sqrt(np.abs(q1))))
    inner = -y <= radius
    g, gp = _series_state(B, q0, q1, np.where(inner, y, -radius), _seed_tol(tol))

    t0, t_end = np.log(radius), np.log(-y)
    rtol = max(tol, _RTOL_FLOOR)
    size = max(1, int((rtol / _RTOL_FLOOR) ** 2))
    outer = np.flatnonzero(~inner & ~np.isnan(g))  # failed series stay NaN
    batches = [outer[i:i + size] for i in range(0, outer.size, size)]
    while batches:
        idx = batches.pop()
        result = _integrate(B, q0[idx], q1[idx], g[idx], gp[idx], t0[idx], t_end[idx], rtol)
        if result is not None:
            g[idx], gp[idx] = result
        elif idx.size > 1:
            batches.extend(idx[i:i + 1] for i in range(idx.size))
        else:
            g[idx] = gp[idx] = np.nan
    return g, gp


def heun_continue_path(p: HeunParams, y_targets, tol: float = 1e-10) -> np.ndarray:
    """Values of the physical branch of one energy at many targets y < 0.

    The one-energy case of heun_continue_batch; raises HeunEvaluationError
    if any target fails to evaluate.
    """
    y = np.asarray(y_targets, dtype=float)
    g, _ = heun_continue_batch([p] * y.size, y, tol)
    failed = y.reshape(-1)[np.isnan(g)]
    if failed.size:
        raise HeunEvaluationError(
            f"continuation to y = {failed[0]} failed ({failed.size} of {g.size} targets): "
            f"the series needs more than {SERIES_MAX_TERMS} terms or overflows, "
            f"or the integrator failed"
        )
    return g.reshape(y.shape)


def heun_continue(p: HeunParams, y_target: float, tol: float = 1e-10) -> float:
    """Value of the physical branch at one target y_target < 0."""
    return float(heun_continue_path(p, [y_target], tol)[0])
