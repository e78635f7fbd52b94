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
heun_continue_arrays is the one evaluator.  It takes arrays of (energy,
target) pairs, an energy being its (q0, q1) at a shared B, with targets
y < 0; heun_continue_batch is the same call on a list of HeunParams.  One
vectorised three-term recurrence evaluates the Frobenius series of every
target at |y| <= 0.5 (closer to the origin where the alternating terms would
cancel), and seeds each distinct energy there once.  It generates 16 terms
per step and then applies the sums and the stopping rule to the block, which
keeps the number of numpy calls per term small.  The other targets are
continued along the negative real axis, which contains no singularity, in
t = ln(-y): spectral points (Omega-1)/Omega reach -1e4 and far beyond for
shallow states, and the solution oscillates at a rate that stays bounded in
t.  The equation is linear, so each energy's path
is cut into Chebyshev panels, every panel of every energy is solved at once
as a linear system for its two basis solutions, and a walk over the panels'
2 x 2 transfer matrices carries each seed to its targets.  A value depends
only on its energy, target and tolerance, not on the rest of the batch.  A
spectral scan is one call with many energies, as is each root-refinement
iteration (one energy per open bracket); both pass arrays and build no
HeunParams.  A radial profile (heun_continue_path) is one call with one
energy and many targets, and heun_continue the one-target case.

heun_zero_counts runs the same series and panels to count the zeros of g on
(y, 0) for each target instead, the oscillation count that indexes the
eigenvalues: sign changes of the series sampled inside the seed radius, then
per panel the angle its basis solutions turn through, read against the start
state in the walk.  Only this entry point computes the angles.

heun_series (a coefficient list with Horner evaluation) and
heun_second_derivative (the equation itself) are the textbook forms; the
evaluator does not use them, and they serve as independent checks of it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

SERIES_MAX_TERMS = 10_000
SERIES_RADIUS_LIMIT = 0.9
# On y < 0 the series terms alternate in sign and peak near
# exp(2*sqrt((|q0| + sqrt|q1|)*|y|)); continuation is seeded where that
# stays below e^8, so the sum keeps about 12 of its 16 digits
_SEED_GROWTH = 8.0
# Continuation panels (_layout, _solved_panels): _NODES Chebyshev points
# each; a panel is halved while a basis solution's Chebyshev tail exceeds
# _TAIL_FRACTION * tol (never less than _TAIL_FLOOR, 100 times the roundoff
# of those coefficients), at most _MAX_SPLITS times
_NODES = 16
_TAIL_FRACTION = 0.1
_TAIL_FLOOR = 1e-14
_MAX_SPLITS = 20
_SERIES_BLOCK = 16  # recurrence terms between two applications of the stopping rule
_MAX_PANELS = 10_000  # laid per energy; targets beyond them come back NaN
_CHUNK = 128  # panels per batched linear solve; bounds the memory of one solve


class HeunEvaluationError(RuntimeError):
    """Series or continuation failure: too many terms, overflow or an unresolved panel."""


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
    SERIES_MAX_TERMS coefficients.  The terms come _SERIES_BLOCK at a time;
    the sums, the stopping rule and the retirement of finished energies are
    then applied to the whole block.  Cumulative sums add in the order of a
    term-by-term loop, so the result does not depend on the block length.
    """
    g = np.full(z.shape, np.nan)
    gp = np.full(z.shape, np.nan)
    active = np.arange(z.size)
    q1z = q1 * z
    w = q0 * z / (B + 1.0)
    last = np.stack((np.ones(z.size), w))  # w_{n-1} and w_n
    sums = np.stack((1.0 + w, w, 1.0 + np.abs(w)))  # value, sum of n * w_n, sum of |w_n|
    small = np.zeros((2, z.size), dtype=bool)  # the stopping test at n-1 and n
    n = 1
    # terms that overflow, of failed energies or past a finished one's stop, are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        while active.size and n < SERIES_MAX_TERMS:
            m = np.arange(n, min(n + _SERIES_BLOCK, SERIES_MAX_TERMS), dtype=float)
            num = (m * (m + B + 2.0))[:, None] + q0
            den = (m + 1.0) * (m + B + 1.0)
            w = np.empty((m.size + 2, active.size))
            w[:2] = last
            for i in range(m.size):
                w[i + 2] = (num[i] * w[i + 1] + q1z * w[i]) * z / den[i]
            n += m.size
            j = (m + 1.0)[:, None]  # the index n of each new term
            term = np.abs(w[2:])
            acc = np.empty((m.size + 1, 3, active.size))
            acc[0], acc[1:, 0], acc[1:, 1], acc[1:, 2] = sums, w[2:], j * w[2:], term
            acc = np.cumsum(acc, axis=0)[1:]
            small = np.concatenate((small, (j * j + 1.0) * term < tol * acc[:, 2]))
            done = small[2:] & small[1:-1] & small[:-2]
            stop = done | ~np.isfinite(term)
            stopped = stop.any(axis=0)
            hit = np.flatnonzero(stopped)
            at = stop[:, hit].argmax(axis=0)
            ok = done[at, hit]
            finished, at = hit[ok], at[ok]
            g[active[finished]] = acc[at, 0, finished]
            gp[active[finished]] = acc[at, 1, finished] / z[finished]
            keep = ~stopped
            active, q0, q1z, z = active[keep], q0[keep], q1z[keep], z[keep]
            last, sums, small = w[-2:, keep], acc[-1][:, keep], small[-2:, keep]
    return g, gp


def _seed_radius(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """|y| of each energy's series seed: 0.5, or closer in where the terms would cancel."""
    return np.minimum(0.5, (0.5 * _SEED_GROWTH) ** 2 / (np.abs(q0) + np.sqrt(np.abs(q1))))


def _chebyshev_tables(n: int):
    """Nodes x_j = -cos(pi j/(n-1)) on [-1, 1] and the matrices that act on node values.

    to_coef maps node values to the Chebyshev coefficients of their
    interpolant; int1 and int2 map them to its first and second integral from
    -1, at the nodes; weights are the barycentric interpolation weights.
    """
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    to_coef = np.linalg.inv(chebyshev.chebvander(x, n - 1))
    int1 = chebyshev.chebvander(x, n) @ chebyshev.chebint(to_coef, lbnd=-1)
    int2 = chebyshev.chebvander(x, n + 1) @ chebyshev.chebint(to_coef, m=2, lbnd=-1)
    weights = (-1.0) ** np.arange(n)
    weights[[0, -1]] *= 0.5
    return x, to_coef, int1, int2, weights


_X, _TO_COEF, _INT1, _INT2, _BARY = _chebyshev_tables(_NODES)


def _equation_coefficients(B: float, q0: np.ndarray, q1: np.ndarray,
                           t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) of u'' + P u' + Q u = 0, the equation of u(t) = g(-e^t)."""
    e = np.exp(t)
    r = e / (1.0 + e)
    return B + 2.0 * r, r * (q0 - q1 * e)


def _tail_tol(tol: float) -> float:
    """Largest Chebyshev tail of a resolved panel, relative to its node values."""
    return max(_TAIL_FRACTION * tol, _TAIL_FLOOR)


def _rate(B: float, q0: np.ndarray, q1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A bound on how fast u grows or oscillates near t, increasing in t.

    With frozen coefficients u ~ exp(r t), r^2 + P r + Q = 0, so
    |r| <= (2/sqrt(3)) sqrt(P^2 + |Q|), and on y < 0 0 < P < B + 2 and
    |Q| <= e (|q0| + |q1| e)/(1 + e).
    """
    e = np.exp(t)
    return np.sqrt((B + 2.0) ** 2 + e * (np.abs(q0) + np.abs(q1) * e) / (1.0 + e))


def _layout(B: float, q0: np.ndarray, q1: np.ndarray, t0: np.ndarray, t_end: np.ndarray,
            tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels (owner, ta, tb) from each energy's t0 until one ends beyond its t_end.

    On a panel of width h, exp(i*r*t) has Chebyshev coefficients
    2*J_k(r*h/2) ~ 2*(r*h/4)^k/k!; keeping rate*h below c holds the one at
    k = _NODES - 2 to _tail_tol(tol).  The width c/rate(ta + c/rate(ta))
    keeps h*rate(tb) <= c, since the rate increases.  Panel j of an energy
    depends on nothing but (B, q0, q1, t0, tol), so an energy gets the same
    panels in any batch.  An energy stops after _MAX_PANELS panels even short
    of t_end.
    """
    k = _NODES - 2
    c = 4.0 * (0.5 * _tail_tol(tol) * math.factorial(k)) ** (1.0 / k)
    owners, starts, ends = [], [], []
    t = t0.copy()
    idx = np.flatnonzero(t0 < t_end)
    for _ in range(_MAX_PANELS):
        if not idx.size:
            break
        ta = t[idx]
        qa, qb = q0[idx], q1[idx]
        tb = ta + c / _rate(B, qa, qb, ta + c / _rate(B, qa, qb, ta))
        owners.append(idx)
        starts.append(ta)
        ends.append(tb)
        t[idx] = tb
        idx = idx[tb <= t_end[idx]]
    return np.concatenate(owners), np.concatenate(starts), np.concatenate(ends)


def _panel_solutions(B: float, q0: np.ndarray, q1: np.ndarray, ta: np.ndarray,
                     tb: np.ndarray) -> np.ndarray:
    """Node values (u_0, u_1, u_0', u_1') of the two basis solutions on each panel.

    Basis solution c starts at ta with (u, u') = (1, 0) for c = 0 and (0, 1)
    for c = 1.  The unknown is v = u'' at the nodes (spectral integration,
    Greengard, SIAM J. Numer. Anal. 28 (1991) 1071): with s = (tb - ta)/2,
    u' = u'(ta) + s*I1 v and u = u(ta) + u'(ta)*(t - ta) + s^2*I2 v, so the
    equation becomes one N x N system per panel, (I + s P I1 + s^2 Q I2) v = rhs,
    with one right-hand side per basis solution.  Returns shape (panels, N, 4).
    """
    s = 0.5 * (tb - ta)[:, None]
    dt = s * (1.0 + _X)
    P, Q = _equation_coefficients(B, q0[:, None], q1[:, None], ta[:, None] + dt)
    A = (s * s * Q)[:, :, None] * _INT2
    A += (s * P)[:, :, None] * _INT1
    A.reshape(-1, _NODES * _NODES)[:, ::_NODES + 1] += 1.0
    v = np.linalg.solve(A, np.stack((-Q, -P - Q * dt), axis=-1))
    u = (s * s)[:, :, None] * (_INT2 @ v)
    du = s[:, :, None] * (_INT1 @ v)
    u[:, :, 0] += 1.0
    u[:, :, 1] += dt
    du[:, :, 1] += 1.0
    return np.concatenate((u, du), axis=-1)


def _unresolved(values: np.ndarray, tol: float) -> np.ndarray:
    """Panels where a basis solution's last two Chebyshev coefficients exceed the tolerance.

    Each of the four columns is measured against its own largest node value,
    at _TAIL_FRACTION * tol but not below the coefficients' roundoff.  A
    non-finite panel is not unresolved: splitting cannot mend it.
    """
    tail = np.abs(_TO_COEF[-2:] @ values).max(axis=1)
    scale = np.abs(values).max(axis=1)
    return (tail > _tail_tol(tol) * scale).any(axis=1)


def _interpolate(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of node values f (K, N, m) at one x_k in [-1, 1] each."""
    d = x[:, None] - _X
    hit = d == 0.0
    c = _BARY / np.where(hit, 1.0, d)
    out = (c[:, :, None] * f).sum(axis=1) / c.sum(axis=1)[:, None]
    k, j = np.nonzero(hit)
    out[k] = f[k, j]
    return out


def _angle_step(z: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """How far the angle of u_0 + i*u_1 turns from z0 to z, a later point of one panel.

    The angle crosses a multiple of pi/2 only at a zero of u_0 or u_1, and
    the zeros of each solution lie at least pi/_rate apart; the layout's
    rate*h <= c keeps nodes at most 0.11*c/rate apart, below that.  So a step
    passes at most one zero of each, less than 3*pi/2, and as the angle only
    increases (the basis' Wronskian keeps its sign) the step is the
    principal one moved into [-pi/2, 3*pi/2).  Steps near pi are common at
    strong coupling, where u_1 is small next to u_0; near 0 roundoff can
    make them slightly negative.
    """
    step = np.angle(z / z0)
    return np.where(step < -0.5 * np.pi, step + 2.0 * np.pi, step)


def _turns(values: np.ndarray) -> np.ndarray:
    """Angle of u_0 + i*u_1 at the nodes of each panel, unwrapped from 0 at ta (panels, N)."""
    z = values[:, :, 0] + 1j * values[:, :, 1]
    step = _angle_step(z[:, 1:], z[:, :-1])
    return np.concatenate((np.zeros((z.shape[0], 1)), np.cumsum(step, axis=1)), axis=1)


def _phase(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """(pi/2 - atan2(u', u)) mod pi for the start state (u, u') of a panel.

    u = u(ta)*u_0 + u'(ta)*u_1 vanishes where the angle of u_0 + i*u_1 is
    atan2(u', u) + pi/2 (mod pi), so a panel whose angle has turned by theta
    holds floor((theta + phase)/pi) zeros of u in (ta, ta + theta].
    """
    return np.mod(0.5 * np.pi - np.arctan2(du, u), np.pi)


def _solved_panels(B: float, q0: np.ndarray, q1: np.ndarray, t0: np.ndarray,
                   t_end: np.ndarray, target_keys: np.ndarray, tol: float,
                   count: bool = False):
    """Every energy's panels from t0 to beyond t_end, solved and sorted by (energy, ta).

    The panels of all energies are solved together, _CHUNK at a time.  A
    panel that _unresolved flags is halved and its halves solved in the next
    round; one still flagged after _MAX_SPLITS halvings is set to NaN.
    target_keys holds the sorted keys energy + 1j*t of the targets: node
    values are kept only for panels that hold one.  Returns (owner, ta, tb,
    ends, row, nodes, turns): ends (panels, 4) are the basis solutions at tb,
    and a panel holding a target has its node values in nodes[row], other
    panels row -1.  With count, turns holds each panel's _turns at tb;
    otherwise it is empty.
    """
    pending = _layout(B, q0, q1, t0, t_end, tol)
    done = []
    for depth in range(_MAX_SPLITS + 1):
        halves = []
        for lo in range(0, pending[0].size, _CHUNK):
            o, a, b = (x[lo:lo + _CHUNK] for x in pending)
            values = _panel_solutions(B, q0[o], q1[o], a, b)
            split = _unresolved(values, tol)
            if depth == _MAX_SPLITS:
                values[split] = np.nan
                split[:] = False
            keep = ~split
            held = (np.searchsorted(target_keys, o + 1j * b)
                    > np.searchsorted(target_keys, o + 1j * a))[keep]
            turns = _turns(values[keep])[:, -1] if count else np.empty(0)
            done.append((o[keep], a[keep], b[keep], values[keep, -1], held,
                         values[keep][held], turns))
            mid = 0.5 * (a[split] + b[split])
            halves.append((np.tile(o[split], 2), np.concatenate((a[split], mid)),
                           np.concatenate((mid, b[split]))))
        pending = tuple(np.concatenate(x) for x in zip(*halves))
        if not pending[0].size:
            break
    owner, ta, tb, ends, held, nodes, turns = (np.concatenate(x) for x in zip(*done))
    order = np.lexsort((ta, owner))
    row = np.where(held, np.cumsum(held) - 1, -1)
    return (owner[order], ta[order], tb[order], ends[order], row[order], nodes,
            turns[order] if count else turns)


def _continue(B: float, q0: np.ndarray, q1: np.ndarray, t0: np.ndarray, seed: np.ndarray,
              owner: np.ndarray, t: np.ndarray, tol: float,
              count: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(u, u') at targets t_k of energies owner_k, from (u, u') = seed_i at t0_i.

    Every t_k lies beyond t0 of its energy.  A walk over panel indices,
    vectorised over energies, carries each seed through its panels' 2 x 2
    transfer matrices (_solved_panels), and each target is read from the
    node values of its panel.  Targets that the layout did not reach, or
    beyond a non-finite panel, come back as NaN.  With count, the walk also
    adds up the zeros of u in each panel from its start state and its
    _turns (see _phase), and the second result holds the number of zeros in
    (t0, t_k] of each target; otherwise it is None.
    """
    t_end = np.full(t0.size, -np.inf)
    np.maximum.at(t_end, owner, t)
    # complex numbers sort by real part, then imaginary part: these keys
    # order targets and panels by energy, then by t
    keys = owner + 1j * t
    o, a, b, ends, row, nodes, turns = _solved_panels(B, q0, q1, t0, t_end, np.sort(keys),
                                                      tol, count)

    counts = np.bincount(o, minlength=t0.size)
    first = np.cumsum(counts) - counts
    start = np.empty((o.size, 2))
    state = seed.copy()
    out = np.full((t.size, 2), np.nan)
    zeros = np.full(t.size, np.nan) if count else None
    before = np.empty(o.size)  # zeros of u in (t0, ta] of each panel, with count
    passed = np.zeros(t0.size)
    # a state that overflows turns into NaN, the failure of its targets
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(counts.max()):
            active = np.flatnonzero(counts > j)
            p = first[active] + j
            u, du = state[active, 0], state[active, 1]
            start[p] = state[active]
            if count:
                before[p] = passed[active]
                passed[active] += np.floor((turns[p] + _phase(u, du)) / np.pi)
            state[active, 0] = ends[p, 0] * u + ends[p, 1] * du
            state[active, 1] = ends[p, 2] * u + ends[p, 3] * du
        # (u, u') at the nodes of each panel that holds a target, by row
        panel = np.empty(nodes.shape[0], dtype=int)
        panel[row[row >= 0]] = np.flatnonzero(row >= 0)
        solution = (nodes[:, :, 0::2] * start[panel, None, :1]
                    + nodes[:, :, 1::2] * start[panel, None, 1:])
        k = np.searchsorted(o + 1j * a, keys, side="right") - 1
        reached = t < b[k]
        k = k[reached]
        x = (t[reached] - a[k]) / (0.5 * (b[k] - a[k])) - 1.0
        out[reached] = _interpolate(solution[row[k]], x)
        if count:
            # the angle at the target: unwrapped up to the node before it, plus one step
            held = nodes[row[k]]
            node = np.searchsorted(_X, x, side="right") - 1
            at = np.arange(x.size)
            u = _interpolate(held[:, :, :2], x)
            theta = _turns(held)[at, node] + _angle_step(
                u[:, 0] + 1j * u[:, 1], held[at, node, 0] + 1j * held[at, node, 1])
            zeros[reached] = before[k] + np.floor((theta + _phase(*start[k].T)) / np.pi)
    return out, zeros


def _series_zeros(B: float, q0: np.ndarray, q1: np.ndarray, top: np.ndarray,
                  tol: float) -> np.ndarray:
    """Zeros of the series of energy (B, q0_k, q1_k) on (-top_k, 0); NaN where it fails.

    top_k lies within the energy's seed radius.  With s = 1 + |q0| + sqrt|q1|
    and |y| <= 1/(4s), the recurrence of heun_series bounds each term
    |v_n y^n|, n >= 2, by 0.32 times the larger of the two before it, so the
    terms after v_0 = 1 add up to less than 1/2: the series' absolute sum
    certifies |g - 1| < 1, and g > 0.  From that radius to top_k, g is
    sampled in t = ln(-y) no more than 1/_rate apart (zeros are at least
    pi/_rate apart), and its sign changes are counted; the last sample is
    g(-top_k) itself.
    """
    t_top = np.log(top)
    t_low = np.minimum(t_top, -np.log(4.0 * (1.0 + np.abs(q0) + np.sqrt(np.abs(q1)))))
    steps = np.ceil((t_top - t_low) * _rate(B, q0, q1, t_top)).astype(int)
    owner = np.repeat(np.arange(top.size), steps + 1)
    k = np.arange(owner.size) - np.repeat(np.cumsum(steps + 1) - (steps + 1), steps + 1)
    h = ((t_top - t_low) / np.maximum(steps, 1))[owner]
    g, _ = _series_state(B, q0[owner], q1[owner], -top[owner] * np.exp(-k * h), tol)
    change = (np.signbit(g[1:]) != np.signbit(g[:-1])) & (owner[1:] == owner[:-1])
    zeros = np.bincount(owner[1:][change], minlength=top.size).astype(float)
    zeros[np.bincount(owner, weights=np.isnan(g), minlength=top.size) > 0] = np.nan
    return zeros


def _evaluate(B: float, q0: np.ndarray, q1: np.ndarray, y: np.ndarray, tol: float,
              count: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(g, g', zeros) of heun_continue_arrays; zeros is heun_zero_counts' or None."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if y.size == 0:
        return np.empty(0), np.empty(0), np.empty(0) if count else None
    if not np.all(np.isfinite(y) & (y < 0.0)):
        raise ValueError(f"y_target must be finite and negative, got {y}")

    g = np.full(y.size, np.nan)
    gp = np.full(y.size, np.nan)
    inner = -y <= _seed_radius(q0, q1)
    outer = np.flatnonzero(~inner)
    # the distinct energies, sorted by q1 and then q0 (complex numbers sort so)
    energies, owner = np.unique(q1[outer] + 1j * q0[outer], return_inverse=True)
    e1, e0 = energies.real, energies.imag
    radius = _seed_radius(e0, e1)
    # one series pass: the inner targets at their own y, then each outer energy's seed
    m = np.count_nonzero(inner)
    sg, sgp = _series_state(B, np.concatenate((q0[inner], e0)), np.concatenate((q1[inner], e1)),
                            np.concatenate((y[inner], -radius)), _seed_tol(tol))
    g[inner], gp[inner] = sg[:m], sgp[:m]
    zeros = None
    if count:
        zeros = _series_zeros(B, q0, q1, np.minimum(-y, _seed_radius(q0, q1)), _seed_tol(tol))
    seeded = np.isfinite(sg[m:])[owner]  # failed series stay NaN
    if seeded.any():
        outer, owner = outer[seeded], owner[seeded]
        seed = np.stack((sg[m:], -radius * sgp[m:]), axis=1)
        u, passed = _continue(B, e0, e1, np.log(radius), seed, owner, np.log(-y[outer]), tol,
                              count)
        g[outer], gp[outer] = u[:, 0], u[:, 1] / y[outer]
        if count:
            zeros[outer] += passed
    failed = ~(np.isfinite(g) & np.isfinite(gp))
    g[failed] = gp[failed] = np.nan
    if count:
        zeros[failed] = np.nan
    return g, gp, zeros


def heun_continue_arrays(B: float, q0: np.ndarray, q1: np.ndarray, y: np.ndarray,
                         tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """(g, g') of the physical branch for energy (B, q0_k, q1_k) at target y_k < 0.

    The array form of heun_continue_batch, with (B, q1, q0) as given by
    _linear_coefficients and one 1-d entry per target; the same energy may
    appear many times.  Each distinct energy is seeded once by its Frobenius
    series at radius 0.5, or closer to the origin when its series terms
    would cancel there (see _SEED_GROWTH).  Targets inside the seed radius
    are read straight from the series.  The others come from one chain of
    Chebyshev panels per energy in t = ln(-y) (_continue), with each panel's
    basis solutions resolved to tol by the size of their Chebyshev tail.  A
    value depends only on its energy, target and tol, not on the rest of the
    batch.  A target whose series or continuation fails comes back as NaN
    without affecting the others.
    """
    g, gp, _ = _evaluate(B, q0, q1, y, tol)
    return g, gp


def heun_zero_counts(B: float, q0: np.ndarray, q1: np.ndarray, y: np.ndarray,
                     tol: float = 1e-10) -> np.ndarray:
    """Number of zeros of the physical branch of energy (B, q0_k, q1_k) on (y_k, 0).

    The oscillation count by which Sturm-Liouville codes index eigenvalues
    (Bailey, Everitt & Zettl, ACM TOMS 27 (2001) 143): on the spectral
    line y* = (Omega-1)/Omega it drops by one at each eigenvalue as omega
    rises.  Arguments as for heun_continue_arrays, on the same series and
    panels.  The zeros inside the seed radius come from sampling the
    series (_series_zeros), the ones beyond it from the angle each panel's
    basis solutions turn through (_turns, _phase), up to the target itself.
    Raises HeunEvaluationError if any count fails.
    """
    _, _, zeros = _evaluate(B, q0, q1, y, tol, count=True)
    failed = y[np.isnan(zeros)]
    if failed.size:
        raise HeunEvaluationError(
            f"zero count to y = {failed[0]} failed ({failed.size} of {y.size} targets): "
            f"a series or a continuation panel did not evaluate"
        )
    return zeros.astype(int)


def heun_continue_batch(params: Sequence[HeunParams], y_targets,
                        tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """(g, g') of the physical branch for many energies, each at its own y_target < 0.

    All params must share b (one ell); see heun_continue_arrays.
    """
    y = np.asarray(y_targets, dtype=float).reshape(-1)
    if len(params) != y.size:
        raise ValueError("need one parameter set per target")
    coeffs = np.array([_linear_coefficients(p) for p in params]).reshape(-1, 3)
    B, q1, q0 = coeffs.T
    if np.any(B != B[:1]):
        raise ValueError("all parameter sets must share b")
    return heun_continue_arrays(float(B[0]) if B.size else 0.0, q0, q1, y, tol)


def heun_continue_path(p: HeunParams, y_targets, tol: float = 1e-10) -> np.ndarray:
    """Values of the physical branch of one energy at many targets y < 0.

    The one-energy case of heun_continue_arrays; raises HeunEvaluationError
    if any target fails to evaluate.
    """
    y = np.asarray(y_targets, dtype=float)
    B, q1, q0 = _linear_coefficients(p)
    g, _ = heun_continue_arrays(B, np.full(y.size, q0), np.full(y.size, q1), y.reshape(-1), tol)
    failed = y.reshape(-1)[np.isnan(g)]
    if failed.size:
        raise HeunEvaluationError(
            f"continuation to y = {failed[0]} failed ({failed.size} of {g.size} targets): "
            f"the series needs more than {SERIES_MAX_TERMS} terms or overflows, "
            f"or a continuation panel overflows or stays unresolved"
        )
    return g.reshape(y.shape)


def heun_continue(p: HeunParams, y_target: float, tol: float = 1e-10) -> float:
    """Value of the physical branch at one target y_target < 0."""
    return float(heun_continue_path(p, [y_target], tol)[0])
