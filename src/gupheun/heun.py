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

Evaluation
----------
heun_coefficients maps (kappa, ell, omega) to the arrays (B, q0, q1).
heun_continue_arrays (values) and heun_zero_counts (zeros of g on (y, 0),
with the values) share one evaluator, _evaluate, which takes arrays of
(energy, target) pairs with targets y < 0 through these stages in order:

1. _series_state: one Frobenius-series pass gives the targets near the
   origin and seeds every distinct energy at _certified_radius.
2. _layout: each energy's path beyond its seed, in t = ln(-y), is cut into
   Chebyshev panels, and the far-field stretch of _far_field, where the
   path reaches it, into one far panel.
3. _solved_panels: every panel of every energy is solved at once
   (_panel_solutions) and halved while _unresolved; a far panel comes in
   closed form (_far_step).
4. _start_states: prefix products of each energy's 2 x 2 transfer matrices
   carry its seed to the start of every panel.
5. _continue: each target is read from its panel (_interpolate, or
   _far_step inside a far panel); a count adds up the angle each panel's
   basis solutions turn through (_turns, _phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

SERIES_MAX_TERMS = 10_000
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
_FAR_NEWTON = 4  # Newton steps for the length of the far-field stretch (_far_field)


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

    big_omega = 2*omega; bound states require omega in (0, 1/2) so that
    epsilon = 1 - big_omega stays positive.
    """

    omega: float

    def __post_init__(self):
        if not (0.0 < self.omega < 0.5):
            raise ValueError(f"omega must lie in (0, 1/2), got {self.omega}")

    @property
    def big_omega(self) -> float:
        return 2.0 * self.omega

    @classmethod
    def from_omega(cls, omega: float) -> "EnergyPoint":
        return cls(omega=float(omega))


def heun_coefficients(kappa, ell: int, omega: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(B, q0, q1) of heun_continue_arrays at every omega; kappa is one value or one per omega.

    B = ell + 1/2, q1 = d and q0 = e + B + 1/2 with d and e of the module
    docstring.  epsilon^2 goes through float_power, which calls the C
    library's pow as Python's ** does, so each value has the bits of those
    formulas in Python floats; np.square can round differently.  Raises
    ValueError for an omega outside (0, 1/2) or a d or e that is not finite.
    """
    invalid = ~((0.0 < omega) & (omega < 0.5))
    if invalid.any():
        raise ValueError(f"omega must lie in (0, 1/2), got {omega[invalid][0]}")
    big_omega = 2.0 * omega
    epsilon = 1.0 - big_omega
    with np.errstate(over="ignore"):  # as in Python floats; rejected just below
        d = kappa * big_omega / np.float_power(epsilon, 2.0)
        e = kappa / epsilon + 0.5
    invalid = ~(np.isfinite(d) & np.isfinite(e))
    if invalid.any():
        name = "e" if np.isfinite(d[invalid][0]) else "d"
        raise ValueError(f"parameter {name} must be finite")
    B = 0.5 + ell
    return B, e + B + 0.5, d


def _seed_tol(tol: float) -> float:
    return min(max(tol * 1e-3, 1e-15), 1e-9)


def _series_state(B: float, q0: np.ndarray, q1: np.ndarray, z: np.ndarray,
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, g') of every energy's Frobenius series at its own point z_i; NaN where it fails.

    Substituting sum(v_n y^n), v_0 = 1, into the equation gives the
    three-term recurrence

        (n+1)(n+B+1) v_{n+1} = [n(n+B+2) + q0] v_n + q1 v_{n-1},

    run here on the scaled terms w_n = v_n z^n of all energies at once.  An
    energy stops once three consecutive terms drop below tol relative to the
    accumulated absolute sum, with an n^2 weight on the term so that the
    residual of the truncated polynomial in the equation is bounded by tol
    as well, not only the value.  It fails when a term stops being finite or
    it needs more than SERIES_MAX_TERMS coefficients.  The terms come _SERIES_BLOCK at a time;
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


def _certified_radius(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """|y| = 1/(4s), s = 1 + |q0| + sqrt|q1|, within which g > 0: every energy's seed.

    There the recurrence of _series_state bounds each term |v_n y^n|, n >= 2,
    by 0.32 times the larger of the two before it, so the terms after
    v_0 = 1 add up to less than 1/2: the series' absolute sum certifies
    |g - 1| < 1, and g has no zero on (-1/(4s), 0), which seeds a zero
    count at 0.  No term exceeds v_0, so the sum loses no digits to
    cancellation, and it converges within a block or two of terms.
    """
    return 0.25 / (1.0 + np.abs(q0) + np.sqrt(np.abs(q1)))


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


def _rate(B: float, abs_q0: np.ndarray, abs_q1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A bound on how fast u grows or oscillates near t, increasing in t; takes |q0| and |q1|.

    With frozen coefficients u ~ exp(r t), r^2 + P r + Q = 0, so
    |r| <= (2/sqrt(3)) sqrt(P^2 + |Q|), and on y < 0 0 < P < B + 2 and
    |Q| <= e (|q0| + |q1| e)/(1 + e).
    """
    e = np.exp(t)
    return np.sqrt((B + 2.0) ** 2 + e * (abs_q0 + abs_q1 * e) / (1.0 + e))


def _far_field(B: float, q0: np.ndarray, q1: np.ndarray, t_end: np.ndarray,
               tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each energy's far-field stretch [t1, t2], crossed by one exp(A∞ s); inf where none.

    Far out, Y = (u, u') obeys Y' = (A∞ + E(t)) Y with
    A∞ = [[0, 1], [-q0, -(B+2)]] and E = [[0, 0], [-dQ, -dP]],
    dP = -2/(1+e^t), dQ = -(q0 + q1 e^(2t))/(1+e^t).  In the norm of
    (sigma u, u'), sigma = sqrt(q0):

    - |E(t)| <= a e^(-t) + b e^t, a = sqrt(4 + q0), b = q1/sigma;
    - |exp(A∞ s)| <= e^(-beta s) G(s), G(s) = e^(k s) (1 + c min(s, m)), from
      the form of _far_step, with beta = (B+2)/2, w^2 = q0 - beta^2,
      c = sigma + beta, k = sqrt(max(-w^2, 0)) and m = 1/sqrt|w^2|.

    To first order in E, exp(A∞ L) misses the transfer over [t1, t2 = t1 + L]
    by the integral of exp(A∞ (t2 - tau)) E(tau) Y(tau).  Measured as a
    panel's tail is, against the largest size of the solution, here
    e^(-beta L) times the largest e^(beta (tau - t1)) |Y(tau)| of the
    stretch, that is at most G(L) a e^(-t1) + e^(k L) J b e^(t2), where
    J = 1 + c (1 - e^(-m)) bounds the integral of e^(-s) (1 + c min(s, m)):
    a deviation near t1 is carried through the whole growth G(L), one near
    t2 only the short way.  Both terms are set to eta/2, eta = _tail_tol(tol),
    which gives (k + 1/2) L + ln(1 + c min(L, m))/2 = ln(eta/(2 sqrt(J a b))).
    Its left side is concave and increasing in L, so Newton from L = 0 stays
    below the root and every iterate is a valid length.  t1 >= ln(4/eta):
    an energy whose path ends before that, or with q0 <= 0 or q1 <= 0 (none
    in the spectral problem), gets no stretch.
    """
    t1 = np.full(q0.size, np.inf)
    t2 = np.full(q0.size, np.inf)
    eta = _tail_tol(tol)
    sel = np.flatnonzero((t_end > math.log(4.0 / eta)) & (q0 > 0.0) & (q1 > 0.0))
    if not sel.size:
        return t1, t2
    q0, q1 = q0[sel], q1[sel]
    beta = 0.5 * (B + 2.0)
    sigma = np.sqrt(q0)
    a, b, c = np.sqrt(4.0 + q0), q1 / sigma, sigma + beta
    w2 = q0 - beta * beta
    with np.errstate(divide="ignore"):
        m = 1.0 / np.sqrt(np.abs(w2))  # inf at w^2 = 0, where C I + S N = I + s N
    J = 1.0 - c * np.expm1(-m)
    rhs = np.log(eta / (2.0 * np.sqrt(J * a * b)))
    ok = rhs > 0.0
    sel, a, b, c, w2, m, J, rhs = (x[ok] for x in (sel, a, b, c, w2, m, J, rhs))
    k = np.sqrt(np.maximum(-w2, 0.0))
    L = np.zeros(sel.size)
    for _ in range(_FAR_NEWTON):
        excess = (k + 0.5) * L + 0.5 * np.log1p(c * np.minimum(L, m)) - rhs
        slope = k + 0.5 + np.where(L < m, 0.5 * c / (1.0 + c * L), 0.0)
        L -= excess / slope
    # G(L) a e^(-t1) = e^(k L) J b e^(t1 + L), both at most eta/2
    t1[sel] = 0.5 * (np.log((1.0 + c * np.minimum(L, m)) * a / (J * b)) - L)
    t2[sel] = t1[sel] + L
    return t1, t2


def _layout(B: float, q0: np.ndarray, q1: np.ndarray, t0: np.ndarray, t_end: np.ndarray,
            tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Panels (owner, ta, tb, far) from each energy's t0 until one ends beyond its t_end.

    On a panel of width h, exp(i*r*t) has Chebyshev coefficients
    2*J_k(r*h/2) ~ 2*(r*h/4)^k/k!; keeping rate*h below c holds the one at
    k = _NODES - 2 to _tail_tol(tol).  The width c/rate(ta + c/rate(ta))
    keeps h*rate(tb) <= c, since the rate increases.  A panel that would
    start inside its energy's far-field stretch [t1, t2] (_far_field) runs
    to t2 instead and is marked far: one closed-form transfer, no nodes.
    Panel j of an energy depends on nothing but (B, q0, q1, t0, tol), so an
    energy gets the same panels in any batch, and one that ends before its
    t1 gets the panels it would get without a stretch.  An energy stops after
    _MAX_PANELS panels even short of t_end.
    """
    k = _NODES - 2
    c = 4.0 * (0.5 * _tail_tol(tol) * math.factorial(k)) ** (1.0 / k)
    t1, t2 = _far_field(B, q0, q1, t_end, tol)
    stretched = bool(np.isfinite(t1).any())
    abs_q0, abs_q1 = np.abs(q0), np.abs(q1)
    owners, starts, ends, fars = [], [], [], []
    t = t0.copy()
    idx = np.flatnonzero(t0 < t_end)
    for _ in range(_MAX_PANELS):
        if not idx.size:
            break
        ta = t[idx]
        qa, qb = abs_q0[idx], abs_q1[idx]
        tb = ta + c / _rate(B, qa, qb, ta + c / _rate(B, qa, qb, ta))
        if stretched:
            # a far panel ends at t2, so the panel after it is no longer in [t1, t2)
            far = (t1[idx] <= ta) & (ta < t2[idx])
            tb[far] = t2[idx[far]]
            fars.append(far)
        owners.append(idx)
        starts.append(ta)
        ends.append(tb)
        t[idx] = tb
        idx = idx[tb <= t_end[idx]]
    owner = np.concatenate(owners)
    far = np.concatenate(fars) if stretched else np.zeros(owner.size, dtype=bool)
    return owner, np.concatenate(starts), np.concatenate(ends), far


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
    make them slightly negative.  A value that underflowed to 0 gives a NaN
    step, which fails the count of its target.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _far_step(B: float, q0: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(A∞ s) of _far_field as the ends (u_0, u_1, u_0', u_1') of a panel, and its turns.

    With beta = (B+2)/2 and N = A∞ + beta I, N^2 = -w^2 I, w^2 = q0 - beta^2
    = nu^2/4, so exp(A∞ s) = e^(-beta s) (C I + S N) with C = cos(w s),
    S = sin(w s)/w for w^2 > 0 and C = cosh(k s), S = sinh(k s)/k for
    w^2 = -k^2 < 0.  Written as e^((k - beta) s) times
    C = cos(w s) (1 + e^(-2 k s))/2 and S = s sinc(w s) (1 - e^(-2 k s))/(2 k s),
    with one of w and k zero, nothing overflows for any s >= 0 (k < beta as
    q0 > 0), and C and S tend to 1 and s as nu -> 0.  The second result is
    the angle of u_0 + i*u_1 = e^((k - beta) s) (C + beta S + i S) turned
    since s = 0, the _turns of the panel, which only zero counts read: it
    grows by pi each half period pi/w, where C I + S N = -I, and S >= 0 keeps
    it within [n pi, (n+1) pi], n = floor(w s/pi), so the phase advances by
    w = nu/2 per unit of t.  It is read from C and S alone, so a transfer
    that underflows keeps its angle.
    """
    beta = 0.5 * (B + 2.0)
    w2 = q0 - beta * beta
    w = np.sqrt(np.maximum(w2, 0.0))
    k = np.sqrt(np.maximum(-w2, 0.0))
    x = 2.0 * k * s
    with np.errstate(invalid="ignore", divide="ignore"):
        shrink = np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
    C = np.cos(w * s) * 0.5 * (1.0 + np.exp(-x))
    S = s * np.sinc(w * s / np.pi) * shrink
    angle = np.arctan2(S, C + beta * S)  # the turned angle up to a multiple of 2 pi
    middle = (np.floor(w * s / np.pi) + 0.5) * np.pi
    turns = angle + 2.0 * np.pi * np.round((middle - angle) / (2.0 * np.pi))
    grow = np.exp((k - beta) * s)
    C, S = grow * C, grow * S
    return np.stack((C + beta * S, S, -q0 * S, C - beta * S), axis=-1), turns


def _solved_panels(B: float, q0: np.ndarray, q1: np.ndarray, t0: np.ndarray,
                   t_end: np.ndarray, target_keys: np.ndarray, tol: float,
                   count: bool = False):
    """Every energy's panels from t0 to beyond t_end, solved and sorted by (energy, ta).

    The panels of all energies are solved together, _CHUNK at a time.  A
    panel that _unresolved flags is halved and its halves solved in the next
    round; one still flagged after _MAX_SPLITS halvings is set to NaN.
    target_keys holds the sorted keys energy + 1j*t of the targets: node
    values are kept only for panels that hold one.  A far panel of the
    layout is not solved: its ends and turns come in closed form
    (_far_step) and it has no nodes.  Returns (owner, ta, tb, ends, row,
    nodes, turns, far): ends (panels, 4) are the basis solutions at tb, and
    a panel holding a target has its node values in nodes[row], other panels
    row -1, so _continue reads each target from nodes[row] of its panel.
    With count, turns holds each panel's _turns at tb; otherwise it is
    empty.
    """
    owner, ta, tb, far = _layout(B, q0, q1, t0, t_end, tol)
    done = []
    if far.any():
        o, a, b = owner[far], ta[far], tb[far]
        ends, turns = _far_step(B, q0[o], b - a)
        done.append((o, a, b, ends, np.zeros(o.size, dtype=bool), np.empty((0, _NODES, 4)),
                     turns if count else np.empty(0), np.ones(o.size, dtype=bool)))
        owner, ta, tb = owner[~far], ta[~far], tb[~far]
    pending = owner, ta, tb
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
                         values[keep][held], turns, np.zeros(held.size, dtype=bool)))
            mid = 0.5 * (a[split] + b[split])
            halves.append((np.tile(o[split], 2), np.concatenate((a[split], mid)),
                           np.concatenate((mid, b[split]))))
        pending = tuple(np.concatenate(x) for x in zip(*halves))
        if not pending[0].size:
            break
    owner, ta, tb, ends, held, nodes, turns, far = (np.concatenate(x) for x in zip(*done))
    order = np.lexsort((ta, owner))
    row = np.where(held, np.cumsum(held) - 1, -1)
    return (owner[order], ta[order], tb[order], ends[order], row[order], nodes,
            turns[order] if count else turns, far[order])


def _start_states(first: np.ndarray, ends: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """(u, u') at the start of every panel: its energy's seed through the panels before it.

    The panels are sorted by (energy, ta); first[p] is the index of the first
    panel of p's energy, whose seed is seed[p], and ends[p] = (a, b, c, d)
    the transfer matrix [[a, b], [c, d]] of panel p.  Inclusive prefix
    products of each energy's matrices come by doubling (Hillis & Steele,
    CACM 29 (1986) 1170): in the round of distance s, panel p absorbs the
    product that ends s panels earlier while that panel is of the same
    energy.  So log2 of the longest chain rounds replace one step per panel,
    a product depends on its own energy's panels only, and the memory stays
    that of the panel list.  A product that overflows turns the states after
    it into inf or NaN, the failure of their targets.
    """
    local = np.arange(first.size) - first
    a, b, c, d = (ends[:, k].copy() for k in range(4))
    p = np.flatnonzero(local >= 1)
    s = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while p.size:
            q = p - s
            ap, bp, cp, dp = a[p], b[p], c[p], d[p]
            aq, bq, cq, dq = a[q], b[q], c[q], d[q]
            a[p] = ap * aq + bp * cq
            b[p] = ap * bq + bp * dq
            c[p] = cp * aq + dp * cq
            d[p] = cp * bq + dp * dq
            s *= 2
            p = p[local[p] >= s]
        start = seed.copy()
        p = np.flatnonzero(local)
        u, du = seed[p].T
        start[p, 0] = a[p - 1] * u + b[p - 1] * du
        start[p, 1] = c[p - 1] * u + d[p - 1] * du
    return start


def _continue(B: float, q0: np.ndarray, q1: np.ndarray, t0: np.ndarray, seed: np.ndarray,
              owner: np.ndarray, t: np.ndarray, tol: float,
              count: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(u, u') at targets t_k of energies owner_k, from (u, u') = seed_i at t0_i.

    The path runs along the negative real axis, which holds no singularity,
    in t = ln(-y): spectral points (Omega-1)/Omega reach -1e4 and far beyond
    for shallow states, and the solution oscillates at a rate that stays
    bounded in t.  Every t_k lies beyond t0 of its energy.  Each seed is
    carried to the start of each of its panels by the prefix products of
    their 2 x 2 transfer matrices (_solved_panels, _start_states).  Each
    target is read in one pass from its own panel: the node values of the
    panel's basis solutions, combined with the panel's start state and
    interpolated at the target, or the closed form of a far panel at the
    target.  Targets that the layout did not reach, or beyond a non-finite
    panel, come back as NaN.  With count, the zeros of u in each panel
    follow from its start state and its _turns (see _phase), a cumulative
    sum over the energy's panels adds them up, and the second result holds
    the number of zeros in (t0, t_k] of each target, the turns up to the
    target read from the same node values; otherwise it is None.
    """
    t_end = np.full(t0.size, -np.inf)
    np.maximum.at(t_end, owner, t)
    # complex numbers sort by real part, then imaginary part: these keys
    # order targets and panels by energy, then by t
    keys = owner + 1j * t
    o, a, b, ends, row, nodes, turns, far = _solved_panels(B, q0, q1, t0, t_end,
                                                           np.sort(keys), tol, count)

    counts = np.bincount(o, minlength=t0.size)
    first = (np.cumsum(counts) - counts)[o]
    start = _start_states(first, ends, seed[o])
    out = np.full((t.size, 2), np.nan)
    zeros = None
    with np.errstate(over="ignore", invalid="ignore"):
        if count:
            # zeros of u in (t0, ta] of each panel; a non-finite panel or
            # state fails every target from it on, so its count can be 0
            inside = np.floor((turns + _phase(*start.T)) / np.pi)
            inside[~np.isfinite(inside)] = 0.0
            total = np.cumsum(inside) - inside  # integers, so the sums are exact
            before = total - total[first]
            zeros = np.full(t.size, np.nan)
        k = np.searchsorted(o + 1j * a, keys, side="right") - 1
        reached = t < b[k]
        stretch = reached & far[k]
        if stretch.any():
            # targets inside a far panel: its closed form at the target
            reached &= ~stretch
            j = k[stretch]
            s = t[stretch] - a[j]
            m, theta = _far_step(B, q0[o[j]], s)
            u, du = start[j].T
            out[stretch] = np.stack((m[:, 0] * u + m[:, 1] * du, m[:, 2] * u + m[:, 3] * du), 1)
            if count:
                zeros[stretch] = before[j] + np.floor((theta + _phase(u, du)) / np.pi)
        k = k[reached]
        x = (t[reached] - a[k]) / (0.5 * (b[k] - a[k])) - 1.0
        held = nodes[row[k]]  # the basis solutions at the nodes of each target's panel
        out[reached] = _interpolate(held[:, :, 0::2] * start[k, None, :1]
                                    + held[:, :, 1::2] * start[k, None, 1:], x)
        if count:
            # the angle at the target: unwrapped up to the node before it, plus one step
            node = np.searchsorted(_X, x, side="right") - 1
            at = np.arange(x.size)
            u = _interpolate(held[:, :, :2], x)
            theta = _turns(held)[at, node] + _angle_step(
                u[:, 0] + 1j * u[:, 1], held[at, node, 0] + 1j * held[at, node, 1])
            zeros[reached] = before[k] + np.floor((theta + _phase(*start[k].T)) / np.pi)
    return out, zeros


def _evaluate(B: float, q0: np.ndarray, q1: np.ndarray, y: np.ndarray, tol: float,
              count: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(g, g', zeros) of heun_continue_arrays; zeros is heun_zero_counts' or None.

    Every energy is seeded at _certified_radius, so a value does not depend
    on whether it is counted; count only adds the angles of the panels.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if y.size == 0:
        return np.empty(0), np.empty(0), np.empty(0) if count else None
    bad = y[~(np.isfinite(y) & (y < 0.0))]
    if bad.size:
        raise ValueError(f"y_target must be finite and negative, got {bad[0]} "
                         f"({bad.size} of {y.size} targets)")

    g = np.full(y.size, np.nan)
    gp = np.full(y.size, np.nan)
    inner = -y <= _certified_radius(q0, q1)
    outer = np.flatnonzero(~inner)
    # the distinct energies, sorted by q1 and then q0 (complex numbers sort so)
    energies, owner = np.unique(q1[outer] + 1j * q0[outer], return_inverse=True)
    e1, e0 = energies.real, energies.imag
    radius = _certified_radius(e0, e1)
    # one series pass: the inner targets at their own y, then each outer energy's seed
    m = np.count_nonzero(inner)
    sg, sgp = _series_state(B, np.concatenate((q0[inner], e0)), np.concatenate((q1[inner], e1)),
                            np.concatenate((y[inner], -radius)), _seed_tol(tol))
    g[inner], gp[inner] = sg[:m], sgp[:m]
    zeros = np.zeros(y.size) if count else None  # g > 0 inside the certified radius
    seeded = np.isfinite(sg[m:])[owner]  # failed series stay NaN
    if seeded.any():
        outer, owner = outer[seeded], owner[seeded]
        seed = np.stack((sg[m:], -radius * sgp[m:]), axis=1)
        u, passed = _continue(B, e0, e1, np.log(radius), seed, owner, np.log(-y[outer]), tol,
                              count)
        g[outer], gp[outer] = u[:, 0], u[:, 1] / y[outer]
        if count:
            zeros[outer] = passed
    failed = ~(np.isfinite(g) & np.isfinite(gp))
    g[failed] = gp[failed] = np.nan
    if count:
        zeros[failed] = np.nan
    return g, gp, zeros


def heun_continue_arrays(B: float, q0: np.ndarray, q1: np.ndarray, y: np.ndarray,
                         tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """(g, g') of the physical branch for energy (B, q0_k, q1_k) at target y_k < 0.

    (B, q0, q1) as given by heun_coefficients, with one 1-d entry per
    target; the same energy may appear many times.  Each distinct energy is
    seeded once by its Frobenius series at _certified_radius, where the
    series' terms cannot cancel.  Targets inside that radius are read
    straight from the series.  The others come from one chain of
    Chebyshev panels per energy in t = ln(-y) (_continue), with each panel's
    basis solutions resolved to tol by the size of their Chebyshev tail.  A
    value depends only on its energy, target and tol, not on the rest of the
    batch.  A target whose series or continuation fails comes back as NaN
    without affecting the others.
    """
    g, gp, _ = _evaluate(B, q0, q1, y, tol)
    return g, gp


def heun_zero_counts(B: float, q0: np.ndarray, q1: np.ndarray, y: np.ndarray,
                     tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of the physical branch of energy (B, q0_k, q1_k) on (y_k, 0), and g at y_k.

    The oscillation count by which Sturm-Liouville codes index eigenvalues
    (Bailey, Everitt & Zettl, ACM TOMS 27 (2001) 143): on the spectral
    line y* = (Omega-1)/Omega it drops by one at each eigenvalue as omega
    rises.  Arguments as for heun_continue_arrays, on the same seeds and
    panels.  g > 0 inside the seed radius, so the targets there have no
    zero, and every zero beyond it comes from the angle each panel's basis
    solutions turn through (_turns, _phase), or the phase a far panel
    advances by (_far_step), up to the target itself.  g, from the same
    panels, is heun_continue_arrays' g bit for bit.  Raises
    HeunEvaluationError if any count fails.
    """
    g, _, zeros = _evaluate(B, q0, q1, y, tol, count=True)
    failed = y[np.isnan(zeros)]
    if failed.size:
        raise HeunEvaluationError(
            f"zero count to y = {failed[0]} failed ({failed.size} of {y.size} targets): "
            f"a series or a continuation panel did not evaluate"
        )
    return zeros.astype(int), g
