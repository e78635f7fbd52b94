"""References for the physical Heun branch: textbook series, 50-digit series, term-by-term seed.

The evaluator (gupheun.heun) uses none of these; they serve as independent
checks of it.  Energies are given as (B, q0, q1) of heun.heun_coefficients;
coefficients and one_energy are the one-energy calls of the map and the
evaluator that tests share.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from gupheun import heun

SERIES_RADIUS_LIMIT = 0.9
SERIES_MAX_TERMS = 10_000


def coefficients(kappa, ell, omega):
    """(B, q0, q1) of one energy as floats, from heun.heun_coefficients."""
    B, q0, q1 = heun.heun_coefficients(kappa, ell, np.array([omega]))
    return B, float(q0[0]), float(q1[0])


def one_energy(energy, y, tol=1e-10):
    """(g, g') of heun.heun_continue_arrays for one energy (B, q0, q1) at every target y.

    Raises HeunEvaluationError where a target comes back NaN.
    """
    B, q0, q1 = energy
    y = np.atleast_1d(np.asarray(y, dtype=float))
    g, gp = heun.heun_continue_arrays(B, np.full(y.size, q0), np.full(y.size, q1), y, tol)
    if np.isnan(g).any():
        raise heun.HeunEvaluationError(f"no value at y = {y[np.isnan(g)][0]}")
    return g, gp


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


def heun_series(B, q0, q1, tol=1e-12, radius=0.5) -> HeunSeries:
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

    coeffs = [1.0, q0 / (B + 1.0)]
    abs_sum = 1.0 + abs(coeffs[1]) * radius
    consecutive_small = 0
    n = 1
    while consecutive_small < 3:
        if n >= SERIES_MAX_TERMS:
            raise heun.HeunEvaluationError(
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


def heun_second_derivative(B, q0, q1, y, g, gp):
    """g'' of the physical branch at y given (g, g'), straight from the equation.

    y must avoid 0 and 1.
    """
    return -(((B + 1.0) / y + 2.0 / (y - 1.0)) * gp + (q1 * y + q0) / (y * (y - 1.0)) * g)


def heun_oracle(kappa, ell, omega, y=None):
    """Frobenius series of the physical branch at y, to 50 digits.

    Sums the three-term recurrence of heun_series directly at y, which
    must satisfy |y| < 1; the default is the spectral point
    y* = (Omega-1)/Omega, computed in 50 digits (|y*| < 1 means omega > 1/4).
    """
    with mpmath.workdps(50):
        big = 2 * mpmath.mpf(omega)
        eps = 1 - big
        b = ell + mpmath.mpf(1) / 2
        d = kappa * big / eps**2
        q0 = kappa / eps + b + 1
        y = (big - 1) / big if y is None else mpmath.mpf(y)
        if not abs(y) < 1:
            raise ValueError(f"the series needs |y| < 1, got {y}")
        prev, term = mpmath.mpf(1), q0 / (b + 1) * y
        total, n, small = prev + term, 1, 0
        while small < 3:
            prev, term = term, ((n * (n + b + 2) + q0) * term + d * y * prev) * y \
                / ((n + 1) * (n + b + 1))
            total += term
            n += 1
            small = small + 1 if abs(term) < mpmath.mpf(10) ** -45 * abs(total) else 0
        return total


def series_state_reference(B, q0, q1, z, tol):
    """heun._series_state as a loop that applies the stopping rule after every term.

    The evaluator applies it once per block of terms; both must give the same
    bits.  Like the evaluator it stops only on the rule: a row whose terms
    overflow never stops.
    """
    g = np.empty(z.size)
    gp = np.empty(z.size)
    active = np.arange(z.size)
    w_prev = np.ones(z.size)
    w = q0 * z / (B + 1.0)
    value = 1.0 + w
    slope = w.copy()  # sum of n * w_n
    abs_sum = 1.0 + np.abs(w)
    small = np.zeros(z.size, dtype=int)
    n = 1
    while active.size:
        w_prev, w = w, ((n * (n + B + 2.0) + q0) * w + q1 * z * w_prev) * z \
            / ((n + 1.0) * (n + B + 1.0))
        n += 1
        value += w
        slope += n * w
        term = np.abs(w)
        abs_sum += term
        small = np.where((n * n + 1.0) * term < tol * abs_sum, small + 1, 0)
        done = small >= 3
        if done.any():
            finished = active[done]
            g[finished] = value[done]
            gp[finished] = slope[done] / z[done]
            keep = ~done
            active, q0, q1, z = active[keep], q0[keep], q1[keep], z[keep]
            w_prev, w, value, slope = w_prev[keep], w[keep], value[keep], slope[keep]
            abs_sum, small = abs_sum[keep], small[keep]
    return g, gp


def no_far_field(B, q0, q1, t_end, tol):
    """heun._far_field with the stretch switched off: every energy keeps its panel-only path."""
    return np.full(q0.size, np.inf), np.full(q0.size, np.inf)


def envelope(B, y, u, du):
    """The largest |(u, u')| of each energy so far, carried by the decay of the Wronskian.

    Every solution shares the factor exp(-int P/2) = e^(-B t/2)/(1 + e^t)
    of the Wronskian's square root, so an error made upstream stays that
    small relative to it; the decay-free size never shrinks.
    """
    t = np.log(-y)
    decay = -0.5 * (B * t + 2.0 * np.logaddexp(0.0, t))
    size = np.log(np.hypot(u, du)) - decay
    return np.exp(np.maximum.accumulate(size, axis=1) + decay)
