"""References for the physical Heun branch: a 50-digit series and the term-by-term seed loop."""

import mpmath
import numpy as np

from gupheun import heun


def heun_oracle(kappa, ell, omega, y=None):
    """Frobenius series of the physical branch at y, to 50 digits.

    Sums the three-term recurrence of heun.heun_series directly at y, which
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
    bits.  Reads heun.SERIES_MAX_TERMS at call time, as the evaluator does.
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
    while active.size and n < heun.SERIES_MAX_TERMS:
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
