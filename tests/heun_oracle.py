"""Independent 50-digit reference for the physical Heun branch inside the unit disk."""

import mpmath


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
