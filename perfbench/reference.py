"""Independent reference evaluation of the physical confluent Heun branch.

The benchmark checks the program's outputs against values computed here, at
a tolerance 100x tighter than the program's, and without calling into
`gupheun`.  The equation and parameters are re-derived from the problem
(see the module docstring of `gupheun.heun`):

    a = 0, b = ell + 1/2 (physical branch), c = 1,
    d = kappa*Omega/eps^2, e = kappa/eps + 1/2, eps = 1 - Omega, Omega = 2*omega,

    g'' = -((b+1)/y + 2/(y-1)) g' - (d*y + q0) / (y*(y-1)) g,
    q0  = e + b/2 + (b+1)/2,

with the Frobenius series (normalized g(0) = 1) near the origin and DOP853
continuation in t = ln(-y) beyond a seed point.  At large kappa and omega
near 1/2 the series terms at |y| = 0.5 grow to ~exp(2*sqrt(d/2)) with
alternating signs, so the seed point moves inward until that growth stays
below SEED_GROWTH and the series sum keeps its digits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12  # the program integrates at 1e-10 (profiles) and 1e-8 (scans)
SERIES_TOL = 1e-17
SEED_POINT = -0.5
SEED_GROWTH = 8.0  # bound on 2*sqrt((|d| + |q0|) * |y_seed|)


class _Branch:
    """Series coefficients and ODE right-hand side for one (kappa, ell, omega)."""

    def __init__(self, kappa: float, ell: int, omega: float):
        big = 2.0 * omega
        eps = 1.0 - big
        self.b = ell + 0.5
        self.d = kappa * big / eps**2
        e = kappa / eps + 0.5
        self.q0 = e + 0.5 * self.b + 0.5 * (self.b + 1.0)
        growth = (SEED_GROWTH / 2.0) ** 2 / (abs(self.d) + abs(self.q0))
        self.seed = -min(-SEED_POINT, growth)
        self.coeffs = self._series(-self.seed)

    def _series(self, radius: float) -> np.ndarray:
        b, d, q0 = self.b, self.d, self.q0
        v = [1.0, q0 / (b + 1.0)]
        total, small, n = 1.0 + abs(v[1]) * radius, 0, 1
        while small < 4:
            nxt = ((n * (n - 1.0) + n * (b + 3.0) + q0) * v[n] + d * v[n - 1]) \
                / ((n + 1.0) * (n + b + 1.0))
            v.append(nxt)
            n += 1
            term = abs(nxt) * radius**n
            total += term
            small = small + 1 if (n * n + 1.0) * term < SERIES_TOL * total else 0
            if n > 20_000:
                raise RuntimeError("reference series did not converge")
        return np.asarray(v)

    def series(self, y: np.ndarray) -> np.ndarray:
        return np.polyval(self.coeffs[::-1], y)

    def series_derivative(self, y: float) -> float:
        k = np.arange(1, len(self.coeffs))
        return float(np.polyval((k * self.coeffs[1:])[::-1], y))

    def rhs(self, t: float, s: np.ndarray) -> list[float]:
        y = -math.exp(t)
        gpp = -(((self.b + 1.0) / y + 2.0 / (y - 1.0)) * s[1]
                + (self.d * y + self.q0) / (y * (y - 1.0)) * s[0])
        return [y * s[1], y * gpp]

    def continue_to(self, y_targets: np.ndarray) -> np.ndarray:
        """Branch values at targets y <= self.seed, by one DOP853 sweep."""
        t = np.log(-np.asarray(y_targets, dtype=float))
        order = np.argsort(t)
        start = [float(self.series(np.array(self.seed))), self.series_derivative(self.seed)]
        sol = solve_ivp(self.rhs, (math.log(-self.seed), float(t[order[-1]])), start,
                        method="DOP853", rtol=RTOL, atol=0.0, t_eval=t[order])
        if not sol.success:
            raise RuntimeError(f"reference continuation failed: {sol.message}")
        out = np.empty_like(t)
        out[order] = sol.y[0]
        return out


def spectral_value(kappa: float, ell: int, omega: float) -> float:
    """Hc at y* = (Omega-1)/Omega, the function whose zeros are the eigenvalues."""
    y_star = (2.0 * omega - 1.0) / (2.0 * omega)
    branch = _Branch(kappa, ell, omega)
    if y_star >= branch.seed:
        return float(branch.series(np.array(y_star)))
    return float(branch.continue_to(np.array([y_star]))[0])


def root_is_within(kappa: float, ell: int, omega: float, tol: float) -> bool:
    """True when the reference spectral function changes sign on [omega-tol, omega+tol]."""
    lo = spectral_value(kappa, ell, omega - tol)
    hi = spectral_value(kappa, ell, omega + tol)
    return lo * hi <= 0.0


def profile(kappa: float, ell: int, omega: float, xi: np.ndarray) -> np.ndarray:
    """R(xi) = xi^ell (1-y) Hc(y(xi)) with y = -(1-Omega)*5*xi^2/(8*kappa)."""
    xi = np.asarray(xi, dtype=float)
    y = -(1.0 - 2.0 * omega) * 5.0 * xi**2 / (8.0 * kappa)
    branch = _Branch(kappa, ell, omega)
    hc = np.empty_like(y)
    inner = y >= branch.seed
    hc[inner] = branch.series(y[inner])
    if np.any(~inner):
        hc[~inner] = branch.continue_to(y[~inner])
    return xi**ell * (1.0 - y) * hc


PROBE_OMEGAS = np.geomspace(0.3, 1e-4, 24)


def probe() -> None:
    """A fixed piece of work of the program's kind (Python RHS under DOP853).

    The benchmark times it between tasks to follow the speed of the host,
    which on a shared machine drifts by tens of percent over minutes.
    """
    for omega in PROBE_OMEGAS:
        spectral_value(2.0, 0, float(omega))
