"""Radial profile, coordinate map, and asymptotics tests."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from gupheun import radial, spectral
from gupheun.heun import CouplingConfig, heun_coefficients, heun_continue_arrays
from gupheun.radial import (
    default_xi_grid,
    map_xi_to_y,
    wavefunction,
    xi_star,
)

from heun_oracle import coefficients, heun_oracle, heun_series, one_energy


class TestCoordinateMap:
    def test_origin(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omega = 0.1
        assert map_xi_to_y(0.0, cfg, omega) == 0.0

    def test_xi_star_lands_on_spectral_point(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            cfg = CouplingConfig(kappa=float(rng.uniform(0.05, 5.0)),
                                 ell=int(rng.integers(0, 3)))
            omega = float(rng.uniform(1e-4, 0.49))
            y = map_xi_to_y(xi_star(cfg, omega), cfg, omega)
            assert y == pytest.approx(spectral._spectral_points(omega), rel=1e-12)

    def test_xi_star_kappa2(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omega = 0.0167
        assert xi_star(cfg, omega) == pytest.approx(9.788, abs=1e-3)

    def test_negative_xi_rejected(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omega = 0.1
        with pytest.raises(ValueError):
            map_xi_to_y(-1.0, cfg, omega)


@dataclass(frozen=True)
class AsymptoticExponents:
    """Local exponents at the origin and the far-field decay rate in xi units."""

    s_minus: float
    s_plus: float
    farfield_rate: float

    def __post_init__(self):
        if self.s_plus - self.s_minus != 2.0 * self.s_plus + 1.0:
            raise ValueError("exponents must satisfy s_plus - s_minus = 2*ell + 1")
        if not (math.isfinite(self.farfield_rate) and self.farfield_rate > 0):
            raise ValueError("farfield_rate must be finite and positive")


def asymptotic_exponents(cfg: CouplingConfig, omega: float) -> AsymptoticExponents:
    """Indicial exponents (-1-ell, ell) and decay rate sqrt(5w/(1-2w))."""
    return AsymptoticExponents(
        s_minus=-1.0 - cfg.ell,
        s_plus=float(cfg.ell),
        farfield_rate=math.sqrt(5.0 * omega / (1.0 - 2.0 * omega)),
    )


class TestAsymptoticExponents:
    def test_l0(self):
        exps = asymptotic_exponents(CouplingConfig(kappa=2.0, ell=0), 0.1)
        assert (exps.s_minus, exps.s_plus) == (-1.0, 0.0)

    def test_exponent_gap(self):
        for ell in (0, 1, 3):
            exps = asymptotic_exponents(CouplingConfig(kappa=1.0, ell=ell), 0.2)
            assert exps.s_plus - exps.s_minus == 2 * ell + 1

    def test_rate_value(self):
        exps = asymptotic_exponents(CouplingConfig(kappa=2.0, ell=0), 0.1)
        assert exps.farfield_rate == pytest.approx(math.sqrt(0.5 / 0.8), rel=1e-14)

    def test_rate_shallow_limit(self):
        exps = asymptotic_exponents(CouplingConfig(kappa=2.0, ell=0), 1e-6)
        assert exps.farfield_rate == pytest.approx(math.sqrt(5e-6), rel=1e-5)

    def test_rate_against_direct_integration(self):
        # independent oracle: integrate the full deformed radial equation in
        # xi units backward from the asymptotic zone and measure the log slope
        # of u = xi*R beyond the turning point xi*
        kappa, omega, ell = 2.0, 0.1, 0
        rate = asymptotic_exponents(CouplingConfig(kappa, ell), omega).farfield_rate

        def u_second(xi, u):
            prefactor = 1.0 - 2.0 * omega + 8.0 * kappa / (5.0 * xi**2)
            potential = 5.0 * omega - 4.0 * kappa / xi**2 \
                + prefactor * ell * (ell + 1) / xi**2
            return potential / prefactor * u

        xi_hi, xi_b, xi_a = 32.0, 24.0, 16.0  # xi* = 4 here
        sol = solve_ivp(lambda x, s: [s[1], u_second(x, s[0])],
                        (xi_hi, xi_a), [1.0, -rate], method="DOP853",
                        rtol=1e-10, atol=1e-12, t_eval=[xi_b, xi_a])
        assert sol.success
        slope = (math.log(abs(sol.y[0, 1])) - math.log(abs(sol.y[0, 0]))) / (xi_a - xi_b)
        assert abs(-slope - rate) / rate < 0.10


def _log_slope(profile, lo, hi):
    mask = (profile.xi >= lo) & (profile.xi <= hi)
    x = np.log(profile.xi[mask])
    y = np.log(np.abs(profile.values[mask]))
    return np.polyfit(x, y, 1)[0]


class TestWavefunction:
    def test_near_origin_power_law(self):
        omega = 0.02
        for ell in (0, 1, 2):
            cfg = CouplingConfig(kappa=2.0, ell=ell)
            profile = wavefunction(cfg, omega, default_xi_grid(cfg, omega, n=200))
            assert _log_slope(profile, 1e-3, 1e-2) == pytest.approx(ell, abs=1e-2)

    def test_branch_never_depends_on_coupling(self):
        # the regularized problem keeps the xi^ell branch for every kappa,
        # weak or strong
        omega = 0.02
        for kappa in (0.05, 0.0625, 0.75, 2.0, 10.0):
            cfg = CouplingConfig(kappa=kappa, ell=0)
            profile = wavefunction(cfg, omega, default_xi_grid(cfg, omega, n=150))
            assert _log_slope(profile, 1e-3, 1e-2) == pytest.approx(0.0, abs=1e-2)

    def test_series_continuation_overlap_band(self):
        energy = coefficients(2.0, 0, 0.05)
        series = heun_series(*energy, tol=1e-14, radius=0.9)
        for y in (-0.55, -0.65, -0.75, -0.85):
            direct = series.value(y)
            (continued,), _ = one_energy(energy, [y], tol=1e-12)
            assert continued == pytest.approx(direct, rel=1e-8)

    def test_strong_coupling_profile_against_oracle(self):
        # at kappa = 100 a series summed at y = -0.5 cancels away its digits;
        # every grid point must still match a 50-digit sum of the series
        cfg = CouplingConfig(kappa=100.0, ell=0)
        omega = 0.3
        profile = wavefunction(cfg, omega, default_xi_grid(cfg, omega))
        y = map_xi_to_y(profile.xi, cfg, omega)
        scale = np.max(np.abs(profile.values))
        picks = list(range(0, 380, 19)) + list(range(380, 400))
        assert np.abs(y[picks]).max() > 0.9
        for i in picks:
            ref = float(profile.xi[i] ** cfg.ell * (1 - y[i]) * heun_oracle(100.0, 0, 0.3, y[i]))
            assert abs(profile.values[i] - ref) < 1e-8 * scale

    def test_grid_through_origin(self):
        omega = 0.1
        grid = np.linspace(0.0, 2.0, 9)
        for ell, r0 in ((0, 1.0), (1, 0.0)):
            profile = wavefunction(CouplingConfig(kappa=2.0, ell=ell), omega, grid)
            assert profile.values[0] == r0
            assert np.all(profile.values[1:] != 0.0)

    def test_profile_vanishes_at_xi_star_on_eigenvalue(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omega = brentq(lambda w: spectral._spectral_values(cfg, np.array([w]), 1e-10)[0],
                       0.0165, 0.017, xtol=1e-12)
        xs = xi_star(cfg, omega)
        grid = np.unique(np.append(default_xi_grid(cfg, omega, n=200), xs))
        profile = wavefunction(cfg, omega, grid)
        r_at_star = profile.values[np.searchsorted(grid, xs)]
        assert abs(r_at_star) < 1e-4 * np.max(np.abs(profile.values))
        assert profile.non_decaying is False

    def test_non_eigenvalue_does_not_decay(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omega = 0.004
        profile = wavefunction(cfg, omega, default_xi_grid(cfg, omega, n=200))
        assert profile.non_decaying is True

    def test_grid_validation(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omega = 0.1
        with pytest.raises(ValueError):
            wavefunction(cfg, omega, np.array([0.5, 0.4, 0.6]))
        with pytest.raises(ValueError):
            wavefunction(cfg, omega, np.array([-0.1, 0.2]))

    def test_default_grid_needs_xi_star_beyond_its_start(self):
        # a tiny kappa at a large omega puts 1.2*xi* below the 1e-3 start
        cfg = CouplingConfig(kappa=1e-8, ell=0)
        omega = 0.4
        with pytest.raises(ValueError, match=r"1\.2\*xi\* = 0\.00017 .* grid start 0\.001"):
            default_xi_grid(cfg, omega)

    def test_grid_short_of_xi_star_gets_the_default_flag(self):
        for omega, flag in ((0.004, True), (0.0167, False)):
            cfg = CouplingConfig(kappa=2.0, ell=0)
            short = wavefunction(cfg, omega, np.linspace(0.1, 1.0, 30))
            assert short.non_decaying is flag
            assert wavefunction(cfg, omega, default_xi_grid(cfg, omega)).non_decaying is flag

    def test_flag_does_not_depend_on_the_grid(self):
        # 50 log-spaced points often leave no point in [0.45, 0.55]*xi* or
        # [0.9, 1.0]*xi*; the flag is valued at its own radii
        rng = np.random.default_rng(49)
        for _ in range(20):
            cfg = CouplingConfig(kappa=float(np.exp(rng.uniform(np.log(0.75), np.log(100.0)))),
                                 ell=0)
            omega = float(np.exp(rng.uniform(np.log(1e-45), np.log(0.4))))
            flags = {wavefunction(cfg, omega, default_xi_grid(cfg, omega, n=n)).non_decaying
                     for n in (50, 100, 400, 4000)}
            assert len(flags) == 1, (cfg, omega)

    @pytest.mark.parametrize("kappa, ell, omega, n", [(2.0, 0, 0.004, 400), (10.0, 1, 1e-40, 50),
                                                      (100.0, 0, 0.3, 400), (2.0, 2, 0.0167, 7)])
    def test_values_are_the_kernel_on_the_grid_alone(self, kappa, ell, omega, n):
        # the flag's radii share the kernel call and must not move R by a bit
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        xi = default_xi_grid(cfg, omega, n=n)
        y = map_xi_to_y(xi, cfg, omega)
        B, q0, q1 = heun_coefficients(kappa, ell, np.full(n, omega))
        g, _ = heun_continue_arrays(B, q0, q1, y, tol=radial._PROFILE_TOL)
        profile = wavefunction(cfg, omega, xi)
        assert np.array_equal(profile.xi, xi)
        assert np.array_equal(profile.values, xi**ell * (1 - y) * g)
