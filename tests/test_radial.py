"""Radial profile, coordinate map, and asymptotics tests."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from gupheun.heun import CouplingConfig, EnergyPoint, heun_continue, heun_params, heun_series
from gupheun.radial import (
    asymptotic_exponents,
    default_xi_grid,
    map_xi_to_y,
    wavefunction,
    xi_star,
)
from gupheun.spectral import spectral_function, spectral_point

from heun_oracle import heun_oracle


class TestCoordinateMap:
    def test_origin(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ep = EnergyPoint.from_omega(0.1)
        assert map_xi_to_y(0.0, cfg, ep) == 0.0

    def test_xi_star_lands_on_spectral_point(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            cfg = CouplingConfig(kappa=float(rng.uniform(0.05, 5.0)),
                                 ell=int(rng.integers(0, 3)))
            ep = EnergyPoint.from_omega(float(rng.uniform(1e-4, 0.49)))
            y = map_xi_to_y(xi_star(cfg, ep), cfg, ep)
            assert y == pytest.approx(spectral_point(ep), rel=1e-12)

    def test_xi_star_kappa2(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ep = EnergyPoint.from_omega(0.0167)
        assert xi_star(cfg, ep) == pytest.approx(9.788, abs=1e-3)

    def test_negative_xi_rejected(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ep = EnergyPoint.from_omega(0.1)
        with pytest.raises(ValueError):
            map_xi_to_y(-1.0, cfg, ep)


class TestAsymptoticExponents:
    def test_l0(self):
        exps = asymptotic_exponents(CouplingConfig(kappa=2.0, ell=0),
                                    EnergyPoint.from_omega(0.1))
        assert (exps.s_minus, exps.s_plus) == (-1.0, 0.0)

    def test_exponent_gap(self):
        for ell in (0, 1, 3):
            exps = asymptotic_exponents(CouplingConfig(kappa=1.0, ell=ell),
                                        EnergyPoint.from_omega(0.2))
            assert exps.s_plus - exps.s_minus == 2 * ell + 1

    def test_rate_value(self):
        exps = asymptotic_exponents(CouplingConfig(kappa=2.0, ell=0),
                                    EnergyPoint.from_omega(0.1))
        assert exps.farfield_rate == pytest.approx(math.sqrt(0.5 / 0.8), rel=1e-14)

    def test_rate_shallow_limit(self):
        exps = asymptotic_exponents(CouplingConfig(kappa=2.0, ell=0),
                                    EnergyPoint.from_omega(1e-6))
        assert exps.farfield_rate == pytest.approx(math.sqrt(5e-6), rel=1e-5)

    def test_rate_against_direct_integration(self):
        # independent oracle: integrate the full deformed radial equation in
        # xi units backward from the asymptotic zone and measure the log slope
        # of u = xi*R beyond the turning point xi*
        kappa, omega, ell = 2.0, 0.1, 0
        rate = asymptotic_exponents(CouplingConfig(kappa, ell),
                                    EnergyPoint.from_omega(omega)).farfield_rate

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
        ep = EnergyPoint.from_omega(0.02)
        for ell in (0, 1, 2):
            cfg = CouplingConfig(kappa=2.0, ell=ell)
            profile = wavefunction(cfg, ep, default_xi_grid(cfg, ep, n=200))
            assert _log_slope(profile, 1e-3, 1e-2) == pytest.approx(ell, abs=1e-2)

    def test_branch_never_depends_on_coupling(self):
        # the regularized problem keeps the xi^ell branch for every kappa,
        # weak or strong
        ep = EnergyPoint.from_omega(0.02)
        for kappa in (0.05, 0.0625, 0.75, 2.0, 10.0):
            cfg = CouplingConfig(kappa=kappa, ell=0)
            profile = wavefunction(cfg, ep, default_xi_grid(cfg, ep, n=150))
            assert _log_slope(profile, 1e-3, 1e-2) == pytest.approx(0.0, abs=1e-2)

    def test_series_continuation_overlap_band(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ep = EnergyPoint.from_omega(0.05)
        params = heun_params(cfg, ep)
        series = heun_series(params, tol=1e-14, radius=0.9)
        for y in (-0.55, -0.65, -0.75, -0.85):
            direct = series.value(y)
            continued = heun_continue(params, y, tol=1e-12)
            assert continued == pytest.approx(direct, rel=1e-8)

    def test_strong_coupling_profile_against_oracle(self):
        # at kappa = 100 a series summed at y = -0.5 cancels away its digits;
        # every grid point must still match a 50-digit sum of the series
        cfg = CouplingConfig(kappa=100.0, ell=0)
        ep = EnergyPoint.from_omega(0.3)
        profile = wavefunction(cfg, ep, default_xi_grid(cfg, ep))
        y = map_xi_to_y(profile.xi, cfg, ep)
        scale = np.max(np.abs(profile.values))
        picks = list(range(0, 380, 19)) + list(range(380, 400))
        assert np.abs(y[picks]).max() > 0.9
        for i in picks:
            ref = float(profile.xi[i] ** cfg.ell * (1 - y[i]) * heun_oracle(100.0, 0, 0.3, y[i]))
            assert abs(profile.values[i] - ref) < 1e-8 * scale

    def test_grid_through_origin(self):
        ep = EnergyPoint.from_omega(0.1)
        grid = np.linspace(0.0, 2.0, 9)
        for ell, r0 in ((0, 1.0), (1, 0.0)):
            profile = wavefunction(CouplingConfig(kappa=2.0, ell=ell), ep, grid)
            assert profile.values[0] == r0
            assert np.all(profile.values[1:] != 0.0)

    def test_profile_vanishes_at_xi_star_on_eigenvalue(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        root = brentq(lambda w: spectral_function(cfg, w, tol=1e-10),
                      0.0165, 0.017, xtol=1e-12)
        ep = EnergyPoint.from_omega(root)
        xs = xi_star(cfg, ep)
        grid = np.unique(np.append(default_xi_grid(cfg, ep, n=200), xs))
        profile = wavefunction(cfg, ep, grid)
        r_at_star = profile.values[np.searchsorted(grid, xs)]
        assert abs(r_at_star) < 1e-4 * np.max(np.abs(profile.values))
        assert profile.non_decaying is False

    def test_non_eigenvalue_does_not_decay(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ep = EnergyPoint.from_omega(0.004)
        profile = wavefunction(cfg, ep, default_xi_grid(cfg, ep, n=200))
        assert profile.non_decaying is True

    def test_grid_validation(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ep = EnergyPoint.from_omega(0.1)
        with pytest.raises(ValueError):
            wavefunction(cfg, ep, np.array([0.5, 0.4, 0.6]))
        with pytest.raises(ValueError):
            wavefunction(cfg, ep, np.array([-0.1, 0.2]))

    def test_flag_needs_grid_reaching_xi_star(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ep = EnergyPoint.from_omega(0.01)
        profile = wavefunction(cfg, ep, np.linspace(0.1, 1.0, 30))
        with pytest.raises(ValueError):
            profile.non_decaying
