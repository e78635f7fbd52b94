"""Confluent Heun series and continuation tests."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gupheun.heun import (
    CouplingConfig,
    EnergyPoint,
    HeunEvaluationError,
    HeunParams,
    _linear_coefficients,
    heun_continue,
    heun_continue_batch,
    heun_continue_path,
    heun_params,
    heun_second_derivative,
    heun_series,
)
from gupheun.specfun import hyp2f1, hyp2f1_large_negative, reduced_hypergeometric_parameters


class TestTypes:
    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            CouplingConfig(kappa=-1.0)
        with pytest.raises(ValueError):
            CouplingConfig(kappa=1.0, ell=-2)
        with pytest.raises(ValueError):
            CouplingConfig(kappa=float("inf"))

    def test_energy_point(self):
        ep = EnergyPoint.from_omega(0.25)
        assert ep.big_omega == 0.5 and ep.epsilon == 0.5
        with pytest.raises(ValueError):
            EnergyPoint.from_omega(0.5)
        with pytest.raises(ValueError):
            EnergyPoint.from_omega(0.0)
        with pytest.raises(ValueError):
            EnergyPoint(omega=0.2, big_omega=0.3, epsilon=0.7)

    def test_params_invariants(self):
        with pytest.raises(ValueError):
            HeunParams(b=-0.5, d=float("nan"), e=1.0)
        with pytest.raises(ValueError):
            HeunParams(b=0.5, d=0.0, e=1.0)  # b must be -1/2-ell
        p = HeunParams(b=-1.5, d=0.3, e=2.0)
        assert _linear_coefficients(p) == (1.5, 0.3, 4.0)


class TestHeunParams:
    def test_direct_substitution_kappa2(self):
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.25))
        assert p.d == pytest.approx(4.0, rel=1e-15)
        assert p.e == pytest.approx(4.5, rel=1e-15)
        assert p.b == -0.5

    def test_a_zero_c_one_always(self):
        # the hard-coded coefficients are those of the general confluent Heun
        # equation at a = 0, c = 1 on the flipped branch B = -b
        a, c = 0.0, 1.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            cfg = CouplingConfig(kappa=float(rng.uniform(0.1, 5)), ell=int(rng.integers(0, 4)))
            p = heun_params(cfg, EnergyPoint.from_omega(float(rng.uniform(1e-4, 0.49))))
            assert p.b == -0.5 - cfg.ell
            B, q1, q0 = _linear_coefficients(p)
            assert B == -p.b
            assert q1 == pytest.approx(0.5 * a * (B + c + 2.0) + p.d, rel=1e-15)
            assert q0 == pytest.approx(p.e + 0.5 * B + 0.5 * (c - a) * (B + 1.0), rel=1e-15)

    def test_shallow_energy_limit(self):
        p = heun_params(CouplingConfig(kappa=0.75, ell=0), EnergyPoint.from_omega(1e-9))
        assert abs(p.d) < 1e-8
        assert p.e == pytest.approx(1.25, abs=1e-8)


def _two_f_one_coefficients(alpha, gamma, delta, n_terms):
    """Taylor coefficients of F(alpha, gamma; delta; y) by the term recurrence."""
    coeffs = [1.0 + 0j]
    for n in range(n_terms - 1):
        coeffs.append(coeffs[-1] * (alpha + n) * (gamma + n) / ((delta + n) * (n + 1)))
    return coeffs


class TestHeunSeries:
    def test_normalization(self):
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.1))
        s = heun_series(p, tol=1e-13)
        assert s.coeffs[0] == 1.0
        assert s.value(0.0) == 1.0

    def test_degeneration_coefficients_term_by_term(self):
        # with d = 0, e = kappa + 1/2 the series is hypergeometric; the raised
        # upper parameters absorb the (1-y) Euler factor of the reduced branch
        kappa = 0.75
        p = HeunParams(b=-0.5, d=0.0, e=kappa + 0.5)
        s = heun_series(p, tol=1e-15, radius=0.5)
        ap, gp, dp = reduced_hypergeometric_parameters(CouplingConfig(kappa=kappa, ell=0))
        ref = _two_f_one_coefficients(ap + 1, gp + 1, dp, min(s.n_terms, 60))
        for n, c in enumerate(ref):
            assert abs(c.imag) < 1e-12
            assert s.coeffs[n] == pytest.approx(c.real, rel=1e-12, abs=1e-15)

    def test_degeneration_values_match_2f1(self):
        kappa = 0.75
        p = HeunParams(b=-0.5, d=0.0, e=kappa + 0.5)
        s = heun_series(p, tol=1e-15, radius=0.5)
        ap, gp, dp = reduced_hypergeometric_parameters(CouplingConfig(kappa=kappa, ell=0))
        for y in (-0.5, -0.2, 0.1, 0.3, 0.5):
            ref = hyp2f1(ap, gp, dp, y).real / (1.0 - y)
            assert s.value(y) == pytest.approx(ref, rel=1e-12)

    def test_truncated_series_solves_equation(self):
        tol = 1e-12
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.2))
        s = heun_series(p, tol=tol, radius=0.5)
        for y in (0.5, -0.5):
            g, gp, gpp = s.value(y), s.derivative(y), s.second_derivative(y)
            rhs = heun_second_derivative(p, y, g, gp)
            scale = max(abs(gpp), abs(rhs), 1.0)
            assert abs(gpp - rhs) < 10 * tol * scale

    def test_radius_guard(self):
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.2))
        s = heun_series(p, tol=1e-12, radius=0.5)
        with pytest.raises(ValueError):
            s.value(0.8)

    def test_term_cap_near_upper_energy_edge(self):
        # epsilon -> 0 sends d to ~1e19; the series cannot settle within the cap
        p = heun_params(CouplingConfig(kappa=2.0, ell=0),
                        EnergyPoint.from_omega(0.4999999999))
        with pytest.raises(HeunEvaluationError):
            heun_series(p, tol=1e-12)


class TestContinuation:
    def test_matches_series_inside_disk(self):
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.2))
        s = heun_series(p, tol=1e-15, radius=0.5)
        for y in (-0.3, -0.45, -0.1):
            cont = heun_continue(p, y, tol=1e-12)
            assert cont == pytest.approx(s.value(y), rel=1e-10)

    def test_spectral_zero_kappa_34(self):
        # omega = 0.0491 sits at a zero of the boundary condition; the
        # evaluation point is (Omega-1)/Omega ~ -9.183
        cfg = CouplingConfig(kappa=0.75, ell=0)
        ep = EnergyPoint.from_omega(0.0491)
        ystar = (ep.big_omega - 1.0) / ep.big_omega
        assert ystar == pytest.approx(-9.1833, abs=2e-4)
        value = heun_continue(heun_params(cfg, ep), ystar, tol=1e-10)
        assert abs(value) < 1e-3

    def test_degeneration_on_the_continued_range(self):
        # d = 0, e = kappa + 1/2: (1-y) * Hc equals the reduced-branch 2F1
        kappa = 0.75
        p = HeunParams(b=-0.5, d=0.0, e=kappa + 0.5)
        ap, gp, dp = reduced_hypergeometric_parameters(CouplingConfig(kappa=kappa, ell=0))
        hc = heun_continue(p, -3.0, tol=1e-10)
        ref = hyp2f1_large_negative(ap, gp, dp, -3.0).real
        assert hc * (1.0 - (-3.0)) == pytest.approx(ref, rel=1e-6)
        # frozen from mpmath: F(1/4 - i nu/2, 1/4 + i nu/2; 3/2; -3)/4, nu = sqrt(11)/2
        assert hc == pytest.approx(0.314735555812542702 / 4.0, rel=1e-9)

    def test_round_trip(self):
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.05))
        seed = -0.5
        s = heun_series(p, tol=1e-15, radius=0.5)
        g0, gp0 = s.value(seed), s.derivative(seed)
        (g1,), (gp1,) = heun_continue_batch([p], [-50.0], tol=1e-12)

        def rhs(t, state):
            y = -math.exp(t)
            gpp = heun_second_derivative(p, y, state[0], state[1])
            return [y * state[1], y * gpp]

        back = solve_ivp(rhs, (math.log(50.0), math.log(-seed)), [g1, gp1],
                         method="DOP853", rtol=1e-12, atol=0.0)
        assert back.success
        assert back.y[0, -1] == pytest.approx(g0, rel=1e-8)
        assert back.y[1, -1] == pytest.approx(gp0, rel=1e-8)

    def test_ode_residual_along_path(self):
        # five-point stencils on u(t) = g(-e^t); g'' = (u_tt - u_t)/y^2
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.02))
        t_grid = np.arange(math.log(0.5), math.log(25.0), 0.01)
        u = heun_continue_path(p, -np.exp(t_grid), tol=1e-12)
        h = 0.01
        ut = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
        utt = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
        for k in range(0, len(ut), 50):
            y = -math.exp(t_grid[k + 2])
            g = u[k + 2]
            gp = ut[k] / y
            gpp = (utt[k] - ut[k]) / (y * y)
            rhs = heun_second_derivative(p, y, g, gp)
            scale = max(abs(gpp), abs(rhs), abs(gp / y), abs(g))
            assert abs(gpp - rhs) < 1e-6 * scale

    def test_smooth_in_omega(self):
        # second differences on a 1e-4 grid stay far below the sample scale:
        # no integrator-induced jumps that would break root bracketing
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omegas = np.arange(0.019, 0.021, 1e-4)
        vals = []
        for w in omegas:
            ep = EnergyPoint.from_omega(float(w))
            ystar = (ep.big_omega - 1.0) / ep.big_omega
            vals.append(heun_continue(heun_params(cfg, ep), ystar, tol=1e-10))
        vals = np.array(vals)
        second = np.abs(np.diff(vals, 2))
        assert second.max() < 1e-3 * np.abs(vals).max()

    def test_path_matches_single_calls(self):
        p = heun_params(CouplingConfig(kappa=0.75, ell=0), EnergyPoint.from_omega(0.1))
        targets = np.array([-0.8, -2.0, -6.5])
        path = heun_continue_path(p, targets, tol=1e-11)
        for y, v in zip(targets, path):
            assert v == pytest.approx(heun_continue(p, float(y), tol=1e-11),
                                      rel=1e-9)

    def test_domain_errors(self):
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.2))
        with pytest.raises(ValueError):
            heun_continue(p, 0.5)
        with pytest.raises(ValueError):
            heun_continue(p, 0.0)
