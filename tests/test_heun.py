"""Confluent Heun series and continuation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from gupheun import find_roots, heun, spectral_scan
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
    heun_zero_counts,
)
from gupheun.specfun import hyp2f1, hyp2f1_large_negative, reduced_hypergeometric_parameters

from heun_oracle import series_state_reference


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
        # no continuation-induced jumps that would break root bracketing
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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_validation(self, tol):
        p = heun_params(CouplingConfig(kappa=2.0, ell=0), EnergyPoint.from_omega(0.2))
        with pytest.raises(ValueError):
            heun_continue_batch([p], [-3.0], tol=tol)

    def test_mixed_b_batch_rejected(self):
        ep = EnergyPoint.from_omega(0.2)
        params = [heun_params(CouplingConfig(kappa=2.0, ell=ell), ep) for ell in (0, 0, 1)]
        with pytest.raises(ValueError, match="share b"):
            heun_continue_batch(params, [-3.0, -0.2, -3.0])


class TestZeroCounts:
    """heun_zero_counts against the sign changes of g on a dense path to y*."""

    @pytest.mark.parametrize("kappa,ell,omega", [
        (2.0, 0, 1e-5),                  # zeros beyond the seed radius only
        (2.0, 1, 0.01),
        (100.0, 0, 0.3),                 # zeros inside the seed radius too
        (3e4, 0, 0.45),
        (0.07, 0, 1e-40),                # near the critical coupling
        (8.229322074546221, 1, 0.4999),  # y* inside the seed radius
    ])
    def test_matches_sign_changes_along_the_path(self, kappa, ell, omega):
        p = heun_params(CouplingConfig(kappa, ell), EnergyPoint.from_omega(omega))
        y_star = (2.0 * omega - 1.0) / (2.0 * omega)
        y = -np.exp(np.linspace(math.log(1e-8), math.log(-y_star), 3000))
        g = heun_continue_path(p, y, tol=1e-10)
        changes = np.concatenate(([0], np.cumsum(np.signbit(g[1:]) != np.signbit(g[:-1]))))
        B, q1, q0 = _linear_coefficients(p)
        at = np.arange(0, y.size, 97)
        n = heun_zero_counts(B, np.full(at.size, q0), np.full(at.size, q1), y[at], tol=1e-10)
        assert np.array_equal(n, changes[at])
        assert changes[-1] > 0

    def test_values_compute_no_angle(self, monkeypatch):
        # scans, root refinement and profiles do not pay for the count
        def no_angle(*args):
            raise AssertionError("angle computed for a value")

        monkeypatch.setattr(heun, "_turns", no_angle)
        monkeypatch.setattr(heun, "_phase", no_angle)
        monkeypatch.setattr(heun, "_series_zeros", no_angle)
        cfg = CouplingConfig(kappa=2.0, ell=0)
        assert len(find_roots(spectral_scan(cfg, 1e-4, 0.45, 60))) == 4
        p = heun_params(cfg, EnergyPoint.from_omega(1e-3))
        assert np.all(np.isfinite(heun_continue_path(p, -np.geomspace(1e-3, 500.0, 50))))

    def test_turns_past_pi_between_two_nodes(self):
        # the angle only increases, so a node-to-node step of 3.3 (seen up to
        # 3.106 at kappa = 3e4) is not the principal -2.98; a step that
        # roundoff makes slightly negative stays so
        angle = np.array([0.0, 0.1, 3.4, 3.4 - 1e-15, 3.5])
        values = np.stack((np.cos(angle), np.sin(angle)), axis=-1)[None]
        assert heun._turns(values)[0] == pytest.approx(angle, abs=1e-12)

    def test_failure_raises(self, monkeypatch):
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", 5)
        with pytest.raises(HeunEvaluationError, match="zero count"):
            heun_zero_counts(0.5, np.array([2.5]), np.array([0.1]), np.array([-40.0]))


def _series_rows(kappa, ell, rows):
    """(B, q0, q1, z) of _series_state for (omega, fraction of the seed radius) rows."""
    omega, fraction = np.array(rows).T
    B, q1, q0 = np.array([_linear_coefficients(heun_params(CouplingConfig(kappa, ell),
                                                           EnergyPoint.from_omega(w)))
                          for w in omega]).T
    return B[0], q0, q1, -fraction * heun._seed_radius(q0, q1)


def _same_series(B, q0, q1, z, tol):
    """The blocked _series_state against the term-by-term reference, bit for bit."""
    g, gp = heun._series_state(B, q0, q1, z, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        g_ref, gp_ref = series_state_reference(B, q0, q1, z, tol)
    assert np.array_equal(g, g_ref, equal_nan=True)
    assert np.array_equal(gp, gp_ref, equal_nan=True)
    return g, gp


class TestSeriesState:
    """_series_state applies the stopping rule per block of terms, with the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(kappa=st.floats(0.05, 3e4), ell=st.integers(0, 3),
           tol=st.sampled_from([1e-15, 1e-13, 1e-11]),
           rows=st.lists(st.tuples(st.floats(1e-45, 0.45), st.floats(1e-12, 1.0)),
                         min_size=1, max_size=12))
    def test_matches_term_by_term_loop(self, kappa, ell, tol, rows):
        _same_series(*_series_rows(kappa, ell, rows), tol)

    @pytest.mark.parametrize("cap", [17, 31, 56])
    def test_term_cap_at_block_edges(self, monkeypatch, cap):
        # blocks hold terms 2-17, 18-33, 34-49, 50-65: a cap of 17 ends the
        # first block, 31 and 56 cut the second and the fourth short
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", cap)
        rows = [(w, f) for w in (0.4, 1e-3, 1e-20) for f in (1e-6, 0.01, 0.2, 0.6, 1.0)]
        g, _ = _same_series(*_series_rows(2.0, 0, rows), 1e-13)
        assert np.isnan(g).any() and not np.isnan(g).all()

    def test_overflow_mid_block(self):
        # beyond the unit disk the terms of the last row grow like |z|^n and
        # overflow at term 46, in the middle of the block of terms 34-49
        q0 = np.array([3.0, 3.0, 1e3])
        q1 = np.array([1.0, 1.0, 1e3])
        z = np.array([-0.3, -0.01, -1e6])
        g, gp = _same_series(0.5, q0, q1, z, 1e-13)
        assert np.all(np.isfinite(g[:2]) & np.isfinite(gp[:2]))
        assert np.isnan(g[2]) and np.isnan(gp[2])


def _spectral_batch(kappa, ell):
    """Parameters and spectral points of the default 600-point scan grid."""
    cfg = CouplingConfig(kappa=kappa, ell=ell)
    energies = [EnergyPoint.from_omega(w)
                for w in np.exp(np.linspace(math.log(1e-5), math.log(0.45), 600))]
    return ([heun_params(cfg, ep) for ep in energies],
            np.array([(ep.big_omega - 1.0) / ep.big_omega for ep in energies]))


class TestBatchIndependence:
    """A value depends on its energy, target and tol only, not on the batch."""

    @pytest.mark.parametrize("kappa, ell, tol", [(2.0, 0, 1e-8), (100.0, 2, 1e-10)])
    def test_alone_in_a_scan_and_next_to_copies(self, kappa, ell, tol):
        params, targets = _spectral_batch(kappa, ell)
        g, gp = heun_continue_batch(params, targets, tol=tol)
        for i in (0, 150, 333, 480, 599):
            alone = heun_continue_batch([params[i]], [targets[i]], tol=tol)
            copies = heun_continue_batch([params[i]] * 3, [targets[i]] * 3, tol=tol)
            assert np.array_equal(np.ravel(alone), [g[i], gp[i]])
            assert np.array_equal(np.ravel(copies), [g[i]] * 3 + [gp[i]] * 3)

    def test_profile_targets_equal_single_targets(self):
        p = heun_params(CouplingConfig(kappa=10.0, ell=1), EnergyPoint.from_omega(1e-4))
        targets = -np.geomspace(1e-3, 4e4, 60)  # past y* = -4999, inside and outside the seed
        g, gp = heun_continue_batch([p] * targets.size, targets, tol=1e-10)
        for k, y in enumerate(targets):
            assert np.array_equal(np.ravel(heun_continue_batch([p], [y], tol=1e-10)),
                                  [g[k], gp[k]])


_DOP853_CASES = [(0.75, 0, 1e-45), (0.75, 2, 1e-20), (2.0, 0, 1e-45), (2.0, 2, 1e-3),
                 (100.0, 0, 0.4), (100.0, 2, 1e-3), (3e4, 0, 0.4), (3e4, 2, 0.4)]


@pytest.fixture(scope="module")
def dop853_paths():
    """(params, targets, g, g') per case, from a DOP853 solve at rtol 1e-12 off the series seed.

    The seed sits where the series terms stay below e^8, as in the
    evaluator, and the six targets reach out to y*.
    """
    paths = []
    for kappa, ell, omega in _DOP853_CASES:
        ep = EnergyPoint.from_omega(omega)
        p = heun_params(CouplingConfig(kappa=kappa, ell=ell), ep)
        B, q1, q0 = _linear_coefficients(p)
        seed = -min(0.5, 16.0 / (abs(q0) + math.sqrt(abs(q1))))
        targets = np.geomspace(1.5 * seed, (ep.big_omega - 1.0) / ep.big_omega, 6)
        series = heun_series(p, tol=1e-16, radius=-seed)

        def rhs(t, state, p=p):
            y = -math.exp(t)
            return [y * state[1], y * heun_second_derivative(p, y, state[0], state[1])]

        t = np.log(-targets)
        sol = solve_ivp(rhs, (math.log(-seed), t[-1]),
                        [series.value(seed), series.derivative(seed)],
                        method="DOP853", rtol=1e-12, atol=0.0, t_eval=t)
        assert sol.success
        paths.append((p, targets, *sol.y))
    return paths


class TestAgainstDOP853:
    """heun_continue_batch against an adaptive eighth-order solve (dop853_paths).

    The error of (g, y g') must stay within tol times the local amplitude
    hypot(g, y g').  The cases cover each kappa with both ell and each omega
    at least once, among paths that the reference integrates in well under a
    second.  The reference's own error grows with the path: at kappa = 2,
    ell = 2, omega = 1e-45 it reaches 5e-10 against a solve at rtol 3e-14,
    so that case is left out.
    """

    @pytest.mark.parametrize("rate_scale", [1.0, 1 / 8])
    def test_within_tol_of_the_local_scale(self, monkeypatch, dop853_paths, rate_scale):
        # at rate_scale 1/8 every panel starts 8 times too wide, and only
        # halving the panels whose Chebyshev tail is too large mends them
        rate = heun._rate
        monkeypatch.setattr(heun, "_rate", lambda *args: rate_scale * rate(*args))
        for p, targets, g_ref, gp_ref in dop853_paths:
            scale = np.hypot(g_ref, targets * gp_ref)
            for tol in (1e-8, 1e-10):
                g, gp = heun_continue_batch([p] * targets.size, targets, tol=tol)
                error = np.maximum(np.abs(g - g_ref), np.abs(targets * (gp - gp_ref)))
                assert np.all(error <= tol * scale), (p, tol)
