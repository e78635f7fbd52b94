"""Confluent Heun series and continuation tests."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from gupheun import heun, radial, spectral, spectral_scan
from gupheun.heun import (
    CouplingConfig,
    HeunEvaluationError,
    heun_coefficients,
    heun_continue_arrays,
    heun_zero_counts,
)

from heun_oracle import (
    coefficients,
    envelope,
    heun_second_derivative,
    heun_series,
    no_far_field,
    one_energy,
    series_state_reference,
)
from hyp_oracle import hyp2f1_large_negative, reduced_hypergeometric_parameters


def _value(energy, y, tol):
    """g of one energy at one target y."""
    (g,), _ = one_energy(energy, [y], tol)
    return float(g)


class TestTypes:
    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            CouplingConfig(kappa=-1.0)
        with pytest.raises(ValueError):
            CouplingConfig(kappa=1.0, ell=-2)
        with pytest.raises(ValueError):
            CouplingConfig(kappa=float("inf"))

    def test_energy_point(self):
        # an energy is one float omega in (0, 1/2); a profile checks it in xi_star
        cfg = CouplingConfig(kappa=2.0)
        assert radial.xi_star(cfg, 0.25) == math.sqrt(4.0 * 2.0 / (5.0 * 0.25))
        for omega in (0.5, 0.0):
            with pytest.raises(ValueError, match=rf"^omega must lie in \(0, 1/2\), got {omega}$"):
                radial.xi_star(cfg, omega)

    def test_params_invariants(self):
        with pytest.raises(ValueError, match="parameter d must be finite"):
            heun_coefficients(math.nan, 0, np.array([0.2]))
        # e = kappa/eps + 1/2 overflows first: d = kappa*Omega/eps^2 is 0.12 of it
        with pytest.raises(ValueError, match="parameter e must be finite"):
            heun_coefficients(1.7e308, 0, np.array([0.05]))
        # omega = 1/4: eps = 1/2, so d = 2 and e = 2.5 exactly
        B, (q0,), (q1,) = heun_coefficients(1.0, 1, np.array([0.25]))
        assert (B, q0, q1) == (1.5, 4.5, 2.0)


def _docstring_parameters(kappa, ell, omega):
    """(b, d, e) of Hc(0, b, 1, d, e; y) as the heun module docstring writes them."""
    big_omega = 2.0 * omega
    eps = 1.0 - big_omega
    return -0.5 - ell, kappa * big_omega / eps**2, kappa / eps + 0.5


class TestHeunParams:
    """heun_coefficients: the parameters (b, d, e) of the paper as (B, q0, q1)."""

    def test_direct_substitution_kappa2(self):
        B, q0, q1 = heun_coefficients(2.0, 0, np.array([0.25]))
        assert q1[0] == pytest.approx(4.0, rel=1e-15)
        assert q0[0] == pytest.approx(4.5 + 0.5 + 0.5, rel=1e-15)
        assert B == 0.5

    def test_a_zero_c_one_always(self):
        # the hard-coded coefficients are those of the general confluent Heun
        # equation at a = 0, c = 1 on the flipped branch B = -b, with b, d, e
        # of the module docstring
        a, c = 0.0, 1.0
        rng = np.random.default_rng(1)
        for _ in range(20):
            kappa, ell = float(rng.uniform(0.1, 5)), int(rng.integers(0, 4))
            omega = float(rng.uniform(1e-4, 0.49))
            b, d, e = _docstring_parameters(kappa, ell, omega)
            B, (q0,), (q1,) = heun_coefficients(kappa, ell, np.array([omega]))
            assert B == -b
            assert q1 == pytest.approx(0.5 * a * (B + c + 2.0) + d, rel=1e-15)
            assert q0 == pytest.approx(e + 0.5 * B + 0.5 * (c - a) * (B + 1.0), rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(kappa=st.floats(0.05, 3e4), ell=st.integers(0, 3), omega=st.floats(1e-45, 0.4999))
    def test_matches_docstring_formulas(self, kappa, ell, omega):
        b, d, e = _docstring_parameters(kappa, ell, omega)
        B, (q0,), (q1,) = heun_coefficients(kappa, ell, np.array([omega]))
        assert (B, q0, q1) == (-b, e - b + 0.5, d)

    def test_kappa_per_omega(self):
        # one kappa per omega gives each energy what a call of its own gives
        rng = np.random.default_rng(7)
        kappas = rng.uniform(0.05, 100.0, 12)
        omegas = np.exp(rng.uniform(math.log(1e-45), math.log(0.49), 12))
        B, q0, q1 = heun_coefficients(kappas, 2, omegas)
        for k, (kappa, omega) in enumerate(zip(kappas, omegas)):
            assert (B, q0[k], q1[k]) == coefficients(kappa, 2, omega)
            b, d, e = _docstring_parameters(kappa, 2, omega)
            assert (q0[k], q1[k]) == (e - b + 0.5, d)

    def test_shallow_energy_limit(self):
        _, (q0,), (q1,) = heun_coefficients(0.75, 0, np.array([1e-9]))
        assert abs(q1) < 1e-8
        assert q0 == pytest.approx(1.25 + 1.0, abs=1e-8)


def _two_f_one_coefficients(alpha, gamma, delta, n_terms):
    """Taylor coefficients of F(alpha, gamma; delta; y) by the term recurrence."""
    coeffs = [1.0 + 0j]
    for n in range(n_terms - 1):
        coeffs.append(coeffs[-1] * (alpha + n) * (gamma + n) / ((delta + n) * (n + 1)))
    return coeffs


def _degenerate(kappa):
    """(B, q0, q1) at d = 0, e = kappa + 1/2, ell = 0: the hypergeometric case."""
    return 0.5, kappa + 1.5, 0.0


class TestHeunSeries:
    def test_normalization(self):
        s = heun_series(*coefficients(2.0, 0, 0.1), tol=1e-13)
        assert s.coeffs[0] == 1.0
        assert s.value(0.0) == 1.0

    def test_degeneration_coefficients_term_by_term(self):
        # with d = 0, e = kappa + 1/2 the series is hypergeometric; the raised
        # upper parameters absorb the (1-y) Euler factor of the reduced branch
        kappa = 0.75
        s = heun_series(*_degenerate(kappa), tol=1e-15, radius=0.5)
        ap, gp, dp = reduced_hypergeometric_parameters(CouplingConfig(kappa=kappa, ell=0))
        ref = _two_f_one_coefficients(ap + 1, gp + 1, dp, min(s.n_terms, 60))
        for n, c in enumerate(ref):
            assert abs(c.imag) < 1e-12
            assert s.coeffs[n] == pytest.approx(c.real, rel=1e-12, abs=1e-15)

    def test_degeneration_values_match_2f1(self):
        kappa = 0.75
        s = heun_series(*_degenerate(kappa), tol=1e-15, radius=0.5)
        ap, gp, dp = reduced_hypergeometric_parameters(CouplingConfig(kappa=kappa, ell=0))
        for y in (-0.5, -0.2, 0.1, 0.3, 0.5):
            ref = complex(mpmath.hyp2f1(ap, gp, dp, y)).real / (1.0 - y)
            assert s.value(y) == pytest.approx(ref, rel=1e-12)

    def test_truncated_series_solves_equation(self):
        tol = 1e-12
        energy = coefficients(2.0, 0, 0.2)
        s = heun_series(*energy, tol=tol, radius=0.5)
        for y in (0.5, -0.5):
            g, gp, gpp = s.value(y), s.derivative(y), s.second_derivative(y)
            rhs = heun_second_derivative(*energy, y, g, gp)
            scale = max(abs(gpp), abs(rhs), 1.0)
            assert abs(gpp - rhs) < 10 * tol * scale

    def test_radius_guard(self):
        s = heun_series(*coefficients(2.0, 0, 0.2), tol=1e-12, radius=0.5)
        with pytest.raises(ValueError):
            s.value(0.8)

    def test_term_cap_near_upper_energy_edge(self):
        # epsilon -> 0 sends d to ~1e19; the series cannot settle within the cap
        with pytest.raises(HeunEvaluationError):
            heun_series(*coefficients(2.0, 0, 0.4999999999), tol=1e-12)


class TestContinuation:
    def test_matches_series_inside_disk(self):
        energy = coefficients(2.0, 0, 0.2)
        s = heun_series(*energy, tol=1e-15, radius=0.5)
        for y in (-0.3, -0.45, -0.1):
            cont = _value(energy, y, tol=1e-12)
            assert cont == pytest.approx(s.value(y), rel=1e-10)

    def test_spectral_zero_kappa_34(self):
        # omega = 0.0491 sits at a zero of the boundary condition; the
        # evaluation point is (Omega-1)/Omega ~ -9.183
        big_omega = 2 * 0.0491
        ystar = (big_omega - 1.0) / big_omega
        assert ystar == pytest.approx(-9.1833, abs=2e-4)
        value = _value(coefficients(0.75, 0, 0.0491), ystar, tol=1e-10)
        assert abs(value) < 1e-3

    def test_degeneration_on_the_continued_range(self):
        # d = 0, e = kappa + 1/2: (1-y) * Hc equals the reduced-branch 2F1
        kappa = 0.75
        ap, gp, dp = reduced_hypergeometric_parameters(CouplingConfig(kappa=kappa, ell=0))
        hc = _value(_degenerate(kappa), -3.0, tol=1e-10)
        ref = hyp2f1_large_negative(ap, gp, dp, -3.0).real
        assert hc * (1.0 - (-3.0)) == pytest.approx(ref, rel=1e-6)
        # frozen from mpmath: F(1/4 - i nu/2, 1/4 + i nu/2; 3/2; -3)/4, nu = sqrt(11)/2
        assert hc == pytest.approx(0.314735555812542702 / 4.0, rel=1e-9)

    def test_round_trip(self):
        energy = coefficients(2.0, 0, 0.05)
        seed = -0.5
        s = heun_series(*energy, tol=1e-15, radius=0.5)
        g0, gp0 = s.value(seed), s.derivative(seed)
        (g1,), (gp1,) = one_energy(energy, [-50.0], tol=1e-12)

        def rhs(t, state):
            y = -math.exp(t)
            gpp = heun_second_derivative(*energy, y, state[0], state[1])
            return [y * state[1], y * gpp]

        back = solve_ivp(rhs, (math.log(50.0), math.log(-seed)), [g1, gp1],
                         method="DOP853", rtol=1e-12, atol=0.0)
        assert back.success
        assert back.y[0, -1] == pytest.approx(g0, rel=1e-8)
        assert back.y[1, -1] == pytest.approx(gp0, rel=1e-8)

    def test_ode_residual_along_path(self):
        # five-point stencils on u(t) = g(-e^t); g'' = (u_tt - u_t)/y^2
        energy = coefficients(2.0, 0, 0.02)
        t_grid = np.arange(math.log(0.5), math.log(25.0), 0.01)
        u, _ = one_energy(energy, -np.exp(t_grid), tol=1e-12)
        h = 0.01
        ut = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
        utt = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
        for k in range(0, len(ut), 50):
            y = -math.exp(t_grid[k + 2])
            g = u[k + 2]
            gp = ut[k] / y
            gpp = (utt[k] - ut[k]) / (y * y)
            rhs = heun_second_derivative(*energy, y, g, gp)
            scale = max(abs(gpp), abs(rhs), abs(gp / y), abs(g))
            assert abs(gpp - rhs) < 1e-6 * scale

    def test_smooth_in_omega(self):
        # second differences on a 1e-4 grid stay far below the sample scale:
        # no continuation-induced jumps that would break root bracketing
        omegas = np.arange(0.019, 0.021, 1e-4)
        vals = []
        for w in omegas.tolist():
            big_omega = 2 * w
            ystar = (big_omega - 1.0) / big_omega
            vals.append(_value(coefficients(2.0, 0, w), ystar, tol=1e-10))
        vals = np.array(vals)
        second = np.abs(np.diff(vals, 2))
        assert second.max() < 1e-3 * np.abs(vals).max()

    def test_path_matches_single_calls(self):
        energy = coefficients(0.75, 0, 0.1)
        targets = np.array([-0.8, -2.0, -6.5])
        path, _ = one_energy(energy, targets, tol=1e-11)
        for y, v in zip(targets, path):
            assert v == pytest.approx(_value(energy, float(y), tol=1e-11), rel=1e-9)

    def test_domain_errors(self):
        energy = coefficients(2.0, 0, 0.2)
        with pytest.raises(ValueError):
            one_energy(energy, [0.5])
        with pytest.raises(ValueError):
            one_energy(energy, [0.0])
        # the first bad target and how many there are, not the whole array
        targets = np.concatenate(([-3.0, -math.inf], np.full(398, 0.5)))
        with pytest.raises(ValueError) as info:
            one_energy(energy, targets)
        assert str(info.value) == ("y_target must be finite and negative, "
                                   "got -inf (399 of 400 targets)")

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 1.0, 1e10])
    def test_tolerance_validation(self, tol):
        with pytest.raises(ValueError, match=r"^tol must be finite and in \(0, 1\), got "):
            one_energy(coefficients(2.0, 0, 0.2), [-3.0], tol=tol)

    @pytest.mark.parametrize("kernel", [heun_continue_arrays, heun_zero_counts])
    @pytest.mark.parametrize("B, q0, q1, message", [
        pytest.param(0.5, math.nan, 1.0, r"^q0 must be finite, got nan \(1 of 2 energies\)$",
                     id="q0-nan"),
        pytest.param(0.5, -math.inf, 1.0, r"^q0 must be finite, got -inf ", id="q0-inf"),
        pytest.param(0.5, 2.5, math.inf, r"^q1 must be finite, got inf ", id="q1-inf"),
        pytest.param(0.0, 2.5, 1.0, r"^B must be finite and at least 1/2, got 0.0$", id="B-0"),
        pytest.param(-1.5, 2.5, 1.0, r"^B must be finite and at least 1/2, got -1.5$",
                     id="B-negative"),
        pytest.param(math.nan, 2.5, 1.0, r"^B must be finite and at least 1/2, got nan$",
                     id="B-nan"),
        pytest.param(math.inf, 2.5, 1.0, r"^B must be finite and at least 1/2, got inf$",
                     id="B-inf"),
    ])
    def test_energies_outside_the_series_bound(self, kernel, B, q0, q1, message):
        # the seed series stops only where its terms shrink (_certified_radius),
        # which takes a finite q0 and q1 and B >= 1/2; such input came back NaN
        with pytest.raises(ValueError, match=message):
            kernel(B, np.array([q0, 2.5]), np.array([q1, 1.0]), np.array([-40.0, -0.01]))


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
        B, q0, q1 = coefficients(kappa, ell, omega)
        y_star = (2.0 * omega - 1.0) / (2.0 * omega)
        y = -np.exp(np.linspace(math.log(1e-8), math.log(-y_star), 3000))
        g, _ = one_energy((B, q0, q1), y, tol=1e-10)
        changes = np.concatenate(([0], np.cumsum(np.signbit(g[1:]) != np.signbit(g[:-1]))))
        at = np.arange(0, y.size, 97)
        n, _, _ = heun_zero_counts(B, np.full(at.size, q0), np.full(at.size, q1), y[at], tol=1e-10)
        assert np.array_equal(n, changes[at])
        assert changes[-1] > 0

    @pytest.mark.parametrize("kappa,ell,omega", [(2.0, 0, 1e-5), (100.0, 0, 0.3), (3e4, 0, 0.45)])
    def test_fraction_turns_over_at_each_zero(self, kappa, ell, omega):
        # F = N + fraction passes each integer where g changes sign: there
        # the fraction wraps from near 1 to near 0
        B, q0, q1 = coefficients(kappa, ell, omega)
        y_star = (2.0 * omega - 1.0) / (2.0 * omega)
        y = -np.exp(np.linspace(math.log(1e-8), math.log(-y_star), 3000))
        n, g, fraction = heun_zero_counts(B, np.full(y.size, q0), np.full(y.size, q1), y,
                                          tol=1e-10)
        agree = np.signbit(g) == (n % 2 == 1)  # all but within rounding of a zero
        assert np.all((0.0 <= fraction[agree]) & (fraction[agree] <= 1.0))
        assert np.all((-0.5 <= fraction) & (fraction <= 1.5))
        inner = y > -heun._certified_radius(q0, q1)
        assert inner.any() and np.all((n[inner] == 0) & (0.0 < fraction[inner]) & (fraction[inner] < 1.0))
        step = np.flatnonzero(np.diff(n))
        assert step.size == n[-1] > 0
        assert np.array_equal(step, np.flatnonzero(np.signbit(g[1:]) != np.signbit(g[:-1])))
        assert np.all(fraction[step] > fraction[step + 1])

    @pytest.mark.parametrize("kappa,ell", [(2.0, 0), (20.0, 0), (20.0, 1), (100.0, 0)])
    def test_fraction_does_not_jump_with_the_energy(self, kappa, ell):
        # on 4001 energies of the default window F = N + fraction bends
        # smoothly (second differences up to 1.2e-3); the basis pair's
        # fraction jumped where y* crossed a panel boundary, its second
        # differences reaching 0.26-0.54 here
        omegas = np.exp(np.linspace(math.log(1e-5), math.log(0.45), 4001))
        n, _, fraction = heun_zero_counts(*heun_coefficients(kappa, ell, omegas),
                                          (2.0 * omegas - 1.0) / (2.0 * omegas), tol=1e-8)
        assert np.max(np.abs(np.diff(n + fraction, 2))) < 1e-2

    def test_fraction_is_smooth_across_a_panel_boundary(self):
        # the basis pair's fraction jumped by 2.9e-3 near omega = 2.4955e-4
        # at kappa = 20, where F moves by 1.7e-6 between these energies
        omegas = np.exp(np.linspace(math.log(2.49e-4), math.log(2.50e-4), 2001))
        n, _, fraction = heun_zero_counts(*heun_coefficients(20.0, 0, omegas),
                                          (2.0 * omegas - 1.0) / (2.0 * omegas), tol=1e-8)
        assert n[0] == 12 and n[-1] == 11
        assert np.max(np.abs(np.diff(n + fraction))) < 2e-6

    def test_values_compute_no_angle(self, monkeypatch):
        # scans and profiles do not pay for the count
        def no_angle(*args):
            raise AssertionError("angle computed for a value")

        monkeypatch.setattr(heun, "_turns", no_angle)
        monkeypatch.setattr(heun, "_phase", no_angle)
        cfg = CouplingConfig(kappa=2.0, ell=0)
        assert len(spectral._find_brackets(spectral_scan(cfg, 1e-4, 0.45, 60)[1])) == 4
        one_energy(coefficients(2.0, 0, 1e-3), -np.geomspace(1e-3, 500.0, 50))

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_values_are_the_value_path(self, ell, tol):
        # one seed for values and counts: g from a count is heun_continue_arrays'
        # g, bit for bit, at y*, beyond the seed and inside it
        kappa, omega = (np.ravel(x) for x in np.meshgrid(
            [0.05, 0.3, 2.0, 100.0, 3e3], [1e-12, 1e-5, 0.01, 0.3, 0.45]))
        B, q0, q1 = heun_coefficients(kappa, ell, omega)
        radius = heun._certified_radius(q0, q1)
        y = np.stack((spectral._spectral_points(omega), np.full(omega.size, -0.3),
                      -0.5 * radius, -radius), axis=1)
        q0, q1 = np.repeat(q0, 4), np.repeat(q1, 4)
        n, g, _ = heun_zero_counts(B, q0, q1, y.ravel(), tol=tol)
        assert np.array_equal(g, heun_continue_arrays(B, q0, q1, y.ravel(), tol=tol)[0])
        assert np.array_equal(n, heun_zero_counts(B, q0, q1, y.ravel(), tol=tol)[0])
        assert np.all(n.reshape(y.shape)[:, 2:] == 0) and np.any(n > 0)

    def test_turns_past_pi_between_two_nodes(self):
        # the angle only increases, so a node-to-node step of 3.3 (seen up to
        # 3.106 at kappa = 3e4) is not the principal -2.98; a step that
        # roundoff makes slightly negative stays so
        angle = np.array([0.0, 0.1, 3.4, 3.4 - 1e-15, 3.5])
        values = np.stack((np.cos(angle), np.sin(angle)), axis=-1)[None]
        assert heun._turns(values)[0] == pytest.approx(angle, abs=1e-12)

    def test_failure_raises(self, monkeypatch):
        # the path to y = -40 needs more than one continuation panel
        monkeypatch.setattr(heun, "_MAX_PANELS", 1)
        with pytest.raises(HeunEvaluationError, match="zero count"):
            heun_zero_counts(0.5, np.array([2.5]), np.array([0.1]), np.array([-40.0]))

    def test_underflowed_nodes_fail_without_a_numpy_warning(self):
        # at kappa = 1e5, omega = 1e-300 panel node values underflow to 0, and
        # the angle step between two of them divides 0 by 0: the count fails
        # with the package's error, not numpy's RuntimeWarning
        B, q0, q1 = coefficients(1e5, 0, 1e-300)
        y_star = spectral._spectral_points(1e-300)
        with pytest.raises(HeunEvaluationError, match="zero count"):
            heun_zero_counts(B, np.array([q0]), np.array([q1]), np.array([y_star]), tol=1e-12)


def _walk_one_panel_at_a_time(first, ends, seed):
    """Start states of heun._start_states by carrying each state through one panel per step."""
    start = np.empty_like(seed)
    for p in range(first.size):
        if first[p] == p:
            state = seed[p]
        start[p] = state
        state = ends[p].reshape(2, 2) @ state
    return start


class TestSturmComparison:
    """The zero count at y* as Sturm comparison orders it, which critical_coupling bisects on.

    A deeper well holds more nodes, and a larger centrifugal barrier fewer
    (Courant & Hilbert I, VI.6): N(omega) never falls as kappa rises and
    never rises with ell.  The omegas stop at 1e-40: from about 1e-200 the
    Heun values underflow and the count can fall with kappa (ROADMAP item 4).
    Counted at critical_coupling's tolerance, one call per ell.
    """

    SWEEPS = 10  # per ell for kappa; 4 * SWEEPS for ell

    @staticmethod
    def _counts(kappa, ell, omega):
        n, _, _ = heun_zero_counts(*heun_coefficients(kappa, ell, omega),
                                spectral._spectral_points(omega), tol=spectral._COUNT_TOL)
        return n

    @staticmethod
    def _log_uniform(rng, lo, hi, size):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

    def test_count_never_falls_as_kappa_rises(self):
        rng = np.random.default_rng(18)
        for ell in range(4):
            kappas = np.sort(self._log_uniform(rng, 0.06, 300.0, (self.SWEEPS, 60)), axis=1)
            omegas = np.repeat(self._log_uniform(rng, 1e-40, 0.45, self.SWEEPS), 60)
            n = self._counts(kappas.ravel(), ell, omegas).reshape(kappas.shape)
            assert np.all(np.diff(n, axis=1) >= 0), ell
            assert n.max() > 10  # the sweeps reach many levels

    def test_count_never_rises_with_ell(self):
        rng = np.random.default_rng(19)
        kappas = self._log_uniform(rng, 0.06, 300.0, 4 * self.SWEEPS)
        omegas = self._log_uniform(rng, 1e-40, 0.45, 4 * self.SWEEPS)
        n = np.array([self._counts(kappas, ell, omegas) for ell in range(5)])
        assert np.all(np.diff(n, axis=0) <= 0)
        assert np.any(np.diff(n, axis=0) < 0)  # ell does move some counts

    def test_profile_sign_changes_are_the_count(self):
        # R(xi) = xi^ell (1 - y) Hc(y(xi)) on radial's sampled grid changes
        # sign on (0, xi*) as often as the angle count finds zeros on (y*, 0):
        # two paths that share only the evaluator
        rng = np.random.default_rng(20)
        profiles = zip(self._log_uniform(rng, 0.2, 50.0, 40), rng.integers(0, 3, 40),
                       self._log_uniform(rng, 1e-8, 0.45, 40))
        changes, counts = [], []
        for kappa, ell, omega in profiles:
            cfg, omega = CouplingConfig(kappa=float(kappa), ell=int(ell)), float(omega)
            xi = np.exp(np.linspace(math.log(1e-3), math.log(radial.xi_star(cfg, omega)), 4000))
            r = radial.wavefunction(cfg, omega, xi).values
            changes.append(np.count_nonzero(np.signbit(r[1:]) != np.signbit(r[:-1])))
            omegas = np.array([omega])
            counts.append(heun_zero_counts(*heun_coefficients(cfg.kappa, cfg.ell, omegas),
                                           spectral._spectral_points(omegas), tol=1e-10)[0][0])
        assert changes == counts
        assert max(counts) > 10  # the profiles reach many nodes


class TestStartStates:
    """The walk's prefix products by doubling against a walk one panel at a time."""

    def test_chains_of_every_length_in_one_batch(self):
        # chain lengths at and around the powers of two where the doubling
        # adds a round; near-rotations keep the states of order one
        lengths = np.array([1, 2, 3, 63, 64, 65, 500])
        heads = np.cumsum(lengths) - lengths
        first = np.repeat(heads, lengths)
        rng = np.random.default_rng(5)
        angle = rng.uniform(0.0, np.pi, first.size)
        ends = np.stack((np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)), axis=1)
        ends *= 1.0 + 1e-3 * rng.standard_normal(ends.shape)
        seed = np.repeat(rng.standard_normal((lengths.size, 2)), lengths, axis=0)
        start = heun._start_states(first, ends, seed)
        ref = _walk_one_panel_at_a_time(first, ends, seed)
        assert np.array_equal(start[heads], seed[heads])
        assert np.all(np.abs(start - ref).max(axis=1) <= 1e-13 * np.hypot(*ref.T))

    @pytest.mark.parametrize("kappa,ell", [(0.0634, 0), (0.5634, 1)])
    def test_deep_critical_chain(self, kappa, ell):
        # the chain of a zero count at omega = 1e-45 next to the critical
        # coupling, where the state falls by 1e-57 and more, 1e-32 of it in
        # the one far-field step: the order of the roundoff changes, and the
        # states agree within the tolerance
        tol = 1e-6
        B, q0, q1 = heun_coefficients(kappa, ell, np.array([1e-45]))
        y = spectral._spectral_points(np.array([1e-45]))
        radius = heun._certified_radius(q0, q1)
        g, gp = heun._series_state(B, q0, q1, -radius, heun._seed_tol(tol))
        t = np.log(-y)
        panels = heun._solved_panels(B, q0, q1, np.log(radius), t, t * 1j, tol)
        ends, far = panels[3], panels[7]
        assert ends.shape[0] > 15 and np.count_nonzero(far) == 1
        first = np.zeros(ends.shape[0], dtype=int)
        seed = np.tile([g[0], -radius[0] * gp[0]], (first.size, 1))
        start = heun._start_states(first, ends, seed)
        ref = _walk_one_panel_at_a_time(first, ends, seed)
        assert np.all(np.abs(start - ref).max(axis=1) <= tol * np.hypot(*ref.T))


def _series_rows(kappa, ell, rows):
    """(B, q0, q1, z) of _series_state for (omega, fraction of a wide radius) rows.

    The radius is 0.5, or less where the series terms would peak above e^8:
    out there the series takes up to several hundred terms, far more blocks
    than at the evaluator's seed, _certified_radius.
    """
    omega, fraction = np.array(rows).T
    B, q0, q1 = heun_coefficients(kappa, ell, omega)
    return B, q0, q1, -fraction * np.minimum(0.5, 16.0 / (np.abs(q0) + np.sqrt(np.abs(q1))))


def _same_series(B, q0, q1, z, tol):
    """The blocked _series_state against the term-by-term reference, bit for bit."""
    g, gp = heun._series_state(B, q0, q1, z, tol)
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

    @settings(max_examples=300, deadline=None)
    @given(kappa=st.floats(-2.0, 6.0).map(lambda x: 10.0 ** x), ell=st.integers(0, 30),
           omega=st.floats(-300.0, math.log10(0.5), exclude_max=True).map(lambda x: 10.0 ** x))
    def test_terms_shrink_at_the_certified_radius(self, kappa, ell, omega):
        # what stops the series without a term cap: at the seed radius no term
        # exceeds w_0 = 1, each is at most 0.32 times the larger of the two
        # before it, and the rule stops by term 78 at the smallest seed tol
        B, q0, q1 = coefficients(kappa, ell, omega)
        z = -float(heun._certified_radius(np.array([q0]), np.array([q1]))[0])
        tol = heun._seed_tol(1e-15)
        w = [1.0, q0 * z / (B + 1.0)]
        abs_sum, small, n = 1.0 + abs(w[1]), 0, 1
        while small < 3:
            w.append(((n * (n + B + 2.0) + q0) * w[n] + q1 * z * w[n - 1]) * z
                     / ((n + 1.0) * (n + B + 1.0)))
            n += 1
            assert abs(w[n]) <= 0.32 * max(abs(w[n - 1]), abs(w[n - 2]))
            abs_sum += abs(w[n])
            small = small + 1 if (n * n + 1.0) * abs(w[n]) < tol * abs_sum else 0
        assert max(map(abs, w)) == 1.0
        assert abs_sum < 1.5 and n <= 78
        g, _ = heun._series_state(B, np.array([q0]), np.array([q1]), np.array([z]), tol)
        assert g[0] == pytest.approx(sum(w), rel=1e-14)


def _spectral_batch(kappa, ell):
    """(B, q0, q1) and spectral points of the default 600-point scan grid."""
    omegas = np.exp(np.linspace(math.log(1e-5), math.log(0.45), 600))
    return (*heun_coefficients(kappa, ell, omegas), spectral._spectral_points(omegas))


class TestBatchIndependence:
    """A value depends on its energy, target and tol only, not on the batch."""

    @pytest.mark.parametrize("kappa, ell, tol", [(2.0, 0, 1e-8), (100.0, 2, 1e-10)])
    def test_alone_in_a_scan_and_next_to_copies(self, kappa, ell, tol):
        B, q0, q1, targets = _spectral_batch(kappa, ell)
        g, gp = heun_continue_arrays(B, q0, q1, targets, tol=tol)
        for i in (0, 150, 333, 480, 599):
            alone = heun_continue_arrays(B, q0[[i]], q1[[i]], targets[[i]], tol=tol)
            copies = heun_continue_arrays(B, q0[[i] * 3], q1[[i] * 3], targets[[i] * 3], tol=tol)
            assert np.array_equal(np.ravel(alone), [g[i], gp[i]])
            assert np.array_equal(np.ravel(copies), [g[i]] * 3 + [gp[i]] * 3)

    @pytest.mark.parametrize("omega", [1e-3, 1e-45])
    def test_next_to_a_500_panel_neighbour(self, omega):
        # the walk's products double for 9 rounds and more to cover the
        # neighbour's chain, long even with its far-field stretch; an energy
        # of a few dozen panels, sorted before it (1e-45) or after it
        # (1e-3), must absorb its own panels only
        B, q0, q1 = heun_coefficients(np.array([2.0, 3000.0]), 0, np.array([omega, 1e-45]))
        y = spectral._spectral_points(np.array([omega, 1e-45]))
        panels = heun._layout(B, q0[1:], q1[1:], np.log(heun._certified_radius(q0[1:], q1[1:])),
                              np.log(-y[1:]), 1e-10)[0]
        assert panels.size > 480
        alone = heun_continue_arrays(B, q0[:1], q1[:1], y[:1], tol=1e-10)
        together = heun_continue_arrays(B, q0, q1, y, tol=1e-10)
        assert np.array_equal(np.ravel(alone), [together[0][0], together[1][0]])

    def test_deep_energies_alone_and_in_a_batch(self):
        # floor energies cross their far-field stretch in one closed-form
        # step, and the targets at 1e20 and 1e30 lie inside it: values and
        # zero counts keep their bits next to shallow and deeper energies
        kappa = np.array([0.0634, 0.0634, 2.0, 100.0, 0.5634])
        omega = np.array([1e-45, 0.4, 1e-100, 1e-3, 1e-45])
        B, q0, q1 = heun_coefficients(kappa, 0, omega)
        y = spectral._spectral_points(omega)
        q0, q1 = np.append(q0, q0[[0, 0]]), np.append(q1, q1[[0, 0]])
        y = np.append(y, [-1e20, -1e30])
        t1, t2 = heun._far_field(B, q0[:1], q1[:1], np.log(-y[:1]), 1e-6)
        assert t1[0] < math.log(1e20) < math.log(1e30) < t2[0]
        g, gp = heun_continue_arrays(B, q0, q1, y, tol=1e-6)
        n, _, _ = heun_zero_counts(B, q0, q1, y, tol=1e-6)
        for i in (0, 2, 5, 6):
            alone = heun_continue_arrays(B, q0[[i]], q1[[i]], y[[i]], tol=1e-6)
            assert np.array_equal(np.ravel(alone), [g[i], gp[i]])
            assert heun_zero_counts(B, q0[[i]], q1[[i]], y[[i]], tol=1e-6)[0][0] == n[i]

    def test_profile_targets_equal_single_targets(self):
        energy = coefficients(10.0, 1, 1e-4)
        targets = -np.geomspace(1e-3, 4e4, 60)  # past y* = -4999, inside and outside the seed
        g, gp = one_energy(energy, targets, tol=1e-10)
        for k, y in enumerate(targets):
            assert np.array_equal(np.ravel(one_energy(energy, [y], tol=1e-10)), [g[k], gp[k]])


_DOP853_CASES = [(0.75, 0, 1e-45), (0.75, 2, 1e-20), (2.0, 0, 1e-45), (2.0, 2, 1e-3),
                 (100.0, 0, 0.4), (100.0, 2, 1e-3), (3e4, 0, 0.4), (3e4, 2, 0.4)]


@pytest.fixture(scope="module")
def dop853_paths():
    """(energy, targets, g, g') per case, from a DOP853 solve at rtol 1e-12 off the series seed.

    The seed sits where the series terms stay below e^8, and the six
    targets reach out to y*.
    """
    paths = []
    for kappa, ell, omega in _DOP853_CASES:
        energy = coefficients(kappa, ell, omega)
        B, q0, q1 = energy
        seed = -min(0.5, 16.0 / (abs(q0) + math.sqrt(abs(q1))))
        big_omega = 2 * omega
        targets = np.geomspace(1.5 * seed, (big_omega - 1.0) / big_omega, 6)
        series = heun_series(*energy, tol=1e-16, radius=-seed)

        def rhs(t, state, energy=energy):
            y = -math.exp(t)
            return [y * state[1], y * heun_second_derivative(*energy, y, state[0], state[1])]

        t = np.log(-targets)
        sol = solve_ivp(rhs, (math.log(-seed), t[-1]),
                        [series.value(seed), series.derivative(seed)],
                        method="DOP853", rtol=1e-12, atol=0.0, t_eval=t)
        assert sol.success
        paths.append((energy, targets, *sol.y))
    return paths


class TestAgainstDOP853:
    """heun_continue_arrays against an adaptive eighth-order solve (dop853_paths).

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
        for energy, targets, g_ref, gp_ref in dop853_paths:
            scale = np.hypot(g_ref, targets * gp_ref)
            for tol in (1e-8, 1e-10):
                g, gp = one_energy(energy, targets, tol=tol)
                error = np.maximum(np.abs(g - g_ref), np.abs(targets * (gp - gp_ref)))
                assert np.all(error <= tol * scale), (energy, tol)


def _far_grid(ell):
    """(B, q0, q1, y): 40 targets from y = -0.3 to y* per energy, (energies, 40) for y.

    kappa from kappa* + 1e-5 to 100 and omega from 1e-20 down to 1e-150 for
    ell <= 1; for ell >= 2 down to 1e-100, since beyond it the states fall
    below the smallest double (e^(-(ell + 5/2) t/2) at t = ln(1e150)), on the
    panels as in the far field.
    """
    kappa_star = 0.25 * (ell + 0.5) ** 2
    kappas = kappa_star + np.array([1e-5, 1e-3, 0.1, 1.0])
    omegas = [1e-20, 1e-45, 1e-100] + ([1e-150] if ell <= 1 else [])
    kappa, omega = (np.ravel(x) for x in np.meshgrid(np.append(kappas, 100.0), omegas))
    y_star = spectral._spectral_points(omega)
    y = -np.geomspace(0.3, -y_star, 40, axis=1)
    B, q0, q1 = heun_coefficients(np.repeat(kappa, 40), ell, np.repeat(omega, 40))
    return B, q0, q1, y


class TestFarField:
    """The closed-form far-field stretch against the panel-only path it replaces."""

    @pytest.mark.parametrize("B, q0", [
        (0.5, 1.4), (0.5, 1.5625), (0.5, 1.5626), (0.5, 101.5),  # nu^2 < 0, = 0, > 0
        (2.5, 1.0),   # cosh(k s) alone overflows beyond s = 352
        (-1.5, 0.05), (-1.5, 0.0625), (-1.5, 0.0626),  # beta = 1/4: representable at s = 600
    ])
    def test_transfer_against_expm(self, B, q0):
        s = np.array([0.0, 1e-3, 0.7, 5.0, 50.0, 300.0, 600.0])
        with np.errstate(over="raise"):
            ends, turns = heun._far_step(B, np.full(s.size, q0), s)
        A = np.array([[0.0, 1.0], [-q0, -(B + 2.0)]])
        for k in range(s.size):
            ref = expm(A * s[k])
            scale = np.abs(ref).max()
            if scale > 1e-290:
                # expm itself is off by up to 2e-10 of the scale near nu = 0 at s = 300
                assert np.abs(ends[k] - ref.ravel()).max() <= 1e-9 * scale, s[k]
            else:
                assert np.all(np.isfinite(ends[k])) and np.abs(ends[k]).max() <= 1e-280
        # the turned angle against the unwrapped angle of (u_0, u_1) on a fine grid
        fine = np.linspace(0.0, 40.0, 4001)
        values, fine_turns = heun._far_step(B, np.full(fine.size, q0), fine)
        angle = np.unwrap(np.angle(values[:, 0] + 1j * values[:, 1]))
        assert fine_turns == pytest.approx(angle, abs=1e-9)
        assert np.all(np.diff(fine_turns) >= -1e-12)

    @pytest.mark.parametrize("ell, limit, before", [(0, 20, 40), (1, 28, 56)])
    def test_panels_of_a_critical_floor_energy(self, monkeypatch, ell, limit, before):
        # the benchmark's floor energies, kappa* + 1e-4 to kappa* + 1.23e-3 at
        # omega = 1e-45, counted at its tolerance 1e-6
        kappa = 0.25 * (ell + 0.5) ** 2 + np.array([1e-4, 5e-4, 1.23e-3])
        B, q0, q1 = heun_coefficients(kappa, ell, np.full(3, 1e-45))
        t = np.log(-spectral._spectral_points(np.full(3, 1e-45)))
        t0 = np.log(heun._certified_radius(q0, q1))

        def panels():
            owner, *_, far = heun._solved_panels(B, q0, q1, t0, t, np.arange(3) + 1j * t,
                                                 1e-6, count=True)
            return np.bincount(owner), np.bincount(owner[far], minlength=3)

        chain, far = panels()
        assert np.all(chain <= limit) and np.array_equal(far, [1, 1, 1])
        monkeypatch.setattr(heun, "_far_field", no_far_field)
        chain, far = panels()
        assert np.all(chain >= before) and not far.any()

    def test_every_panel_far(self):
        # at tol = 1e10 each energy's far-field stretch starts before its
        # seed, so no panel is left to solve: the solve loop once ended on an
        # empty tuple and raised IndexError.  The public functions take tol
        # below 1 only: at 1e10 their values had the wrong signs
        B, q0, q1 = heun_coefficients(2.0, 0, np.array([0.1, 1e-3]))
        y = np.array([-4.0, -500.0])
        t, t0 = np.log(-y), np.log(heun._certified_radius(q0, q1))
        *_, far = heun._solved_panels(B, q0, q1, t0, t, np.arange(2) + 1j * t, 1e10)
        assert far.all()
        for evaluate in (heun_continue_arrays, heun_zero_counts):
            with pytest.raises(ValueError, match=r"^tol must be finite and in \(0, 1\)"):
                evaluate(B, q0, q1, y, tol=1e10)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("ell", [0, 1, 2, 3])
    def test_against_the_panel_only_path(self, monkeypatch, ell, tol):
        B, q0, q1, y = _far_grid(ell)
        flat = y.ravel()
        n, _, _ = heun_zero_counts(B, q0, q1, flat, tol=tol)
        g, gp = heun_continue_arrays(B, q0, q1, flat, tol=tol)
        t1, _ = heun._far_field(B, q0[::40], q1[::40], np.log(-y[:, -1]), tol)
        assert np.isfinite(t1[5:]).all()  # every energy from omega = 1e-45 down takes it
        monkeypatch.setattr(heun, "_far_field", no_far_field)
        assert np.array_equal(heun_zero_counts(B, q0, q1, flat, tol=tol)[0], n)
        g_panels, gp_panels = heun_continue_arrays(B, q0, q1, flat, tol=tol)
        g_ref, gp_ref = heun_continue_arrays(B, q0, q1, flat, tol=tol / 10)
        u, du = g_ref.reshape(y.shape), (y.ravel() * gp_ref).reshape(y.shape)
        scale = envelope(B, y, u, du)

        def error(g, gp):
            return np.maximum(np.abs(g.reshape(y.shape) - u),
                              np.abs((flat * gp).reshape(y.shape) - du)) / scale

        # for every energy whose panel-only path at tol stays within tol of
        # its reference at tol/10, the far field does too; at 1e-10 the
        # panels of the deepest near-critical energies drift by up to 3 tol
        converged = np.all(error(g_panels, gp_panels) <= tol, axis=1)
        assert converged.mean() >= (1.0 if tol >= 1e-8 else 0.9)
        assert np.all(error(g, gp)[converged] <= tol)
