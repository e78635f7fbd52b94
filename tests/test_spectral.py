"""Spectral scan, root finding, closed form, and unit conversion tests."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from gupheun import heun, spectral
from gupheun.heun import CouplingConfig, EnergyPoint, HeunEvaluationError
from gupheun.spectral import (
    DEFAULT_SCAN_TOL,
    METHOD_CLOSED_FORM,
    METHOD_EXACT,
    NoTransitionError,
    REFINE_EVAL_TOL,
    SpectralScan,
    SpectrumResult,
    UnitMismatchError,
    UnitSystem,
    _find_brackets,
    closed_form_spectrum,
    compare_spectra,
    critical_coupling,
    energy_from_omega,
    find_roots,
    hypergeometric_condition_roots,
    natural_units_for,
    spectral_function,
    spectral_point,
    spectral_scan,
    to_physical_energy,
)

from heun_oracle import heun_oracle

RATIO_K2 = math.exp(-2.0 * math.pi / math.sqrt(7.75))


class TestScan:
    def test_spectral_point(self):
        assert spectral_point(EnergyPoint.from_omega(0.25)) == -1.0
        assert spectral_point(EnergyPoint.from_omega(0.25), point_scale=2.0) == -4.0

    def test_weak_coupling_no_brackets(self):
        scan = spectral_scan(CouplingConfig(kappa=0.05, ell=0), 1e-4, 0.4, 200)
        assert scan.brackets == ()

    def test_ground_state_bracket_kappa_34(self):
        scan = spectral_scan(CouplingConfig(kappa=0.75, ell=0), 0.02, 0.1, 80)
        assert any(scan.omegas[i] <= 0.0491 <= scan.omegas[j]
                   for i, j in scan.brackets)

    def test_window_validation(self):
        cfg = CouplingConfig(kappa=1.0, ell=0)
        with pytest.raises(ValueError):
            spectral_scan(cfg, 0.2, 0.1, 50)
        with pytest.raises(ValueError):
            spectral_scan(cfg, 1e-3, 0.6, 50)


def _pointwise(cfg, omegas, tol):
    """spectral_function at every omega, NaN where it raises."""
    values = []
    for w in omegas:
        try:
            values.append(spectral_function(cfg, float(w), tol=tol))
        except HeunEvaluationError:
            values.append(math.nan)
    return np.array(values)


class TestBrackets:
    def test_matches_loop_reference(self):
        def loop_brackets(values):
            out = []
            for i in range(len(values) - 1):
                vi, vj = values[i], values[i + 1]
                if not (np.isfinite(vi) and np.isfinite(vj)):
                    continue
                if vi == 0.0:
                    out.append((i, i))
                elif vi * vj < 0.0:
                    out.append((i, i + 1))
            if len(values) and values[-1] == 0.0:
                out.append((len(values) - 1, len(values) - 1))
            return tuple(out)

        rng = np.random.default_rng(7)
        for n in (0, 1, 2, 5, 40):
            for _ in range(50):
                values = rng.choice([-2.0, -0.5, 0.0, 0.0, 1.0, 3.0, np.nan], size=n)
                assert _find_brackets(values) == loop_brackets(values)

    def test_sign_test_does_not_overflow(self):
        values = np.array([1e200, -1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            brackets = _find_brackets(values)
            SpectralScan(omegas=np.array([0.1, 0.2, 0.3]), values=values,
                         brackets=brackets, kappa=1.0, ell=0)
        assert brackets == ((0, 1), (1, 2))
        # the product of these underflows to -0.0, which hid the sign change
        assert _find_brackets(np.array([1e-200, -1e-200])) == ((0, 1),)


class TestBatchedScan:
    """spectral_scan evaluates its grid in one batch; spectral_function one point."""

    @pytest.mark.parametrize("kappa", [0.75, 2.0, 5.0])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_matches_pointwise(self, kappa, ell):
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        scan = spectral_scan(cfg, 1e-4, 0.45, 48)
        values = _pointwise(cfg, scan.omegas, scan.tol)
        assert scan.brackets == _find_brackets(values)
        assert np.array_equal(scan.values, values, equal_nan=True)

    def test_default_grid_matches_pointwise_bitwise(self, scan_k2):
        # the batch computes EnergyPoint, heun_params and spectral_point on
        # arrays; every bit of the 600 values must survive that
        values = _pointwise(CouplingConfig(kappa=2.0, ell=0), scan_k2.omegas, scan_k2.tol)
        assert np.array_equal(scan_k2.values, values, equal_nan=True)

    @pytest.mark.parametrize("omega", [0.0, 0.5, math.nan])
    def test_invalid_energy_raises_as_energy_point(self, omega):
        omegas = np.array([0.1, omega, 0.2])
        with pytest.raises(ValueError) as expected:
            EnergyPoint.from_omega(omega)
        with pytest.raises(ValueError) as got:
            spectral._spectral_values(CouplingConfig(kappa=2.0, ell=0), omegas, 1e-8, 1.0)
        assert str(got.value) == str(expected.value)

    def test_non_finite_parameters_raise_as_heun_params(self):
        # at kappa = 1e308 d and e overflow once epsilon < 1/2 or so
        cfg = CouplingConfig(kappa=1e308, ell=1)
        with pytest.raises(ValueError) as expected:
            heun.heun_params(cfg, EnergyPoint.from_omega(0.4))
        with pytest.raises(ValueError) as got:
            spectral._spectral_values(cfg, np.array([1e-3, 0.4]), 1e-8, 1.0)
        assert str(got.value) == str(expected.value) == "parameter d must be finite"

    def test_strong_coupling_near_upper_edge(self):
        cfg = CouplingConfig(kappa=3e4, ell=0)
        scan = spectral_scan(cfg, 0.3, 0.45, 16)
        values = _pointwise(cfg, scan.omegas, scan.tol)
        assert np.array_equal(np.isnan(scan.values), np.isnan(values))
        assert scan.brackets == _find_brackets(values)

    def test_failed_series_become_gaps(self, monkeypatch):
        # with the term cap lowered, only the energies whose target sits
        # close to the origin keep a convergent series
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", 50)
        cfg = CouplingConfig(kappa=2.0, ell=0)
        scan = spectral_scan(cfg, 1e-4, 0.45, 40)
        values = _pointwise(cfg, scan.omegas, scan.tol)
        failed = np.isnan(values)
        assert failed.any() and not failed.all()
        assert np.array_equal(np.isnan(scan.values), failed)

    def test_failed_integrations_become_gaps(self, monkeypatch):
        # non-finite panel coefficients for three chosen energies: exactly
        # those become gaps, and every other energy keeps its pointwise value
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omegas = np.exp(np.linspace(math.log(1e-4), math.log(0.45), 40))
        values = _pointwise(cfg, omegas, DEFAULT_SCAN_TOL)
        chosen = [5, 17, 30]
        poisoned = [heun._linear_coefficients(heun.heun_params(cfg, EnergyPoint.from_omega(w)))[2]
                    for w in omegas[chosen]]
        equation_coefficients = heun._equation_coefficients

        def poison(B, q0, q1, t):
            P, Q = equation_coefficients(B, q0, q1, t)
            return P, np.where(np.isin(q0, poisoned), np.nan, Q)

        monkeypatch.setattr(heun, "_equation_coefficients", poison)
        scan = spectral_scan(cfg, 1e-4, 0.45, 40)
        assert np.flatnonzero(np.isnan(scan.values)).tolist() == chosen
        others = np.setdiff1d(np.arange(40), chosen)
        assert np.array_equal(scan.values[others], values[others])


class TestMpmathOracle:
    # default-grid energies at kappa = 100 where the series seeded at y = -0.5
    # cancels away every digit; that seed gave the wrong sign at all three
    DEFAULT_GRID_INDICES = (587, 591, 595)

    def test_scan_values_at_strong_coupling(self):
        cfg = CouplingConfig(kappa=100.0, ell=0)
        scan = spectral_scan(cfg)
        for i in self.DEFAULT_GRID_INDICES:
            omega = float(scan.omegas[i])
            ref = float(heun_oracle(100.0, 0, omega))
            assert scan.values[i] == pytest.approx(ref, rel=1e-8)
            assert spectral_function(cfg, omega, tol=1e-10) == pytest.approx(ref, rel=1e-9)

    def test_root_at_strong_coupling(self):
        ref = mpmath.findroot(lambda w: heun_oracle(20.0, 1, w), mpmath.mpf("0.40944"))
        scan = spectral_scan(CouplingConfig(kappa=20.0, ell=1), 0.40, 0.42, 20)
        (root,) = find_roots(scan, tol=1e-12).omegas
        assert abs(root - float(ref)) < 1e-9


class TestFindRoots:
    def test_kappa_34_ground_state(self):
        scan = spectral_scan(CouplingConfig(kappa=0.75, ell=0), 5e-4, 0.45, 300)
        result = find_roots(scan, tol=1e-9)
        assert result.method == METHOD_EXACT
        assert len(result) >= 2
        assert result.omegas[0] == pytest.approx(0.0491, abs=0.002)
        assert all(a > b for a, b in zip(result.omegas, result.omegas[1:]))

    def test_kappa_2_known_levels(self, roots_k2):
        assert roots_k2.omegas[0] == pytest.approx(0.2486, abs=0.005)
        assert min(abs(w - 0.0167) for w in roots_k2.omegas) <= 0.001
        assert min(abs(w - 1.67e-4) / 1.67e-4 for w in roots_k2.omegas) <= 0.10

    def test_root_certification(self, scan_k2, roots_k2):
        from gupheun.spectral import spectral_function
        cfg = CouplingConfig(kappa=2.0, ell=0)
        scale = np.nanmax(np.abs(scan_k2.values))
        for w in roots_k2.omegas:
            assert abs(spectral_function(cfg, w, tol=1e-10)) < 1e-6 * scale

    @pytest.mark.parametrize("kappa,ell", [(2.0, 0), (5.0, 2)])
    def test_agrees_with_brent(self, kappa, ell):
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        scan = spectral_scan(cfg, 1e-4, 0.45, 200)
        xtol = 1e-9

        def f(w):
            return spectral_function(cfg, w, tol=REFINE_EVAL_TOL)

        reference = sorted((brentq(f, scan.omegas[i], scan.omegas[j], xtol=xtol)
                            for i, j in scan.brackets), reverse=True)
        roots = find_roots(scan, tol=xtol).omegas
        assert len(roots) == len(reference) > 0
        assert np.max(np.abs(np.subtract(roots, reference))) < xtol

    def test_bracket_without_sign_change_dropped(self):
        # (0, 1) holds the kappa = 2 ground state 0.2486; the stored values at
        # 0.30 and 0.35 claim a sign change that the spectral function lacks
        cfg = CouplingConfig(kappa=2.0, ell=0)
        omegas = np.array([0.24, 0.26, 0.30, 0.35])
        values = np.array([spectral_function(cfg, 0.24), spectral_function(cfg, 0.26),
                           1.0, -1.0])
        scan = SpectralScan(omegas=omegas, values=values, brackets=((0, 1), (2, 3)),
                            kappa=2.0, ell=0)
        with pytest.warns(RuntimeWarning, match="lost its sign change") as record:
            result = find_roots(scan)
        assert len(record) == 1
        assert len(result) == 1 and result.omegas[0] == pytest.approx(0.2486, abs=0.005)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerance_validation(self, scan_k2, tol):
        # at tol = inf deduplication at 2*tol used to merge every root into one
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            find_roots(scan_k2, tol=tol)

    def test_failed_refinement_raises(self, monkeypatch):
        scan = spectral_scan(CouplingConfig(kappa=2.0, ell=0), 0.2, 0.3, 40)
        assert scan.brackets
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", 5)
        with pytest.raises(HeunEvaluationError):
            find_roots(scan)

    def test_level_count_growth(self, roots_k2):
        # counts in (omega, 0.05) grow like (nu/2pi) ln(1/omega): two decades
        # should add round(nu/2pi * ln 100) = 2 levels, within +-1
        nu = math.sqrt(7.75)
        n_hi = sum(1 for w in roots_k2.omegas if 1e-3 < w < 0.05)
        n_lo = sum(1 for w in roots_k2.omegas if 1e-5 < w < 0.05)
        expected = nu / (2 * math.pi) * math.log(100.0)
        assert abs((n_lo - n_hi) - expected) <= 1.0


class TestClosedForm:
    def test_successive_ratio_is_exact(self):
        result = closed_form_spectrum(CouplingConfig(kappa=2.0, ell=0), n_max=6)
        for a, b in zip(result.omegas, result.omegas[1:]):
            assert b / a == pytest.approx(RATIO_K2, rel=1e-12)

    def test_kappa2_frozen_levels(self):
        # omega_n = exp[(2/nu)(arg B - (n+1/2) pi)]/2 evaluated with mpmath;
        # n = 0 (0.2302...) fails the validity cut and must be absent
        result = closed_form_spectrum(CouplingConfig(kappa=2.0, ell=0), n_max=8)
        assert result.method == METHOD_CLOSED_FORM
        expected = (0.024096017424159698, 0.0025220190351602024, 0.0002639681031826034)
        assert len(result) == 8
        for got, ref in zip(result.omegas, expected):
            assert got == pytest.approx(ref, rel=1e-10)
        assert all(w < 0.05 for w in result.omegas)

    def test_validity_cut_configurable(self):
        result = closed_form_spectrum(CouplingConfig(kappa=2.0, ell=0), n_max=3,
                                      validity=0.499)
        assert result.omegas[0] == pytest.approx(0.23021953744632478, rel=1e-10)

    @pytest.mark.parametrize("validity", [math.nan, math.inf, 0.0, -0.1])
    def test_validity_validation(self, validity):
        # a NaN cut used to discard every level and return an empty spectrum
        with pytest.raises(ValueError, match="validity must be finite and positive"):
            closed_form_spectrum(CouplingConfig(kappa=2.0, ell=0), validity=validity)

    def test_weak_coupling_empty(self):
        assert len(closed_form_spectrum(CouplingConfig(kappa=0.05, ell=0))) == 0
        # the boundary kappa = 1/16 counts as weak: nu = 0 is degenerate
        assert len(closed_form_spectrum(CouplingConfig(kappa=1 / 16, ell=0))) == 0


class TestHypergeometricCondition:
    def test_kappa2_deepest_root(self):
        result = hypergeometric_condition_roots(CouplingConfig(kappa=2.0, ell=0),
                                                omega_range=(1e-6, 0.05))
        # frozen from an mpmath scan of F(alpha', gamma'; 3/2; -1/Omega)
        assert result.omegas[0] == pytest.approx(0.024635698555740094, rel=1e-6)

    def test_agrees_with_closed_form_when_shallow(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        hyper = hypergeometric_condition_roots(cfg, omega_range=(1e-6, 0.05))
        closed = closed_form_spectrum(cfg, n_max=10)
        for w in hyper.omegas:
            if w >= 1e-3:
                continue
            nearest = min(closed.omegas, key=lambda c: abs(math.log(c / w)))
            assert abs(nearest - w) / w < 0.05

    def test_constant_offset_from_exact_condition(self, roots_k2):
        # the shallow-limit reduction keeps the level ratio but carries a
        # constant log-phase offset relative to the exact condition: the
        # deepest reduced root sits ~47% above the exact 0.0167, uniformly
        hyper = hypergeometric_condition_roots(CouplingConfig(kappa=2.0, ell=0),
                                               omega_range=(1e-6, 0.05))
        exact_near = min(roots_k2.omegas, key=lambda w: abs(w - 0.0167))
        assert hyper.omegas[0] / exact_near == pytest.approx(1.473, abs=0.05)

    def test_weak_coupling_empty(self):
        result = hypergeometric_condition_roots(CouplingConfig(kappa=0.05, ell=0))
        assert len(result) == 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hypergeometric_condition_roots(CouplingConfig(kappa=2.0, ell=0),
                                           omega_range=(1e-3, 0.2))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tolerance_validation(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            hypergeometric_condition_roots(CouplingConfig(kappa=2.0, ell=0), tol=tol)

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_point_count_validation(self, n_points):
        # fewer than two points hold no bracket and would report no levels
        with pytest.raises(ValueError):
            hypergeometric_condition_roots(CouplingConfig(kappa=2.0, ell=0), n_points=n_points)


class TestCriticalCoupling:
    def test_boundary_formula_ell1(self):
        # nu real requires kappa > (ell+1/2)^2/4 = 0.5625 for ell = 1; the
        # bisection on the level count reproduces it at coarse tolerance
        kappa_star = critical_coupling(1, 0.54, 0.62, omega_floor=1e-30, kappa_tol=4e-3)
        assert kappa_star == pytest.approx(0.5625, abs=0.012)

    def test_no_transition_both_present(self):
        with pytest.raises(NoTransitionError):
            critical_coupling(0, 0.2, 0.3, omega_floor=1e-30)

    def test_no_transition_both_absent(self):
        with pytest.raises(NoTransitionError):
            critical_coupling(0, 0.01, 0.03, omega_floor=1e-20)

    @pytest.mark.parametrize("kappa_tol", [0.0, -1e-3, math.nan])
    def test_kappa_tol_validation(self, monkeypatch, kappa_tol):
        # such a tolerance would keep the bisection going forever: it must be
        # rejected before the first level count
        def no_count(*args, **kwargs):
            raise AssertionError("counted levels before checking kappa_tol")

        monkeypatch.setattr(spectral, "heun_zero_counts", no_count)
        with pytest.raises(ValueError):
            critical_coupling(0, 0.05, 0.08, kappa_tol=kappa_tol)

    @pytest.mark.parametrize("window", [(0.0, 0.4), (1e-45, 0.5), (0.4, 1e-45)])
    def test_window_validation(self, window):
        with pytest.raises(ValueError):
            critical_coupling(0, 0.05, 0.08, omega_floor=window[0], omega_max=window[1])

    def test_failed_count_is_numerical_error(self, monkeypatch):
        # a count that cannot be made is a failure, not "no bound states"
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", 5)
        with pytest.raises(HeunEvaluationError, match="zero count"):
            critical_coupling(0, 0.05, 0.08)


def _scan_levels(kappa, ell, lo, hi, points):
    """Brackets of a points-long scan over [lo, hi], and of one with twice the points."""
    cfg = CouplingConfig(kappa=kappa, ell=ell)
    return tuple(len(spectral_scan(cfg, lo, hi, n, tol=1e-6).brackets)
                 for n in (points, 2 * points))


class TestLevelCount:
    """N(omega_lo) - N(omega_hi), the zeros of g on (y*, 0), against dense scans.

    A scan resolves every level when doubling its grid finds no more brackets.
    """

    @pytest.mark.parametrize("ell,offset,levels", [
        (0, -1e-3, 0), (0, 8.0e-4, 0), (0, 8.8e-4, 1), (0, 1.2e-3, 1), (0, 5e-3, 2),
        (0, 5e-2, 7), (1, 8.8e-4, 0), (1, 1.0e-3, 1)])
    def test_near_critical(self, ell, offset, levels):
        kappa = 0.25 * (ell + 0.5) ** 2 + offset
        count = spectral._level_counts(ell, [kappa], 1e-45, 0.4, 1e-6)[0]
        assert count == levels
        assert _scan_levels(kappa, ell, 1e-45, 0.4, 80) == (levels, levels)

    @pytest.mark.parametrize("kappa", [2.0, 20.0])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_moderate_coupling(self, kappa, ell):
        count = spectral._level_counts(ell, [kappa], 1e-12, 0.4, 1e-6)[0]
        assert count > 0
        assert _scan_levels(kappa, ell, 1e-12, 0.4, 300) == (count, count)

    def test_counts_levels_the_default_grid_misses(self):
        # level spacing 2*pi/nu = 0.56 e-folds at kappa = 31.6853: the
        # 160-point critical grid over [1e-45, 0.4] (0.65 e-folds a step)
        # finds 134 of the 182 levels; in [1e-45, 1e-42] a 100-point scan
        # resolves all of them
        cfg = CouplingConfig(kappa=31.6853, ell=0)
        assert spectral._level_counts(0, [cfg.kappa], 1e-45, 0.4, 1e-6)[0] == 182
        assert len(spectral_scan(cfg, 1e-45, 0.4, 160, tol=1e-6).brackets) == 134
        count = spectral._level_counts(0, [cfg.kappa], 1e-45, 1e-42, 1e-6)[0]
        assert count == 12
        assert _scan_levels(cfg.kappa, 0, 1e-45, 1e-42, 100) == (count, count)

    @pytest.mark.slow
    def test_counts_levels_the_default_grid_misses_full_window(self):
        # the 182 levels of the test above, from a 4000-point scan (about 3 s
        # on a 2-core Xeon) and the doubled one
        assert _scan_levels(31.6853, 0, 1e-45, 0.4, 4000) == (182, 182)

    def test_count_is_monotone_in_omega(self):
        # as omega -> 1/2 a zero sits near y = -(B+1)*eps/kappa, inside
        # (y*, 0): N(0.4999) = 1 with no level above 0.4, so the levels in a
        # window are N(omega_lo) - N(omega_hi), not N(omega_lo) alone
        kappa, ell = 8.229322074546221, 1
        omegas = np.exp(np.linspace(math.log(1e-45), math.log(0.4999), 60))
        n = heun.heun_zero_counts(*spectral._heun_arguments(kappa, ell, omegas, 1.0), tol=1e-6)
        assert np.all(np.diff(n) <= 0)
        assert n[-1] == 1
        assert spectral._level_counts(ell, [kappa], 0.4, 0.4999, 1e-6)[0] == 0
        assert _scan_levels(kappa, ell, 0.4, 0.4999, 100) == (0, 0)


class TestCompare:
    def test_identical_zero_deviation(self, roots_k2):
        comparison = compare_spectra(roots_k2, roots_k2)
        assert all(r.rel_dev == 0.0 for r in comparison.rows)
        assert len(comparison.rows) == len(roots_k2)

    def test_both_empty_agreement(self):
        empty_exact = SpectrumResult(METHOD_EXACT, (), 0.05, 0)
        empty_closed = SpectrumResult(METHOD_CLOSED_FORM, (), 0.05, 0)
        comparison = compare_spectra(empty_exact, empty_closed)
        assert comparison.both_empty is True
        assert comparison.rows == ()

    def test_kappa2_against_closed_form(self, roots_k2):
        closed = closed_form_spectrum(CouplingConfig(kappa=2.0, ell=0), n_max=10)
        comparison = compare_spectra(roots_k2, closed)
        assert comparison.ratio_reference == pytest.approx(RATIO_K2, rel=1e-12)
        # deep successive ratios approach the asymptotic contraction
        assert comparison.ratios_exact[-1] == pytest.approx(RATIO_K2, rel=0.02)
        # the ground state has no shallow partner; deeper levels pair with a
        # uniform ~58% offset (same log period, shifted anchor)
        paired_n = {r.n for r in comparison.rows}
        assert 1 not in paired_n
        deep = [r for r in comparison.rows if r.omega_exact < 1e-3]
        assert deep and all(0.4 < r.rel_dev < 0.75 for r in deep)

    def test_mismatched_configs_rejected(self, roots_k2):
        other = SpectrumResult(METHOD_CLOSED_FORM, (0.01,), 3.0, 0)
        with pytest.raises(ValueError):
            compare_spectra(roots_k2, other)


class TestUnits:
    def test_energy_from_omega_zero(self):
        units = UnitSystem(mass=2.0, hbar=1.0, beta=0.5, alpha_coupling=1.0)
        assert energy_from_omega(0.0, units) == 0.0

    def test_natural_units_conversion(self):
        result = SpectrumResult(METHOD_EXACT, (0.2486,), 2.0, 0)
        energies = to_physical_energy(result, natural_units_for(2.0))
        assert energies == [pytest.approx(-0.1243, rel=1e-12)]

    def test_prefactor_identity(self):
        # 1/(4 m beta) equals 5 hbar^2 / (4 m dx_min^2) identically
        rng = np.random.default_rng(23)
        for _ in range(20):
            units = UnitSystem(mass=float(rng.uniform(0.1, 10)),
                               hbar=float(rng.uniform(0.1, 10)),
                               beta=float(rng.uniform(0.01, 10)),
                               alpha_coupling=float(rng.uniform(0.1, 10)))
            assert units.energy_scale == pytest.approx(
                5.0 * units.hbar**2 / (4.0 * units.mass * units.min_length**2), rel=1e-14)

    def test_kappa_mismatch_rejected(self):
        result = SpectrumResult(METHOD_EXACT, (0.1,), 2.0, 0)
        bad_units = UnitSystem(mass=1.0, hbar=1.0, beta=1.0, alpha_coupling=1.0)
        with pytest.raises(UnitMismatchError):
            to_physical_energy(result, bad_units)

    def test_scale_covariance(self):
        # same kappa, different scales: omegas untouched, energies scale by
        # exactly 1/(2 m beta)
        kappa = 2.0
        result = SpectrumResult(METHOD_EXACT, (0.2486, 0.0167), kappa, 0)
        u1 = natural_units_for(kappa)
        mass, hbar, beta = 3.0, 2.0, 0.5
        u2 = UnitSystem(mass=mass, hbar=hbar, beta=beta,
                        alpha_coupling=2.0 * kappa * hbar**2 / mass)
        e1 = to_physical_energy(result, u1)
        e2 = to_physical_energy(result, u2)
        for a, b in zip(e1, e2):
            assert b == pytest.approx(a * (2.0 * 1.0 * 1.0) / (2.0 * mass * beta),
                                      rel=1e-14)

    def test_spectrum_result_validation(self):
        with pytest.raises(ValueError):
            SpectrumResult(METHOD_EXACT, (0.1, 0.2), 1.0, 0)  # increasing
        with pytest.raises(ValueError):
            SpectrumResult(METHOD_EXACT, (0.6,), 1.0, 0)
        with pytest.raises(ValueError):
            SpectrumResult("bogus", (), 1.0, 0)
