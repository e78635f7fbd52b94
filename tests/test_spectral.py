"""Spectral scan, root finding, closed form, and unit conversion tests."""

import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from gupheun import heun
from gupheun.heun import CouplingConfig, EnergyPoint, HeunEvaluationError
from gupheun.spectral import (
    METHOD_CLOSED_FORM,
    METHOD_EXACT,
    NoTransitionError,
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
        assert np.array_equal(np.isnan(scan.values), np.isnan(values))

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
        # a stand-in integrator that fails every solve holding a seed value
        # below 0.3: the failed batch is retried one energy at a time, and
        # exactly the energies that fail alone become gaps
        solve_ivp = heun.solve_ivp

        def flaky(fun, t_span, y0, **kwargs):
            if np.any(y0[:len(y0) // 2] < 0.3):
                return SimpleNamespace(success=False, message="stand-in failure")
            return solve_ivp(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(heun, "solve_ivp", flaky)
        cfg = CouplingConfig(kappa=2.0, ell=0)
        scan = spectral_scan(cfg, 1e-4, 0.45, 40)
        values = _pointwise(cfg, scan.omegas, scan.tol)
        failed = np.isnan(values)
        assert failed.any() and not failed.all()
        assert np.array_equal(np.isnan(scan.values), failed)
        assert np.allclose(scan.values[~failed], values[~failed], rtol=1e-6)


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


class TestCriticalCoupling:
    def test_boundary_formula_ell1(self):
        # nu real requires kappa > (ell+1/2)^2/4 = 0.5625 for ell = 1; the
        # scan bisection reproduces it at coarse tolerance
        kappa_star = critical_coupling(1, 0.54, 0.62, omega_floor=1e-30,
                                       n_points=60, kappa_tol=4e-3)
        assert kappa_star == pytest.approx(0.5625, abs=0.012)

    def test_no_transition_both_present(self):
        with pytest.raises(NoTransitionError):
            critical_coupling(0, 0.2, 0.3, omega_floor=1e-30, n_points=80)

    def test_no_transition_both_absent(self):
        with pytest.raises(NoTransitionError):
            critical_coupling(0, 0.01, 0.03, omega_floor=1e-20, n_points=60)


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
