"""Spectral scan, root finding, closed form, and unit conversion tests."""

import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from gupheun import default_xi_grid, heun, radial, spectral, wavefunction
from gupheun.heun import CouplingConfig, EnergyPoint, HeunEvaluationError
from gupheun.spectral import (
    DEFAULT_SCAN_TOL,
    METHOD_CLOSED_FORM,
    METHOD_EXACT,
    NoTransitionError,
    SpectralScan,
    SpectrumResult,
    UnitMismatchError,
    UnitSystem,
    _chandrupatla,
    _find_brackets,
    closed_form_spectrum,
    compare_spectra,
    critical_coupling,
    exact_spectrum,
    spectral_scan,
    to_physical_energy,
)

from heun_oracle import envelope, heun_oracle, no_far_field
from hyp_oracle import hypergeometric_condition_roots

RATIO_K2 = math.exp(-2.0 * math.pi / math.sqrt(7.75))


class TestScan:
    def test_spectral_point(self):
        assert spectral._spectral_points(0.25) == -1.0

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
    """The spectral function one omega at a time, NaN where it fails."""
    return np.array([spectral._spectral_values(cfg, np.array([w]), tol)[0] for w in omegas])


class TestBrackets:
    def test_matches_loop_reference(self):
        def loop_brackets(values):
            # NaN points and exact zeros are gaps alike
            out = []
            for i in range(len(values) - 1):
                vi, vj = values[i], values[i + 1]
                if np.isfinite(vi) and np.isfinite(vj) and vi * vj < 0.0:
                    out.append((i, i + 1))
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
            scan = SpectralScan(omegas=np.array([0.1, 0.2, 0.3]), values=values)
            assert scan.brackets == brackets
        assert brackets == ((0, 1), (1, 2))
        # the product of these underflows to -0.0, which hid the sign change
        assert _find_brackets(np.array([1e-200, -1e-200])) == ((0, 1),)

    def test_underflowed_values_make_no_brackets(self):
        # below omega ~ 3e-261 the values at kappa = 2 underflow to -0.0; an
        # exact zero there is no root, so every bracket is a sign change
        # between two finite, nonzero neighbours
        scan = spectral_scan(CouplingConfig(kappa=2.0, ell=0), 1e-300, 0.45, 100)
        assert np.any(scan.values == 0.0) and scan.brackets
        for i, j in scan.brackets:
            vi, vj = scan.values[i], scan.values[j]
            assert j == i + 1
            assert np.isfinite(vi) and np.isfinite(vj) and vi != 0.0 and vj != 0.0
            assert np.signbit(vi) != np.signbit(vj)


class TestBatchedScan:
    """spectral_scan evaluates its grid in one batch, the same as one point at a time."""

    @pytest.mark.parametrize("kappa", [0.75, 2.0, 5.0])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_matches_pointwise(self, kappa, ell):
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        scan = spectral_scan(cfg, 1e-4, 0.45, 48)
        values = _pointwise(cfg, scan.omegas, DEFAULT_SCAN_TOL)
        assert scan.brackets == _find_brackets(values)
        assert np.array_equal(scan.values, values, equal_nan=True)

    def test_default_grid_matches_pointwise_bitwise(self, scan_k2):
        # one omega at a time or 600 in a batch: every bit of the 600 values
        # must be the same
        values = _pointwise(CouplingConfig(kappa=2.0, ell=0), scan_k2.omegas, DEFAULT_SCAN_TOL)
        assert np.array_equal(scan_k2.values, values, equal_nan=True)

    @pytest.mark.parametrize("omega", [0.0, 0.5, math.nan])
    def test_invalid_energy_raises_as_energy_point(self, omega):
        omegas = np.array([0.1, omega, 0.2])
        with pytest.raises(ValueError) as expected:
            EnergyPoint(omega)
        with pytest.raises(ValueError) as got:
            heun.heun_coefficients(2.0, 0, omegas)
        assert str(got.value) == str(expected.value) == f"omega must lie in (0, 1/2), got {omega}"
        with pytest.raises(ValueError) as scanned:
            spectral._spectral_values(CouplingConfig(kappa=2.0, ell=0), omegas, 1e-8)
        assert str(scanned.value) == str(expected.value)

    def test_non_finite_parameters_raise_as_heun_params(self):
        # at kappa = 1e308 d and e overflow once epsilon < 1/2 or so
        with pytest.raises(ValueError) as got:
            heun.heun_coefficients(1e308, 1, np.array([1e-3, 0.4]))
        assert str(got.value) == "parameter d must be finite"
        with pytest.raises(ValueError) as scanned:
            spectral._spectral_values(CouplingConfig(kappa=1e308, ell=1),
                                      np.array([1e-3, 0.4]), 1e-8)
        assert str(scanned.value) == "parameter d must be finite"

    def test_strong_coupling_near_upper_edge(self):
        cfg = CouplingConfig(kappa=3e4, ell=0)
        scan = spectral_scan(cfg, 0.3, 0.45, 16)
        values = _pointwise(cfg, scan.omegas, DEFAULT_SCAN_TOL)
        assert np.array_equal(np.isnan(scan.values), np.isnan(values))
        assert scan.brackets == _find_brackets(values)

    def test_failed_series_become_gaps(self, monkeypatch):
        # a seed series cannot fail, but a path can: with three continuation
        # panels per energy only the highest energies, whose spectral points
        # lie closest to the origin, keep a value
        monkeypatch.setattr(heun, "_MAX_PANELS", 3)
        cfg = CouplingConfig(kappa=2.0, ell=0)
        scan = spectral_scan(cfg, 1e-4, 0.45, 40)
        values = _pointwise(cfg, scan.omegas, DEFAULT_SCAN_TOL)
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
        poisoned = heun.heun_coefficients(cfg.kappa, cfg.ell, omegas[chosen])[1]
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
            (value,) = spectral._spectral_values(cfg, np.array([omega]), 1e-10)
            assert value == pytest.approx(ref, rel=1e-9)

    def test_root_at_strong_coupling(self):
        ref = mpmath.findroot(lambda w: heun_oracle(20.0, 1, w), mpmath.mpf("0.40944"))
        (root,) = exact_spectrum(CouplingConfig(kappa=20.0, ell=1), 0.40, 0.42, 20,
                                 tol=1e-12).omegas
        assert abs(root - float(ref)) < 1e-9


class TestFindRoots:
    def test_kappa_34_ground_state(self):
        result = exact_spectrum(CouplingConfig(kappa=0.75, ell=0), 5e-4, 0.45, 300)
        assert result.method == METHOD_EXACT
        assert len(result) >= 2
        assert result.omegas[0] == pytest.approx(0.0491, abs=0.002)
        assert all(a > b for a, b in zip(result.omegas, result.omegas[1:]))

    def test_kappa_2_known_levels(self, roots_k2):
        assert roots_k2.omegas[0] == pytest.approx(0.2486, abs=0.005)
        assert min(abs(w - 0.0167) for w in roots_k2.omegas) <= 0.001
        assert min(abs(w - 1.67e-4) / 1.67e-4 for w in roots_k2.omegas) <= 0.10

    def test_root_certification(self, scan_k2, roots_k2):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        scale = np.nanmax(np.abs(scan_k2.values))
        values = spectral._spectral_values(cfg, np.array(roots_k2.omegas), 1e-10)
        assert np.all(np.abs(values) < 1e-6 * scale)

    @pytest.mark.parametrize("kappa,ell", [(2.0, 0), (5.0, 2)])
    def test_agrees_with_brent(self, kappa, ell):
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        scan = spectral_scan(cfg, 1e-4, 0.45, 200)
        xtol = 1e-9

        def f(w):
            return spectral._spectral_values(cfg, np.array([w]), 1e-10)[0]

        reference = sorted((brentq(f, scan.omegas[i], scan.omegas[j], xtol=xtol)
                            for i, j in scan.brackets), reverse=True)
        roots = exact_spectrum(cfg, 1e-4, 0.45, 200).omegas
        assert len(roots) == len(reference) > 0
        assert np.max(np.abs(np.subtract(roots, reference))) < xtol

    @pytest.mark.parametrize("kappa,ell", [(2.0, 0), (20.0, 1)])
    def test_level_without_a_sign_change_raises(self, monkeypatch, kappa, ell):
        # a count with one more level up to grid point 300 of the default
        # window makes a level that g does not show, and every level below
        # it takes a count whose parity the sign of g does not follow
        y_cut = spectral._spectral_points(spectral._scan_grid(1e-5, 0.45, 600)[300])

        def one_more_level(B, q0, q1, y, tol):
            counts, values, fraction = heun.heun_zero_counts(B, q0, q1, y, tol=tol)
            return counts + (y <= y_cut), values, fraction

        monkeypatch.setattr(spectral, "heun_zero_counts", one_more_level)
        with pytest.raises(HeunEvaluationError, match=r"^level \d+ is not certified in omega = "
                           r"\[\S+, \S+\] by the count and the sign of g$"):
            exact_spectrum(CouplingConfig(kappa=kappa, ell=ell))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0, 1.0])
    def test_tolerance_validation(self, tol):
        # the first count rejects it
        with pytest.raises(ValueError, match=r"tol must be finite and in \(0, 1\)"):
            exact_spectrum(CouplingConfig(kappa=2.0, ell=0), 0.2, 0.3, 40, tol=tol)

    def test_failed_refinement_raises(self, monkeypatch):
        # counts of the grid evaluate; those of the refinement, between grid
        # points, fail: their paths need more than one continuation panel
        grid = spectral._spectral_points(spectral._scan_grid(0.2, 0.3, 40))

        def failing_off_the_grid(B, q0, q1, y, tol):
            if not np.isin(y, grid).all():
                monkeypatch.setattr(heun, "_MAX_PANELS", 1)
            return heun.heun_zero_counts(B, q0, q1, y, tol=tol)

        monkeypatch.setattr(spectral, "heun_zero_counts", failing_off_the_grid)
        with pytest.raises(HeunEvaluationError, match=r"^zero count to y = \S+ failed \(1 of 1 "):
            exact_spectrum(CouplingConfig(kappa=2.0, ell=0), 0.2, 0.3, 40)

    def test_missing_levels_warn_at_the_caller(self):
        # 20 points over [1e-5, 0.45] hold all 31 levels at kappa = 100, up
        # to 4 of them between two neighbours, and none is lost or warned of
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = exact_spectrum(CouplingConfig(kappa=100.0), 1e-5, 0.45, 20)
        assert len(result) == 31
        assert result.omegas == pytest.approx(exact_spectrum(CouplingConfig(kappa=100.0)).omegas,
                                              rel=1e-10)

    def test_level_count_growth(self, roots_k2):
        # counts in (omega, 0.05) grow like (nu/2pi) ln(1/omega): two decades
        # should add round(nu/2pi * ln 100) = 2 levels, within +-1
        nu = math.sqrt(7.75)
        n_hi = sum(1 for w in roots_k2.omegas if 1e-3 < w < 0.05)
        n_lo = sum(1 for w in roots_k2.omegas if 1e-5 < w < 0.05)
        expected = nu / (2 * math.pi) * math.log(100.0)
        assert abs((n_lo - n_hi) - expected) <= 1.0


class TestRootAccuracy:
    """Roots right to a relative tolerance, against an independent value and a tighter tol."""

    def test_ground_state_against_the_20_digit_value(self):
        # 0.248601740967385711 from an mpmath Taylor integration (odefun) of
        # the Heun equation at 20 digits, which shares no code with gupheun;
        # refining with an absolute 1e-9 tolerance left 7.3e-12 of it
        (omega_1, *_) = exact_spectrum(CouplingConfig(kappa=2.0, ell=0)).omegas
        assert abs(omega_1 / 0.248601740967385711 - 1.0) < 1e-14

    @pytest.mark.parametrize("kappa", [0.75, 2.0, 20.0])
    @pytest.mark.parametrize("ell", [0, 1])
    def test_default_window_roots_hold_at_tol_1e13(self, kappa, ell):
        # the absolute 1e-9 tolerance left up to 1.8e-6 (kappa = 20, ell = 1)
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        roots = np.array(exact_spectrum(cfg).omegas)
        tight = np.array(exact_spectrum(cfg, tol=1e-13).omegas)
        assert roots.size == tight.size > 0
        assert np.max(np.abs(roots / tight - 1.0)) < 1e-12

    @pytest.mark.parametrize("tol", [1e-15, 1e-16])
    def test_tolerance_below_the_resolution_of_ln_omega(self, tol):
        # a bracket that stopped within 4 eps |ln omega| of its root at both
        # ends left nothing to check, and every level raised
        roots = exact_spectrum(CouplingConfig(kappa=2.0, ell=0), tol=tol).omegas
        assert len(roots) == 5 and abs(roots[0] / 0.248601740967385711 - 1.0) < 1e-14

    def test_deep_window_at_a_tolerance_below_its_resolution(self):
        # 4 eps |ln 1e-100| is 2e-13
        cfg = CouplingConfig(kappa=2.0, ell=0)
        roots = np.array(exact_spectrum(cfg, 1e-100, tol=1e-13).omegas)
        assert roots.size == 102
        assert np.max(np.abs(roots / np.array(exact_spectrum(cfg, 1e-100).omegas) - 1.0)) < 1e-9

    @pytest.mark.parametrize("kappa", [0.75, 2.0, 20.0])
    @pytest.mark.parametrize("ell", [0, 1])
    def test_roots_do_not_depend_on_the_grid(self, kappa, ell):
        # the grid only picks the counted energies each level is solved from:
        # every one at 40 points, every 16th at 600 and every 62nd at 2400
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        coarse, default, fine = (np.array(exact_spectrum(cfg, n_points=n).omegas)
                                 for n in (40, 600, 2400))
        assert coarse.size == default.size == fine.size > 0
        assert np.max(np.abs(coarse / default - 1.0)) < 1e-12
        assert np.max(np.abs(fine / default - 1.0)) < 1e-12

    def test_deep_window_keeps_every_level(self):
        # the 12 levels of [1e-12, 0.45] at kappa = 2, the two deepest at
        # 2.4e-12 and 2.2e-10, which an absolute tolerance merged away
        cfg = CouplingConfig(kappa=2.0, ell=0)
        roots = np.array(exact_spectrum(cfg, 1e-12).omegas)
        tight = np.array(exact_spectrum(cfg, 1e-12, tol=1e-13).omegas)
        assert roots.size == tight.size == 12 and roots[-1] == pytest.approx(2.4e-12, rel=0.01)
        assert np.max(np.abs(roots / tight - 1.0)) < 1e-9


def _scipy_chandrupatla(f, lo, hi, f_lo, f_hi, xatol, **maxiter):
    """x, status and final bracket of scipy's find_root at the tolerances _chandrupatla ports.

    find_root values the ends itself, one call each: those calls get f_lo and f_hi.
    """
    ends = [f_lo, f_hi]
    res = find_root(lambda x, i: ends.pop(0) if ends else f(x, i), (lo, hi),
                    args=(np.arange(lo.size),), tolerances=dict(xatol=xatol, fatol=0.0),
                    **maxiter)
    return res.x, res.status, np.array(res.bracket)


def _port(f, lo, hi, xatol, **maxiter):
    """_chandrupatla on f(x), valued at the ends here."""
    return _chandrupatla(lambda x, _: f(x), lo, hi, f(lo), f(hi), xatol, **maxiter)


def _bits(x):
    """The bit patterns of x, every NaN made the same one."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


_FAMILIES = {
    # each is exactly 0.0 at x = x0, where its factor (x - x0) is
    "sine": lambda x0, a, c: lambda x: np.sin(a * (x - x0)) + c * (x - x0),
    "cubic": lambda x0, a, c: lambda x: (x - x0) * ((x - a) ** 2 - c),
}


# the default window's roots, 600 points over [1e-5, 0.45], from solving
# F = k for every counted level: exact_spectrum must give them bit for bit
_DEFAULT_WINDOW_ROOTS = {
    (0.75, 0): (0.049141924747754424, 0.0009090311070864412, 2.036678533338328e-05),
    (0.75, 1): (0.0001698009473225693,),
    (2.0, 0): (0.24860174096738497, 0.01672396872070716, 0.0016172630077723748,
               0.0001671285280381426, 1.746020977664133e-05),
    (2.0, 1): (0.04239560782159089, 0.002513670903749307, 0.00017861675670370036,
               1.2967181404070137e-05),
    (20.0, 0): (0.23829060781770386, 0.09363947091001303, 0.040713181972620104,
                0.01870543896955597, 0.008868264473559356, 0.004281628248445732,
                0.0020891359536355627, 0.0010255894240020103, 0.0005052373227383122,
                0.0002493872034246848, 0.0001232344301160693, 6.0933352606741623e-05,
                3.0138620663262517e-05, 1.4909758589341856e-05),
    (20.0, 1): (0.40943826531513566, 0.14452952688486348, 0.059393116635464496,
                0.026375790889560113, 0.012223741614437069, 0.005804164488145389,
                0.002794682375410404, 0.0013564448041868834, 0.0006613815585447132,
                0.0003233091438889433, 0.00015827256640992582, 7.754180492972096e-05,
                3.8006077201383885e-05, 1.8632503128931703e-05),
}


class TestChandrupatlaPort:
    """_chandrupatla against scipy.optimize.elementwise.find_root, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(sorted(_FAMILIES)), x0=st.floats(-3.0, 3.0),
           a=st.floats(0.3, 20.0), c=st.floats(-2.0, 2.0),
           ends=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(1e-9, 8.0)),
                         min_size=1, max_size=12),
           xatol=st.floats(1e-15, 1e-2), maxiter=st.sampled_from([None, 0, 1, 3, 6]))
    def test_matches_scipy(self, family, x0, a, c, ends, xatol, maxiter):
        f = _FAMILIES[family](x0, a, c)
        grid = np.linspace(-4.0, 4.0, 65)
        v = f(grid)
        same_sign = np.flatnonzero(v[:-1] * v[1:] > 0)
        assume(same_sign.size)
        k = same_sign[0]
        # random brackets, then exact zeros at a lower and an upper end and a
        # bracket whose ends share a sign
        lo = np.array([e[0] for e in ends] + [x0, x0 - 0.5, grid[k]])
        hi = np.array([e[0] + e[1] for e in ends] + [x0 + 0.5, x0, grid[k + 1]])
        cap = {} if maxiter is None else {"maxiter": maxiter}
        ref_x, ref_status, ref_ends = _scipy_chandrupatla(
            lambda x, _: f(x), lo, hi, f(lo), f(hi), xatol, **cap)
        x, status, ends = _port(f, lo, hi, xatol, **cap)
        assert status.tolist() == ref_status.tolist()
        assert _bits(x).tolist() == _bits(ref_x).tolist()
        assert _bits(ends).tolist() == _bits(ref_ends).tolist()
        assert status[-1] == -1 and status[-3] == status[-2] == 0

    def test_nan_inside_bracket(self):
        def f(x):
            return np.where((x > 1.0) & (x < 2.0) | (x > 7.7) & (x < 7.8), np.nan, np.cos(x))

        # [1, 2] is NaN inside; [7, 8.5] only at its first midpoint, after
        # which scipy keeps it open and shrinks it onto the edge 7.7 of the
        # NaN window, to report a root there; the port stops it on the NaN end
        lo, hi = np.array([4.0, 1.0, 0.0, 7.0]), np.array([5.0, 2.0, 0.5, 8.5])
        x, status, ends = _port(f, lo, hi, 1e-9)
        ref_x, ref_status, ref_ends = _scipy_chandrupatla(
            lambda x, _: f(x), lo, hi, f(lo), f(hi), 1e-9)
        assert status.tolist() == [0, -3, -1, -3]
        assert status[:3].tolist() == ref_status[:3].tolist()
        assert _bits(x[:3]).tolist() == _bits(ref_x[:3]).tolist()
        # scipy goes on past the NaN of [1, 2], to a bracket of its own
        assert _bits(ends[:, [0, 2]]).tolist() == _bits(ref_ends[:, [0, 2]]).tolist()
        assert np.isnan(x[3])

    def test_iteration_cap_raises(self, monkeypatch):
        # one step leaves the ground state's bracket open: no certificate
        monkeypatch.setattr(spectral, "_chandrupatla",
                            functools.partial(_chandrupatla, maxiter=1))
        with pytest.raises(HeunEvaluationError, match=r"^level 1 is not certified in omega"):
            exact_spectrum(CouplingConfig(kappa=2.0, ell=0), 0.2, 0.3, 40)

    @pytest.mark.parametrize("kappa", [0.3, 0.75, 2.0, 4.0, 20.0, 100.0])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_find_roots_matches_scipy(self, monkeypatch, kappa, ell):
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        roots = exact_spectrum(cfg).omegas
        if (kappa, ell) in _DEFAULT_WINDOW_ROOTS:
            assert roots == _DEFAULT_WINDOW_ROOTS[kappa, ell]
        monkeypatch.setattr(spectral, "_chandrupatla", _scipy_chandrupatla)
        assert roots == exact_spectrum(cfg).omegas

    def test_refinement_calls(self, monkeypatch):
        sizes = []

        def counted(*args, **kwargs):
            sizes.append(args[-1].size)
            return heun.heun_zero_counts(*args, **kwargs)

        def no_values(*args, **kwargs):
            raise AssertionError("valued an energy apart from its count")

        monkeypatch.setattr(spectral, "heun_zero_counts", counted)
        monkeypatch.setattr(spectral, "_spectral_values", no_values)
        assert len(exact_spectrum(CouplingConfig(kappa=2.0, ell=0))) == 5
        # 2 calls place the 5 levels between counted grid energies; each
        # round of the solve then counts one energy a level, none at the
        # ends it starts from
        assert sizes == [2, 37, 5, 5, 5, 5, 5, 2]
        sizes.clear()
        assert len(exact_spectrum(CouplingConfig(kappa=0.05, ell=0))) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("kappa,ell", [(0.6993565513236188, 0), (0.7496342163930227, 1),
                                           (4.059922496592005, 2), (4.557944149875407, 1),
                                           (20.0, 0)])
    def test_no_jump_costs_rounds(self, monkeypatch, kappa, ell):
        # on the fraction of each panel's basis pair, which jumps at panel
        # boundaries, a level here took 6-8 rounds: 10-12 calls in all
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return heun.heun_zero_counts(*args, **kwargs)

        monkeypatch.setattr(spectral, "heun_zero_counts", counted)
        assert len(exact_spectrum(CouplingConfig(kappa=kappa, ell=ell))) > 0
        assert len(calls) <= 9

    def test_each_energy_is_counted_once_a_round(self, monkeypatch):
        # 31 levels over 19 grid intervals: levels that share one start
        # from the same midpoint
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return heun.heun_zero_counts(*args, **kwargs)

        monkeypatch.setattr(spectral, "heun_zero_counts", counted)
        assert len(exact_spectrum(CouplingConfig(kappa=100.0, ell=0), n_points=20)) == 31
        assert all(np.unique(y).size == y.size for y in calls)


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

    def test_validity_above_one_half(self):
        # at kappa = 5 the n = 0 term of the tower is 0.505..., above every
        # bound state: a cut above 1/2 drops it instead of failing on it
        full = closed_form_spectrum(CouplingConfig(kappa=5.0, ell=0), n_max=4, validity=1.0)
        assert 0.0 < max(full.omegas) < 0.5
        assert full.omegas == closed_form_spectrum(CouplingConfig(kappa=5.0, ell=0), n_max=4,
                                                   validity=0.5).omegas

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
        assert result[0] == pytest.approx(0.024635698555740094, rel=1e-6)

    def test_agrees_with_closed_form_when_shallow(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        hyper = hypergeometric_condition_roots(cfg, omega_range=(1e-6, 0.05))
        closed = closed_form_spectrum(cfg, n_max=10)
        for w in hyper:
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
        assert hyper[0] / exact_near == pytest.approx(1.473, abs=0.05)

    def test_weak_coupling_empty(self):
        result = hypergeometric_condition_roots(CouplingConfig(kappa=0.05, ell=0))
        assert len(result) == 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hypergeometric_condition_roots(CouplingConfig(kappa=2.0, ell=0),
                                           omega_range=(1e-3, 0.2))

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

    @pytest.mark.parametrize("kappa_tol", [0.0, -1e-3, math.nan,
                                           4.0 * sys.float_info.epsilon * 0.08])
    def test_kappa_tol_validation(self, monkeypatch, kappa_tol):
        # such a tolerance would keep the bisection going forever: it must be
        # rejected before the first level count
        def no_count(*args, **kwargs):
            raise AssertionError("counted levels before checking kappa_tol")

        monkeypatch.setattr(spectral, "heun_zero_counts", no_count)
        with pytest.raises(ValueError):
            critical_coupling(0, 0.05, 0.08, kappa_tol=kappa_tol)

    def test_infinite_kappa_is_a_bad_kappa(self, monkeypatch):
        # an infinite end makes the float spacing infinite; it is rejected as
        # a kappa, before kappa_tol is measured against that spacing
        def no_count(*args, **kwargs):
            raise AssertionError("counted levels before checking the kappas")

        monkeypatch.setattr(spectral, "heun_zero_counts", no_count)
        with pytest.raises(ValueError) as exc:
            critical_coupling(0, 0.05, math.inf)
        assert str(exc.value) == "kappa must be finite and positive, got inf"

    def test_kappa_tol_below_float_spacing_does_not_hang(self):
        # once lo and hi are adjacent floats, 0.5*(lo + hi) is one of them and
        # hi - lo > kappa_tol stays true; a child process turns a hang into
        # a timeout of this test instead of one of the suite
        code = ("from gupheun.spectral import critical_coupling\n"
                "try:\n"
                "    critical_coupling(0, 0.0626, 0.06358, kappa_tol=1e-300)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(spectral.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30, check=True)
        assert proc.stdout == ("4 float spacings of kappa in [0.0626, 0.06358] are 5.65e-17, "
                               "not below kappa_tol = 1e-300\n")

    @pytest.mark.parametrize("omega_floor", [0.0, 0.4, 0.5, math.nan])
    def test_window_validation(self, omega_floor):
        # the window ends at CRITICAL_OMEGA_MAX = 0.4
        with pytest.raises(ValueError):
            critical_coupling(0, 0.05, 0.08, omega_floor=omega_floor)

    def test_failed_count_is_numerical_error(self, monkeypatch):
        # a count that cannot be made is a failure, not "no bound states":
        # the floor's paths need more than one continuation panel
        monkeypatch.setattr(heun, "_MAX_PANELS", 1)
        with pytest.raises(HeunEvaluationError, match="zero count"):
            critical_coupling(0, 0.05, 0.08)


def _stretch_spy(monkeypatch):
    """Record, per heun._far_field call, whether any energy got a far-field stretch."""
    taken = []
    far_field = heun._far_field

    def spy(*args):
        t1, t2 = far_field(*args)
        taken.append(bool(np.isfinite(t1).any()))
        return t1, t2

    monkeypatch.setattr(heun, "_far_field", spy)
    return taken


class TestFarFieldStretch:
    """Deep floors cross the far field in closed form; shallow windows never reach it."""

    @pytest.mark.parametrize("omega_floor", [1e-20, 1e-45, 1e-100])
    @pytest.mark.parametrize("ell, kappa_lo, kappa_hi", [(0, 0.05, 0.3), (1, 0.5, 0.9)])
    def test_critical_coupling_same_with_the_stretch_on_and_off(
            self, monkeypatch, ell, kappa_lo, kappa_hi, omega_floor):
        taken = _stretch_spy(monkeypatch)
        on = critical_coupling(ell, kappa_lo, kappa_hi, omega_floor=omega_floor)
        assert any(taken)
        monkeypatch.setattr(heun, "_far_field", no_far_field)
        assert critical_coupling(ell, kappa_lo, kappa_hi, omega_floor=omega_floor) == on

    @pytest.mark.parametrize("kappa", [0.05, 2.0, 5.0, 100.0])
    @pytest.mark.parametrize("ell", [0, 2])
    def test_default_scan_is_the_panel_only_path(self, monkeypatch, kappa, ell):
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        taken = _stretch_spy(monkeypatch)
        scan = spectral_scan(cfg, spectral.DEFAULT_OMEGA_MIN, spectral.DEFAULT_OMEGA_MAX,
                             spectral.DEFAULT_SCAN_POINTS)
        assert taken and not any(taken)
        monkeypatch.setattr(heun, "_far_field", no_far_field)
        ref = spectral_scan(cfg, spectral.DEFAULT_OMEGA_MIN, spectral.DEFAULT_OMEGA_MAX,
                            spectral.DEFAULT_SCAN_POINTS)
        assert np.array_equal(scan.values, ref.values, equal_nan=True)
        assert scan.brackets == ref.brackets

    def test_default_profile_is_the_panel_only_path(self, monkeypatch):
        cfg, ep = CouplingConfig(kappa=10.0, ell=0), EnergyPoint(1e-5)
        taken = _stretch_spy(monkeypatch)
        profile = wavefunction(cfg, ep, default_xi_grid(cfg, ep))
        assert taken and not any(taken)
        monkeypatch.setattr(heun, "_far_field", no_far_field)
        ref = wavefunction(cfg, ep, default_xi_grid(cfg, ep))
        assert np.array_equal(profile.values, ref.values)

    def test_deep_profile_through_the_stretch(self, monkeypatch):
        # 129 of the 400 grid points lie inside the stretch and are read from
        # the far panel's closed form
        cfg, ep = CouplingConfig(kappa=10.0, ell=0), EnergyPoint(1e-40)
        xi = default_xi_grid(cfg, ep)
        taken = _stretch_spy(monkeypatch)
        profile = wavefunction(cfg, ep, xi)
        assert taken and all(taken)
        monkeypatch.setattr(heun, "_far_field", no_far_field)
        assert profile.non_decaying == wavefunction(cfg, ep, xi).non_decaying
        # Hc against the panel-only path at tol/10, measured against the
        # envelope as TestFarField measures the kernel
        tol = radial._PROFILE_TOL
        y = radial.map_xi_to_y(xi, cfg, ep)
        B, q0, q1 = heun.heun_coefficients(cfg.kappa, cfg.ell, np.full(y.size, ep.omega))
        g, gp = heun.heun_continue_arrays(B, q0, q1, y, tol=tol / 10)
        hc = profile.values / (xi**cfg.ell * (1.0 - y))
        scale = envelope(B, y[None], g[None], (y * gp)[None])[0]
        assert np.all(np.abs(hc - g) <= tol * scale)


def _two_end_count(ell, kappa, omega_lo, omega_hi):
    """Levels in (omega_lo, omega_hi): N(omega_lo) - N(omega_hi), counted at tol 1e-6."""
    omegas = np.array([omega_lo, omega_hi])
    n, _, _ = heun.heun_zero_counts(*heun.heun_coefficients(kappa, ell, omegas),
                                 spectral._spectral_points(omegas), tol=1e-6)
    return n[0] - n[1]


def _plain_bisection(ell, kappa_lo, kappa_hi, omega_floor, kappa_tol):
    """critical_coupling's bisection with one level count per kappa, one call each."""
    def has_states(kappa):
        return _two_end_count(ell, kappa, omega_floor, 0.4) > 0

    lo, hi = kappa_lo, kappa_hi
    hi_has = has_states(hi)
    assert has_states(lo) != hi_has
    while hi - lo > kappa_tol:
        mid = 0.5 * (lo + hi)
        if has_states(mid) == hi_has:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestCriticalCouplingCalls:
    """critical_coupling counts the midpoints of several halvings in one call."""

    @pytest.mark.parametrize("ell,kappa_lo,kappa_hi,omega_floor,kappa_tol,calls", [
        (0, 0.0626, 0.06358, 1e-45, 5e-4, 1),    # a benchmark bracket: one halving
        (1, 0.5627, 0.56368, 1e-45, 5e-4, 1),
        (0, 0.05, 0.08, 1e-45, 5e-4, 2),         # six halvings
        (1, 0.54, 0.62, 1e-30, 4e-3, 2),         # five
        (0, 0.0630, 0.0645, 1e-45, 1e-6, 4),     # eleven
    ])
    def test_same_result_as_plain_bisection_in_fewer_calls(
            self, monkeypatch, ell, kappa_lo, kappa_hi, omega_floor, kappa_tol, calls):
        made = []

        def counted(*args, **kwargs):
            made.append(args)
            return heun.heun_zero_counts(*args, **kwargs)

        monkeypatch.setattr(spectral, "heun_zero_counts", counted)
        got = critical_coupling(ell, kappa_lo, kappa_hi, omega_floor=omega_floor,
                                kappa_tol=kappa_tol)
        assert len(made) == calls
        monkeypatch.undo()
        assert got == _plain_bisection(ell, kappa_lo, kappa_hi, omega_floor, kappa_tol)

    def test_default_bracket(self):
        assert critical_coupling(0, 0.05, 0.08) == 0.063359375

    def test_presence_that_changes_twice_is_a_numerical_failure(self, monkeypatch):
        # levels only for kappa in [0.055, 0.06] and from 0.07 on: the first
        # call finds them at 0.0575 and not at 0.06125, a second change that
        # plain bisection on the ends would walk past
        def coefficients(kappa, ell, omega):
            return kappa, ell, omega

        def zero_counts(kappa, ell, omega, y, tol):
            present = ((0.055 <= kappa) & (kappa <= 0.06)) | (kappa >= 0.07)
            return np.where(present & (omega < 0.4), 1, 0), None

        monkeypatch.setattr(spectral, "heun_coefficients", coefficients)
        monkeypatch.setattr(spectral, "heun_zero_counts", zero_counts)
        with pytest.raises(HeunEvaluationError, match=r"^presence of levels in \(1e-45, 0.4\) "
                           r"changes more than once with kappa: again between kappa = "
                           r"0.05984375 and 0.0603125$"):
            critical_coupling(0, 0.05, 0.08)


class TestBisect:
    """spectral._bisect, on monotone step functions f(x) = #{steps <= x}."""

    @staticmethod
    def _bisect(steps, x, width, levels):
        """_bisect's points and values, and the points of each count call."""
        calls = []

        def count(points):
            calls.append(points.tolist())
            return np.searchsorted(steps, points, side="right")

        return (*spectral._bisect(count, x, width, levels), calls)

    def test_midpoints_in_heap_order(self):
        # the first call: the ends, then three halvings of [0, 1]; only spans
        # wider than width are halved again
        def first_call(width):
            *_, calls = self._bisect([0.9], [0.0, 1.0], width, 3)
            return calls[0]

        assert first_call(0.3) == [0.0, 1.0, 0.5, 0.25, 0.75]
        assert first_call(0.2) == [0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875]
        assert first_call(1.0) == [0.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), levels=st.integers(1, 4))
    def test_every_step_ends_in_a_narrow_span(self, data, levels):
        width = data.draw(st.floats(1e-9, 2.0))
        steps = np.sort(data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                           max_size=6)))
        x, got, calls = self._bisect(steps, [0.0, 1.0], width, levels)

        counted_points = [p for c in calls for p in c]
        assert len(set(counted_points)) == len(counted_points) == x.size
        assert np.all(np.diff(x) > 0) and x[0] == 0 and x[-1] == 1
        assert np.array_equal(got, np.searchsorted(steps, x, side="right"))
        right = np.searchsorted(x, steps)  # x[right - 1] < step <= x[right]
        assert np.all(x[right] - x[right - 1] <= width)
        if len(steps) == 1:
            lo, up, halvings = 0.0, 1.0, 0
            while up - lo > width:   # plain bisection
                mid = 0.5 * (lo + up)
                (lo, up), halvings = (lo, mid) if mid >= steps[0] else (mid, up), halvings + 1
            assert x[right[0] - 1] == lo and x[right[0]] == up
            assert len(calls) == max(-(-halvings // levels), 1)


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
        count = _two_end_count(ell, kappa, 1e-45, 0.4)
        assert count == levels
        assert _scan_levels(kappa, ell, 1e-45, 0.4, 80) == (levels, levels)

    @pytest.mark.parametrize("kappa", [2.0, 20.0])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_moderate_coupling(self, kappa, ell):
        count = _two_end_count(ell, kappa, 1e-12, 0.4)
        assert count > 0
        assert _scan_levels(kappa, ell, 1e-12, 0.4, 300) == (count, count)

    def test_counts_levels_the_default_grid_misses(self):
        # level spacing 2*pi/nu = 0.56 e-folds at kappa = 31.6853: the
        # 160-point critical grid over [1e-45, 0.4] (0.65 e-folds a step)
        # finds 134 of the 182 levels; in [1e-45, 1e-42] a 100-point scan
        # resolves all of them
        cfg = CouplingConfig(kappa=31.6853, ell=0)
        assert _two_end_count(0, cfg.kappa, 1e-45, 0.4) == 182
        assert len(spectral_scan(cfg, 1e-45, 0.4, 160, tol=1e-6).brackets) == 134
        count = _two_end_count(0, cfg.kappa, 1e-45, 1e-42)
        assert count == 12
        assert _scan_levels(cfg.kappa, 0, 1e-45, 1e-42, 100) == (count, count)

    @pytest.mark.slow
    def test_counts_levels_the_default_grid_misses_full_window(self):
        # the 182 levels of the test above, from a 4000-point scan (about 3 s
        # on a 2-core Xeon) and the doubled one
        assert _scan_levels(31.6853, 0, 1e-45, 0.4, 4000) == (182, 182)

    @pytest.mark.parametrize("kappa,ell,levels", [
        (0.1, 0, 0), (0.3, 0, 1), (0.75, 0, 3), (0.75, 1, 1),
        (2.0, 1, 4), (2.0, 2, 1), (5.0, 2, 6), (20.0, 2, 13)])
    def test_default_window_count_is_the_scans_brackets(self, kappa, ell, levels):
        # the count that `roots` and `compare` bracket by: at the scan's tol
        # it equals the default 600-point scan's brackets
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        _, k, _ = spectral._counted_brackets(
            cfg, spectral.DEFAULT_OMEGA_MIN, spectral.DEFAULT_OMEGA_MAX,
            spectral.DEFAULT_SCAN_POINTS, DEFAULT_SCAN_TOL)
        assert k.size == len(spectral_scan(cfg).brackets) == levels

    @pytest.mark.parametrize("kappa", [0.75, 2.0, 20.0, 100.0])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_each_root_is_one_level(self, kappa, ell):
        # across each root of the default window the count drops by exactly
        # one, and between neighbouring roots by none, 1e-6 relative either side
        roots = np.array(exact_spectrum(CouplingConfig(kappa=kappa, ell=ell)).omegas)
        omegas = np.concatenate((roots * (1 - 1e-6), roots * (1 + 1e-6)))
        n, _, _ = heun.heun_zero_counts(*heun.heun_coefficients(kappa, ell, omegas),
                                     spectral._spectral_points(omegas), tol=DEFAULT_SCAN_TOL)
        below, above = np.split(n, 2)
        assert np.all(below - above == 1)
        assert np.array_equal(above[1:], below[:-1])

    def test_count_is_monotone_in_omega(self):
        # as omega -> 1/2 a zero sits near y = -(B+1)*eps/kappa, inside
        # (y*, 0): N(0.4999) = 1 with no level above 0.4, so the levels in a
        # window are N(omega_lo) - N(omega_hi), not N(omega_lo) alone
        kappa, ell = 8.229322074546221, 1
        omegas = np.exp(np.linspace(math.log(1e-45), math.log(0.4999), 60))
        n, _, _ = heun.heun_zero_counts(*heun.heun_coefficients(kappa, ell, omegas),
                                     spectral._spectral_points(omegas), tol=1e-6)
        assert np.all(np.diff(n) <= 0)
        assert n[-1] == 1
        assert _two_end_count(ell, kappa, 0.4, 0.4999) == 0
        assert _scan_levels(kappa, ell, 0.4, 0.4999, 100) == (0, 0)


class TestCountedBrackets:
    """_counted_brackets places every level of the grid between two counted grid energies."""

    @settings(max_examples=30, deadline=None)
    @given(log_kappa=st.floats(math.log(0.05), math.log(100.0)), ell=st.integers(0, 3),
           log_omega_min=st.floats(math.log(1e-20), math.log(1e-3)),
           points=st.integers(2, 800))
    def test_brackets_are_the_scans(self, log_kappa, ell, log_omega_min, points):
        # the counted energies are the grid's ends and, where they hold L
        # levels, every stride-th energy, about two a level; each counted
        # interval holds the scan's brackets, as many as its levels up to an
        # even number, where g changes sign
        cfg, omega_min = CouplingConfig(kappa=math.exp(log_kappa), ell=ell), math.exp(log_omega_min)
        scan = spectral_scan(cfg, omega_min, 0.45, points)
        (w, n, g, fraction), k, i = spectral._counted_brackets(
            cfg, omega_min, 0.45, points, DEFAULT_SCAN_TOL)
        at = np.searchsorted(scan.omegas, w)
        assert np.array_equal(scan.omegas[at], w) and np.array_equal(scan.values[at], g)
        agree = np.signbit(g) == (n % 2 == 1)
        assert np.all((0.0 <= fraction[agree]) & (fraction[agree] <= 1.0))
        assert np.array_equal(k, np.arange(n[0], n[-1], -1))
        stride = (-(-(points - 1) // max(spectral._COARSE_POINTS - 1, 2 * k.size)) if k.size
                  else points - 1)
        assert np.array_equal(at, np.unique(np.append(np.arange(0, points, stride), points - 1)))
        assert np.all((n[i] >= k) & (k > n[i + 1]))
        inside = np.searchsorted(at, [lo for lo, _ in scan.brackets], side="right") - 1
        drop = -np.diff(n)
        assert np.all(drop[inside] > 0)
        assert np.array_equal(np.bincount(inside, minlength=drop.size) % 2, drop % 2)

    def test_values_come_with_the_counts(self, monkeypatch, scan_k2):
        # kappa = 2 on the default window: counts of the 2 grid ends and of
        # every 16th grid energy between, and no value call: g comes with the
        # counts; each level's counted pair holds its scan bracket
        sizes = []

        def counted(*args, **kwargs):
            sizes.append(args[-1].size)
            return heun.heun_zero_counts(*args, **kwargs)

        def no_values(*args, **kwargs):
            raise AssertionError("valued a grid energy apart from its count")

        monkeypatch.setattr(spectral, "heun_zero_counts", counted)
        monkeypatch.setattr(spectral, "_spectral_values", no_values)
        (w, _, g, _), k, i = spectral._counted_brackets(
            CouplingConfig(kappa=2.0, ell=0), 1e-5, 0.45, 600, DEFAULT_SCAN_TOL)
        at = np.searchsorted(scan_k2.omegas, w)
        assert sizes == [2, 37] and k.tolist() == [5, 4, 3, 2, 1]
        assert all(at[p] <= lo and hi <= at[p + 1]
                   for p, (lo, hi) in zip(i, sorted(scan_k2.brackets)))
        assert all(_find_brackets(g[[p, p + 1]]) for p in i)

    def test_crowded_window_counts_two_energies_a_level(self, monkeypatch):
        # kappa = 1e3 holds 100 levels on the default window: the second
        # call counts every 3rd grid energy, not every 16th
        sizes = []

        def counted(*args, **kwargs):
            sizes.append(args[-1].size)
            return heun.heun_zero_counts(*args, **kwargs)

        monkeypatch.setattr(spectral, "heun_zero_counts", counted)
        assert len(exact_spectrum(CouplingConfig(kappa=1e3, ell=0))) == 100
        assert sizes[:2] == [2, 199]

    @pytest.mark.slow
    def test_underflowed_values_are_no_brackets(self):
        # the deepest values underflow to 0.0: of the 22089 levels of the
        # window, the counted neighbours hold the scan's 14 sign changes,
        # and underflowed values mark none
        cfg = CouplingConfig(kappa=1e4, ell=0)
        scan = spectral_scan(cfg, 1e-300, 0.45, 100)
        (w, n, g, _), k, _ = spectral._counted_brackets(cfg, 1e-300, 0.45, 100,
                                                        DEFAULT_SCAN_TOL)
        at = np.searchsorted(scan.omegas, w)
        assert k.size == 22089 and np.any(g == 0.0)
        odd = np.flatnonzero(np.diff(n) % 2 == 1)
        brackets = tuple((at[p], at[p] + 1) for p in odd if _find_brackets(g[[p, p + 1]]))
        assert brackets == scan.brackets and len(brackets) == 14


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


def _sturm_index(kappa, ell, omega):
    """k of the exact level at omega: the zero count is k just below it and k - 1 just above."""
    omegas = np.array([omega * (1 - 1e-6), omega * (1 + 1e-6)])
    n, _, _ = heun.heun_zero_counts(*heun.heun_coefficients(kappa, ell, omegas),
                                 spectral._spectral_points(omegas), tol=DEFAULT_SCAN_TOL)
    assert n[0] - n[1] == 1
    return int(n[0])


def _tower_index(kappa, ell, omega):
    """n of omega = exp[(2/nu)(Im log B - (n + 1/2) pi)] / 2, Im log B unwrapped (mpmath)."""
    nu = math.sqrt(4 * kappa - (ell + 0.5) ** 2)
    log_b = (mpmath.loggamma(1j * nu) - mpmath.loggamma(0.25 + ell / 2 + 0.5j * nu)
             - mpmath.loggamma(1.25 + ell / 2 + 0.5j * nu))
    n = (float(log_b.imag) - 0.5 * nu * math.log(2 * omega)) / math.pi - 0.5
    assert abs(n - round(n)) < 1e-6
    return round(n)


# strong couplings over kappa 0.75-234 and ell 0-3; nearest-log pairing gave
# 6.48183 (ell 3) rows that skip a tower level, and 100 rows one level off
_INDEX_CASES = [(0.75, 0), (2.0, 0), (2.0, 1), (5.0, 2), (6.0821, 3), (6.48183, 3),
                (7.6569, 2), (9.056, 0), (11.54, 1), (15.881, 1), (20.0, 0), (21.427, 2),
                (29.019, 3), (38.558, 0), (71.39, 0), (88.892, 1), (100.0, 0), (132.38, 2),
                (202.55, 0), (234.04, 3)]


class TestLevelIndex:
    """Levels carry their Sturm index, and compare pairs equal indices."""

    def test_first_level_at_kappa_100(self):
        # N(0.45) = 5: the default window's first root is level 6
        n, _, _ = heun.heun_zero_counts(*heun.heun_coefficients(100.0, 0, np.array([0.45])),
                                     spectral._spectral_points(np.array([0.45])),
                                     tol=DEFAULT_SCAN_TOL)
        assert n.tolist() == [5]
        result = exact_spectrum(CouplingConfig(kappa=100.0, ell=0))
        assert result.first_level == 6
        assert _sturm_index(100.0, 0, result.omegas[0]) == 6

    def test_shared_levels_keep_their_index(self):
        cfg = CouplingConfig(kappa=20.0, ell=0)
        wide, deep = exact_spectrum(cfg, 1e-5, 0.45), exact_spectrum(cfg, 1e-7, 0.1)
        shared = [(p, q) for p, w in enumerate(wide.omegas) for q, v in enumerate(deep.omegas)
                  if math.isclose(w, v, rel_tol=1e-6)]
        assert len(shared) == sum(w <= 0.1 for w in wide.omegas) > 5
        assert all(wide.first_level + p == deep.first_level + q for p, q in shared)

    @pytest.mark.parametrize("kappa, ell", _INDEX_CASES)
    def test_rows_pair_equal_indices(self, kappa, ell):
        cfg = CouplingConfig(kappa=kappa, ell=ell)
        rows = compare_spectra(exact_spectrum(cfg), closed_form_spectrum(cfg)).rows
        assert rows
        k = [_sturm_index(kappa, ell, r.omega_exact) for r in rows]
        tower = [_tower_index(kappa, ell, r.omega_closed_form) for r in rows]
        assert tower == [i - 1 for i in k]
        assert np.all(np.diff(tower) == 1) and np.all(np.diff([r.n for r in rows]) == 1)


class TestUnits:
    def test_natural_units_conversion(self):
        result = SpectrumResult(METHOD_EXACT, (0.2486,), 2.0, 0)
        energies = to_physical_energy(result, UnitSystem(1.0, 1.0, 1.0, 2.0 * 2.0))
        assert energies == [pytest.approx(-0.1243, rel=1e-12)]

    def test_kappa_mismatch_rejected(self):
        result = SpectrumResult(METHOD_EXACT, (0.1,), 2.0, 0)
        bad_units = UnitSystem(mass=1.0, hbar=1.0, beta=1.0, alpha_coupling=1.0)
        with pytest.raises(UnitMismatchError):
            to_physical_energy(result, bad_units)

    def test_si_units_at_strong_coupling(self):
        # CODATA mass and hbar give m*alpha/(2*hbar^2) = 29999.999999999996
        # for kappa = 3e4, one ulp (3.6e-12) off: the same kappa, not a mismatch
        mass, hbar = 9.1093837015e-31, 1.054571817e-34
        units = UnitSystem(mass=mass, hbar=hbar, beta=1e-6,
                           alpha_coupling=2.0 * hbar**2 * 3e4 / mass)
        assert units.kappa == 29999.999999999996
        result = SpectrumResult(METHOD_EXACT, (0.1,), 3e4, 0)
        assert to_physical_energy(result, units) == [-0.1 / (2.0 * mass * 1e-6)]
        with pytest.raises(UnitMismatchError):
            to_physical_energy(SpectrumResult(METHOD_EXACT, (0.1,), 3.0001e4, 0), units)

    def test_scale_covariance(self):
        # same kappa, different scales: omegas untouched, energies scale by
        # exactly 1/(2 m beta)
        kappa = 2.0
        result = SpectrumResult(METHOD_EXACT, (0.2486, 0.0167), kappa, 0)
        u1 = UnitSystem(1.0, 1.0, 1.0, 2.0 * kappa)
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
