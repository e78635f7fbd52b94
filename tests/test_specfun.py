"""Log-gamma, 2F1, and phase-data tests.

Frozen reference values were computed with mpmath at 25+ significant digits;
mpmath is also used directly as an independent oracle for the sweeps.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from gupheun.heun import CouplingConfig
from gupheun.specfun import GammaPoleError, WeakCouplingError, compute_phase, log_gamma

from hyp_oracle import (
    SERIES_TOL,
    _gauss_series,
    hyp2f1_large_negative,
    reduced_hypergeometric_parameters,
)

LN_SQRT_PI = 0.5723649429247001
# mpmath.loggamma(3+4j)
LOG_GAMMA_3_4I = complex(-1.7566267846037841, 4.7426644380346579)

# Bernoulli numbers B_2 .. B_14 for the Stirling tail
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def stirling_log_gamma(z: complex) -> complex:
    """High-order asymptotic expansion, valid for large |z| away from the cut."""
    out = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi)
    for k, b2k in enumerate(_BERNOULLI, start=1):
        out += b2k / ((2 * k) * (2 * k - 1) * z ** (2 * k - 1))
    return out


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half(self):
        assert abs(log_gamma(0.5) - LN_SQRT_PI) < 1e-13

    def test_3_plus_4i_against_stirling_recurrence(self):
        # independent route: Stirling at z+10, then recurse down ten times
        z = 3 + 4j
        oracle = stirling_log_gamma(z + 10)
        for k in range(10):
            oracle -= cmath.log(z + k)
        assert abs(oracle - LOG_GAMMA_3_4I) < 1e-12
        assert abs(log_gamma(z) - oracle) < 1e-12

    def test_recurrence_random_box(self):
        rng = np.random.default_rng(7)
        # upper half plane away from the cut, plus a strip on the positive axis
        zs = [complex(x, y) for x, y in zip(rng.uniform(-3.5, 4.0, 150),
                                            rng.uniform(0.3, 3.0, 150))]
        zs += [complex(x, y) for x, y in zip(rng.uniform(0.6, 6.0, 50),
                                             rng.uniform(-0.2, 0.2, 50))]
        for z in zs:
            res = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
            assert abs(res) < 1e-10, f"recurrence violated at z={z}: {abs(res)}"

    def test_conjugation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = complex(rng.uniform(-2, 4), rng.uniform(0.2, 3))
            assert log_gamma(z.conjugate()) == pytest.approx(
                log_gamma(z).conjugate(), abs=1e-13)

    def test_against_mpmath_grid(self):
        for z in (0.1 + 0.2j, -1.3 + 0.7j, 2.5 - 1.5j, 1j, -0.25 + 2j, 6.0 + 0j):
            ref = complex(mp.loggamma(mp.mpc(z)))
            assert abs(log_gamma(z) - ref) < 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0, -3 + 1e-14j])
    def test_pole_error(self, z):
        with pytest.raises(GammaPoleError):
            log_gamma(z)

    def test_modulus_identity(self):
        # |Gamma(i nu)|^2 * nu * sinh(pi nu) / pi = 1
        for nu in np.linspace(0.5, 5.0, 19):
            mod2 = math.exp(2.0 * log_gamma(1j * nu).real)
            assert abs(mod2 * nu * math.sinh(math.pi * nu) / math.pi - 1.0) < 1e-8


class TestComputePhase:
    def test_nu_kappa2(self):
        phase = compute_phase(CouplingConfig(kappa=2.0, ell=0))
        assert phase.nu == pytest.approx(math.sqrt(7.75), rel=1e-14)

    def test_frozen_values(self):
        # mpmath: B = Gamma(i nu)/(Gamma(1/4 + i nu/2) Gamma(5/4 + i nu/2))
        phase = compute_phase(CouplingConfig(kappa=2.0, ell=0))
        assert phase.b_arg == pytest.approx(0.491241985460941122, abs=1e-12)
        phase34 = compute_phase(CouplingConfig(kappa=0.75, ell=0))
        assert phase34.nu == pytest.approx(math.sqrt(2.75), rel=1e-14)
        assert phase34.b_arg == pytest.approx(-0.210662935921219968, abs=1e-12)

    @pytest.mark.parametrize("kappa, ell", [(1.0, 1), (3.0, 1), (2.0, 2), (5.0, 2),
                                            (20.0, 3)])
    def test_against_mpmath_at_nonzero_ell(self, kappa, ell):
        # the ell/2 shifts of B's lower gamma arguments, checked away from ell = 0
        phase = compute_phase(CouplingConfig(kappa=kappa, ell=ell))
        with mp.workdps(30):
            assert phase.nu == float(mp.sqrt(4 * mp.mpf(kappa) - (ell + mp.mpf(0.5)) ** 2))
            nu = mp.mpf(phase.nu)
            b = mp.gamma(1j * nu) / (mp.gamma(0.25 + ell / 2 + 0.5j * nu)
                                     * mp.gamma(1.25 + ell / 2 + 0.5j * nu))
            ref = float(mp.arg(b))
        assert abs(math.remainder(phase.b_arg - ref, 2 * math.pi)) <= 1e-12

    @pytest.mark.parametrize("kappa, ell, winding", [(2.0, 0, 0), (20.0, 0, 1), (20.0, 3, 0),
                                                     (100.0, 0, 2), (1e3, 0, 7)])
    def test_winding_unwraps_against_mpmath(self, kappa, ell, winding):
        # Im log B of principal-branch log-gammas, continuous in nu, is arg B
        # plus winding turns
        phase = compute_phase(CouplingConfig(kappa=kappa, ell=ell))
        with mp.workdps(30):
            nu = mp.mpf(phase.nu)
            ref = float(mp.im(mp.loggamma(1j * nu) - mp.loggamma(0.25 + ell / 2 + 0.5j * nu)
                              - mp.loggamma(1.25 + ell / 2 + 0.5j * nu)))
        assert phase.winding == winding
        assert phase.b_arg + 2 * math.pi * phase.winding == pytest.approx(ref, abs=1e-9)

    def test_weak_coupling_boundary(self):
        with pytest.raises(WeakCouplingError):
            compute_phase(CouplingConfig(kappa=1.0 / 16.0, ell=0))
        with pytest.raises(WeakCouplingError):
            compute_phase(CouplingConfig(kappa=0.05, ell=0))
        with pytest.raises(WeakCouplingError):
            compute_phase(CouplingConfig(kappa=0.5, ell=1))

    def test_b_modulus_against_reflection_identity(self):
        # |Gamma(i nu)| = sqrt(pi/(nu sinh(pi nu))) pins the modulus of the
        # log_gamma that |B| and arg B are built from, independently
        nu = compute_phase(CouplingConfig(kappa=0.75, ell=0)).nu
        expected = math.sqrt(math.pi / (nu * math.sinh(math.pi * nu)))
        assert math.exp(log_gamma(1j * nu).real) == pytest.approx(expected, rel=1e-10)

    def test_phase_reconstructs_b(self):
        phase = compute_phase(CouplingConfig(kappa=2.0, ell=0))
        nu = phase.nu
        direct = cmath.exp(log_gamma(1j * nu) - log_gamma(0.25 + 0.5j * nu)
                           - log_gamma(1.25 + 0.5j * nu))
        assert phase.b_arg == pytest.approx(cmath.phase(direct), abs=1e-12)
        # mpmath: |B| = 0.197688846876596035
        assert abs(direct) == pytest.approx(0.197688846876596035, rel=1e-12)
        assert -math.pi < phase.b_arg <= math.pi


class TestHyp2F1:
    """The Gauss series that each term of the connection formula sums."""

    def test_at_zero_is_one(self):
        assert _gauss_series(0.3 + 1j, -2.5, 4.2 - 0.3j, 0.0, SERIES_TOL) == pytest.approx(1.0)

    def test_log_closed_form(self):
        # F(1,1;2;z) = -ln(1-z)/z
        val = _gauss_series(1, 1, 2, 0.5, SERIES_TOL)
        assert val.real == pytest.approx(2 * math.log(2), rel=1e-13)
        assert abs(val.imag) < 1e-14

    def test_series_against_mpmath(self):
        # mpmath: F(0.3+0.2i, 1.1-0.4i; 2.2; 0.41)
        val = _gauss_series(0.3 + 0.2j, 1.1 - 0.4j, 2.2, 0.41, SERIES_TOL)
        assert val == pytest.approx(
            complex(1.09482961500002171, 0.0221808986474570212), rel=1e-13)

    def test_conjugation(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
            g = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
            d = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5))
            lhs = _gauss_series(a.conjugate(), g.conjugate(), d.conjugate(), z.conjugate(),
                                SERIES_TOL)
            assert lhs == pytest.approx(_gauss_series(a, g, d, z, SERIES_TOL).conjugate(),
                                        rel=1e-12)

    def test_contiguous_relation(self):
        # (d-a) F(a-1) + (2a-d + (g-a) z) F(a) + a (z-1) F(a+1) = 0
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = complex(rng.uniform(-1.5, 2), rng.uniform(-1, 1))
            g = complex(rng.uniform(-1.5, 2), rng.uniform(-1, 1))
            d = complex(rng.uniform(0.6, 3), rng.uniform(-0.5, 0.5))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.35, 0.35))
            terms = ((d - a) * _gauss_series(a - 1, g, d, z, SERIES_TOL),
                     (2 * a - d + (g - a) * z) * _gauss_series(a, g, d, z, SERIES_TOL),
                     a * (z - 1) * _gauss_series(a + 1, g, d, z, SERIES_TOL))
            scale = max(abs(t) for t in terms)
            assert abs(sum(terms)) < 1e-8 * max(scale, 1.0)

    def test_delta_pole(self):
        with pytest.raises(GammaPoleError):
            hyp2f1_large_negative(0.5, 1.5, -2.0, -3.0)


class TestHyp2F1LargeNegative:
    def test_conjugate_pair_is_real(self):
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ap, gp, dp = reduced_hypergeometric_parameters(cfg)
        for z in (-2.0, -17.3, -480.0, -1e4):
            val = hyp2f1_large_negative(ap, gp, dp, z)
            assert abs(val.imag) <= 1e-12 * max(abs(val.real), 1e-12)

    def test_deep_argument_frozen(self):
        # z = -1/Omega at Omega = 1e-4; mpmath continuation gives the reference
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ap, gp, dp = reduced_hypergeometric_parameters(cfg)
        val = hyp2f1_large_negative(ap, gp, dp, -1e4)
        assert val.real == pytest.approx(0.0257532296397620754, rel=1e-10)
        # the stated cross-method tolerance
        assert abs(val.real - 0.0257532296397620754) / 0.0257532296397620754 < 1e-6

    def test_consistency_with_direct_transformed_series(self):
        # assemble the two-term expansion by hand with mpmath gammas and an
        # explicit series at 1/z, then compare
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ap, gp, dp = reduced_hypergeometric_parameters(cfg)

        def oracle(z):
            def series(a, b, c, w):
                term, total = mp.mpc(1), mp.mpc(1)
                for n in range(200):
                    term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * w
                    total += term
                    if abs(term) < 1e-25 * abs(total):
                        break
                return total

            za, zg, zd = mp.mpc(ap), mp.mpc(gp), mp.mpc(dp)
            c1 = mp.gamma(zd) * mp.gamma(zg - za) / (mp.gamma(zg) * mp.gamma(zd - za))
            c2 = mp.gamma(zd) * mp.gamma(za - zg) / (mp.gamma(za) * mp.gamma(zd - zg))
            return complex(c1 * mp.mpf(-z) ** (-za) * series(za, 1 - zd + za, 1 - zg + za, 1 / z)
                           + c2 * mp.mpf(-z) ** (-zg) * series(zg, 1 - zd + zg, 1 - za + zg, 1 / z))

        for z in (-2.0, -5.0, -37.0, -1e3, -1e4):
            ref = oracle(z)
            val = hyp2f1_large_negative(ap, gp, dp, z)
            assert abs(val - ref) <= 1e-8 * abs(ref)

    def test_physical_parameters_at_minus3(self):
        # mpmath: F(1/4 - i nu/2, 1/4 + i nu/2; 3/2; -3) with nu = sqrt(7.75)
        cfg = CouplingConfig(kappa=2.0, ell=0)
        ap, gp, dp = reduced_hypergeometric_parameters(cfg)
        val = hyp2f1_large_negative(ap, gp, dp, -3.0)
        assert val.real == pytest.approx(-0.170103556887729481, rel=1e-12)
        assert abs(val.imag) < 1e-13

    def test_equal_upper_parameters_degenerate(self):
        # F(1,1;2;z) = -ln(1-z)/z: equal upper parameters are the logarithmic
        # connection case, which the two-term formula refuses
        with pytest.raises(GammaPoleError):
            hyp2f1_large_negative(1, 1, 2, -2.0)

    def test_degenerate_integer_difference(self):
        with pytest.raises(GammaPoleError):
            hyp2f1_large_negative(0.3, 1.3, 2.2, -5.0)

    def test_rejects_moderate_argument(self):
        with pytest.raises(ValueError):
            hyp2f1_large_negative(0.3, 0.9, 2.2, -1.5)
