"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Reference eigenvalues are four-significant-digit plot readings, hence the
absolute tolerances 0.002 / 0.005 on the two ground states and the 10%
windows on the excited levels.
"""

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from gupheun import cli
from gupheun.heun import CouplingConfig, EnergyPoint
from gupheun.radial import default_xi_grid, wavefunction, xi_star
from gupheun.specfun import (
    compute_phase,
    log_gamma,
)
from gupheun.spectral import (
    closed_form_spectrum,
    critical_coupling,
    exact_spectrum,
)

from heun_oracle import coefficients, heun_second_derivative, heun_series, one_energy
from hyp_oracle import (
    hyp2f1_large_negative,
    hypergeometric_condition_roots,
    reduced_hypergeometric_parameters,
)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_ground_state_kappa_34():
    t0 = time.perf_counter()
    result = exact_spectrum(CouplingConfig(kappa=0.75, ell=0), 1e-5, 0.45, 600, tol=1e-8)
    elapsed = time.perf_counter() - t0
    omega_1 = result.omegas[0]
    ok = abs(omega_1 - 0.0491) <= 0.002 and elapsed < 10.0
    report(1, "ground state kappa=3/4", ok,
           f"omega_1={omega_1:.6f} (target 0.0491+-0.002), scan+refine {elapsed:.1f}s")


def test_criterion_2_spectrum_kappa_2(roots_k2):
    omega_1 = roots_k2.omegas[0]
    dev_1 = abs(omega_1 - 0.2486)
    near_0167 = min(abs(w - 0.0167) / 0.0167 for w in roots_k2.omegas)
    near_167e4 = min(abs(w - 1.67e-4) / 1.67e-4 for w in roots_k2.omegas)
    ok = dev_1 <= 0.005 and near_0167 <= 0.10 and near_167e4 <= 0.10
    report(2, "spectrum kappa=2", ok,
           f"omega_1={omega_1:.6f} (0.2486+-0.005), nearest to 0.0167: {near_0167:.1%}, "
           f"nearest to 1.67e-4: {near_167e4:.1%}")


def test_criterion_3_no_bound_states_kappa_005(scan_k005):
    n = len(scan_k005.brackets)
    report(3, "no bound states kappa=1/20", n == 0,
           f"{n} brackets over [1e-5, 0.45]")


def test_criterion_4_critical_coupling():
    kappa_star = critical_coupling(0, 0.05, 0.08)
    dev = abs(kappa_star - 0.0625)
    report(4, "critical coupling ell=0", dev <= 0.003,
           f"kappa*={kappa_star:.4f} (target 0.0625+-0.003)")


def test_criterion_5_closed_form_consistency():
    worst_pair = 0.0
    worst_ratio = 0.0
    for kappa in (2.0, 0.75):
        cfg = CouplingConfig(kappa=kappa, ell=0)
        closed = closed_form_spectrum(cfg, n_max=14)
        hyper = hypergeometric_condition_roots(cfg, omega_range=(1e-8, 0.05),
                                               n_points=500)
        ratio_ref = math.exp(-2.0 * math.pi / compute_phase(cfg).nu)
        shallow = [w for w in hyper if w < 1e-3]
        assert len(shallow) >= 2, "need at least two shallow reduced-condition roots"
        for w in shallow:
            partner = min(closed.omegas, key=lambda c: abs(math.log(c / w)))
            worst_pair = max(worst_pair, abs(partner - w) / w)
        for a, b in zip(shallow, shallow[1:]):
            worst_ratio = max(worst_ratio, abs(b / a - ratio_ref) / ratio_ref)
    ok = worst_pair <= 0.05 and worst_ratio <= 0.02
    report(5, "closed form vs reduced condition", ok,
           f"worst pair dev {worst_pair:.2%} (<=5%), worst ratio dev {worst_ratio:.2%} (<=2%)")


def test_criterion_6_heun_hypergeometric_degeneration():
    # d = 0, e = kappa + 1/2 degenerates the equation; the reduced branch obeys
    # (1-y) * Hc(y) = F(alpha', gamma'; delta'; y), the Euler factor linking
    # the two normalized local solutions
    worst = 0.0
    for kappa in (0.75, 2.0):
        p = (0.5, kappa + 1.5, 0.0)  # (B, q0, q1) at d = 0, e = kappa + 1/2
        ap, gp, dp = reduced_hypergeometric_parameters(CouplingConfig(kappa=kappa, ell=0))
        series = heun_series(*p, tol=1e-14, radius=0.6)
        for y in (-10.0, -7.0, -4.0, -2.5, -1.5, -0.95, -0.5, -0.1, 0.2, 0.5):
            if y < -0.6:
                hc = one_energy(p, [y], tol=1e-10)[0][0]
            elif y < 0:
                hc = one_energy(p, [y], tol=1e-10)[0][0]
            else:
                hc = series.value(y)
            if y <= -2.0:
                ref = hyp2f1_large_negative(ap, gp, dp, y).real
            else:
                ref = complex(mpmath.hyp2f1(ap, gp, dp, y)).real
            worst = max(worst, abs(hc * (1.0 - y) - ref) / abs(ref))
    report(6, "Heun degenerates to 2F1", worst <= 1e-6,
           f"worst relative deviation {worst:.2e} on y in [-10, 0.5] (<=1e-6)")


def test_criterion_7_wavefunction_behavior(roots_k2):
    cfg = CouplingConfig(kappa=2.0, ell=0)
    root = min(roots_k2.omegas, key=lambda w: abs(w - 0.0167))
    ep = EnergyPoint(root)
    xs = xi_star(cfg, ep)
    grid = np.unique(np.append(default_xi_grid(cfg, ep), xs))
    profile = wavefunction(cfg, ep, grid)
    r_star = abs(profile.values[np.searchsorted(grid, xs)])
    bound = 1e-4 * np.max(np.abs(profile.values))
    decaying_ok = r_star < bound and profile.non_decaying is False

    off = wavefunction(cfg, EnergyPoint(0.004),
                       default_xi_grid(cfg, EnergyPoint(0.004)))
    ok = decaying_ok and off.non_decaying is True
    report(7, "wavefunction decay at/off eigenvalue", ok,
           f"|R(xi*)|={r_star:.2e} (<{bound:.2e}) at omega={root:.6f}; "
           f"non-decaying flag at 0.004: {off.non_decaying}")


def test_criterion_8_property_suite(tmp_path):
    failures = []

    # gamma recurrence to 1e-8
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = complex(rng.uniform(-3, 4), rng.uniform(0.3, 3))
        if abs(log_gamma(z + 1) - log_gamma(z) - cmath.log(z)) >= 1e-8:
            failures.append(f"gamma recurrence at {z}")

    # reflection-derived modulus identity to 1e-8
    for nu in np.linspace(0.5, 5.0, 10):
        mod2 = math.exp(2.0 * log_gamma(1j * nu).real)
        if abs(mod2 * nu * math.sinh(math.pi * nu) / math.pi - 1.0) >= 1e-8:
            failures.append(f"modulus identity at nu={nu}")

    # ODE residual of the continued solution below 1e-6
    p = coefficients(2.0, 0, 0.02)
    t_grid = np.arange(math.log(0.5), math.log(30.0), 0.01)
    u = one_energy(p, -np.exp(t_grid), tol=1e-12)[0]
    h = 0.01
    ut = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
    utt = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    for k in range(0, len(ut), 40):
        y = -math.exp(t_grid[k + 2])
        g, gp = u[k + 2], ut[k] / y
        gpp = (utt[k] - ut[k]) / (y * y)
        rhs = heun_second_derivative(*p, y, g, gp)
        scale = max(abs(gpp), abs(rhs), abs(gp / y), abs(g))
        if abs(gpp - rhs) >= 1e-6 * scale:
            failures.append(f"ODE residual at t={t_grid[k + 2]:.2f}")

    # series vs continuation on the overlap band to 1e-8
    p2 = coefficients(2.0, 0, 0.05)
    series = heun_series(*p2, tol=1e-14, radius=0.9)
    for y in (-0.55, -0.7, -0.85):
        direct = series.value(y)
        if abs(one_energy(p2, [y], tol=1e-12)[0][0] - direct) >= 1e-8 * abs(direct):
            failures.append(f"overlap band at y={y}")

    # near-origin log slope equals ell to 1e-2
    ep = EnergyPoint(0.02)
    for ell in (0, 1):
        cfg = CouplingConfig(kappa=2.0, ell=ell)
        prof = wavefunction(cfg, ep, default_xi_grid(cfg, ep, n=150))
        mask = (prof.xi >= 1e-3) & (prof.xi <= 1e-2)
        slope = np.polyfit(np.log(prof.xi[mask]),
                           np.log(np.abs(prof.values[mask])), 1)[0]
        if abs(slope - ell) >= 1e-2:
            failures.append(f"origin slope ell={ell}: {slope}")

    # byte-identical CLI reruns
    args = ("scan", "--kappa", "0.75", "--ell", "0", "--omega-min", "0.01",
            "--omega-max", "0.2", "--points", "60")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([*args, "-o", str(a)]) == 0
    assert cli.main([*args, "-o", str(b)]) == 0
    if a.read_bytes() != b.read_bytes():
        failures.append("CLI rerun not byte-identical")

    report(8, "property suite", not failures, "; ".join(failures) or "all properties hold")
