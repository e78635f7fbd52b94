"""Command-line interface tests: schemas, exit codes, determinism, round-trips."""

import argparse
import csv
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gupheun import (CouplingConfig, EnergyPoint, cli, default_xi_grid, heun, spectral,
                     wavefunction)
from gupheun.spectral import SpectrumResult


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


def parse_summary(line):
    out = {}
    for token in shlex.split(line):
        key, _, value = token.partition("=")
        out[key] = value
    return out


# windows that give roots and spectrum at kappa = 2 a few levels each
_LEVELS_WINDOW = {"roots": ("--omega-min", "0.2", "--omega-max", "0.3", "--points", "40"),
                  "spectrum": ("--n-max", "5")}


def test_import_leaves_out_scipy_integrate():
    # every command pays for importing gupheun.cli in a fresh interpreter,
    # and scipy.integrate would add another 0.03-0.05 s to it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", "import sys, gupheun.cli; "
                           "print('scipy.integrate' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["gupheun.cli", "gupheun.heun", "gupheun.spectral",
                                    "gupheun.radial", "gupheun.specfun"])
def test_import_leaves_out_scipy_and_mpmath(module):
    # numpy is the only runtime dependency: scipy alone took 0.7 s to import
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", f"import sys, {module}; print(sorted("
                           "k for k in sys.modules if k.split('.')[0] in ('scipy', 'mpmath')))"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_readme_library_example_runs_without_scipy():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           "import sys; sys.modules['scipy'] = None\n" + block],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("(0.248601740967") and lines[-1] == "0.063359375"


class TestScanCommand:
    def test_weak_coupling_summary(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, lines, _ = run_cli(capsys, "scan", "--kappa", "0.05", "--ell", "0",
                                 "--omega-min", "1e-3", "--omega-max", "0.4",
                                 "--points", "80", "-o", str(out))
        assert code == 0
        summary = parse_summary(lines[-1])
        assert summary["command"] == "scan"
        assert summary["brackets"] == "0"
        assert summary["summary"] == "no bound states"
        content = out.read_text().splitlines()
        assert content[0] == "omega,hc_value,bracket_flag"
        assert len(content) == 81
        assert all(row.endswith(",0") for row in content[1:])

    def test_bracket_flag_marks_sign_changes(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, lines, _ = run_cli(capsys, "scan", "--kappa", "2", "--ell", "0",
                                 "--omega-min", "0.2", "--omega-max", "0.3",
                                 "--points", "40", "-o", str(out))
        assert code == 0
        assert parse_summary(lines[-1])["brackets"] == "1"
        flags = [row.split(",")[2] for row in out.read_text().splitlines()[1:]]
        assert flags.count("1") == 1

    def test_failed_points_are_null_in_json(self, capsys, tmp_path):
        # every point fails at kappa = 1e9; JSON has no NaN (RFC 8259)
        out = tmp_path / "scan.json"
        code, lines, _ = run_cli(capsys, "scan", "--kappa", "1e9", "--points", "5",
                                 "--format", "json", "-o", str(out))
        assert code == 0
        summary = parse_summary(lines[-1])
        assert summary["brackets"] == "0"
        assert summary["summary"] == "0 sign-change bracket(s); 5 of 5 points failed"

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        assert json.loads(out.read_text(), parse_constant=no_constant)["values"] == [None] * 5
        assert run_cli(capsys, "scan", "--kappa", "1e9", "--points", "5",
                       "-o", str(tmp_path / "scan.csv"))[0] == 0
        assert [row.split(",")[1] for row in
                (tmp_path / "scan.csv").read_text().splitlines()[1:]] == ["nan"] * 5

    def test_determinism_byte_identical(self, capsys, tmp_path):
        args = ("scan", "--kappa", "0.75", "--ell", "0", "--omega-min", "0.01",
                "--omega-max", "0.2", "--points", "50")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "-o", str(a))[0] == 0
        assert run_cli(capsys, *args, "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestRootsCommand:
    def test_ground_state_csv(self, capsys, tmp_path):
        out = tmp_path / "roots.csv"
        code, lines, _ = run_cli(capsys, "roots", "--kappa", "2", "--ell", "0",
                                 "--omega-min", "0.2", "--omega-max", "0.3",
                                 "--points", "40", "-o", str(out))
        assert code == 0
        content = out.read_text().splitlines()
        assert content[0] == "n,omega,energy_natural_units,method"
        first = content[1].split(",")
        assert first[0] == "1"
        assert abs(float(first[1]) - 0.2486) < 0.005
        assert float(first[2]) == pytest.approx(-float(first[1]) / 2, rel=1e-12)
        assert first[3] == "exact_heun"

    def test_json_round_trip(self, capsys, tmp_path):
        out = tmp_path / "roots.json"
        code, _, _ = run_cli(capsys, "roots", "--kappa", "2", "--ell", "0",
                             "--omega-min", "0.2", "--omega-max", "0.3",
                             "--points", "40", "-o", str(out), "--format", "json")
        assert code == 0
        text = out.read_text()
        payload = json.loads(text)
        result = SpectrumResult(method=payload["method"], omegas=tuple(payload["omegas"]),
                                kappa=payload["kappa"], ell=payload["ell"])
        assert result.method == "exact_heun"
        assert result.kappa == 2.0 and result.ell == 0
        assert list(result.omegas) == payload["omegas"]
        # re-serializing reproduces the payload exactly
        assert cli._levels(result, None, [], "").payload == payload

    def test_units_file_adds_si_column(self, capsys, tmp_path):
        units = tmp_path / "units.json"
        units.write_text(json.dumps(
            {"mass": 2.0, "hbar": 1.0, "beta": 1.0, "alpha_coupling": 2.0}))
        out = tmp_path / "roots.csv"
        code, _, _ = run_cli(capsys, "roots", "--kappa", "2", "--ell", "0",
                             "--omega-min", "0.2", "--omega-max", "0.3",
                             "--points", "40", "-o", str(out),
                             "--units-file", str(units))
        assert code == 0
        content = out.read_text().splitlines()
        assert content[0] == "n,omega,energy_natural_units,method,energy_si"
        row = content[1].split(",")
        assert float(row[4]) == pytest.approx(-float(row[1]) / 4.0, rel=1e-12)

    def test_units_file_kappa_mismatch(self, capsys, tmp_path):
        units = tmp_path / "units.json"
        units.write_text(json.dumps(
            {"mass": 1.0, "hbar": 1.0, "beta": 1.0, "alpha_coupling": 1.0}))
        code, _, err = run_cli(capsys, "roots", "--kappa", "2", "--ell", "0",
                               "--omega-min", "0.2", "--omega-max", "0.3",
                               "--points", "40", "-o", str(tmp_path / "r.csv"),
                               "--units-file", str(units))
        assert code == 2
        assert "kappa" in err

    @pytest.mark.parametrize("command", ["roots", "spectrum"])
    def test_json_units_file_adds_si_key(self, capsys, tmp_path, command):
        units = tmp_path / "units.json"
        units.write_text(json.dumps(
            {"mass": 2.0, "hbar": 1.0, "beta": 1.0, "alpha_coupling": 2.0}))
        out = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, command, "--kappa", "2", *_LEVELS_WINDOW[command],
                             "-o", str(out), "--format", "json", "--units-file", str(units))
        assert code == 0
        payload = json.loads(out.read_text())
        assert list(payload)[-1] == "energy_si"
        assert payload["omegas"]
        assert payload["energy_si"] == [pytest.approx(-w / 4.0, rel=1e-12)
                                        for w in payload["omegas"]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["roots", "spectrum"])
    def test_units_kappa_mismatch_any_format(self, capsys, tmp_path, command, fmt):
        units = tmp_path / "units.json"
        units.write_text(json.dumps(
            {"mass": 1.0, "hbar": 1.0, "beta": 1.0, "alpha_coupling": 1.0}))
        out = tmp_path / f"out.{fmt}"
        code, lines, err = run_cli(capsys, command, "--kappa", "2",
                                   *_LEVELS_WINDOW[command], "-o", str(out),
                                   "--format", fmt, "--units-file", str(units))
        assert code == 2
        assert "kappa" in err and lines == []
        assert not out.exists()

    def test_failed_refinement_exit_3(self, capsys, monkeypatch):
        # counts of the grid evaluate; those of the refinement, between grid
        # points, fail: their paths need more than one continuation panel
        grid = spectral._spectral_points(spectral._scan_grid(0.2, 0.3, 40))

        def failing_off_the_grid(B, q0, q1, y, tol):
            if not np.isin(y, grid).all():
                monkeypatch.setattr(heun, "_MAX_PANELS", 1)
            return heun.heun_zero_counts(B, q0, q1, y, tol=tol)

        monkeypatch.setattr(spectral, "heun_zero_counts", failing_off_the_grid)
        code, lines, err = run_cli(capsys, "roots", "--kappa", "2", "--omega-min", "0.2",
                                   "--omega-max", "0.3", "--points", "40")
        assert (code, lines) == (3, [])
        assert err.startswith("numerical failure: zero count to y = ")
        assert err.endswith(" failed (1 of 1 targets): the target lies beyond 1 panels, or a "
                            "continuation panel overflows, underflows or stays unresolved\n")


class TestSpectrumCommand:
    @pytest.mark.parametrize("kappa,code", [("30000", 0), ("30000.001", 2)])
    def test_si_units_file_at_strong_coupling(self, capsys, tmp_path, kappa, code):
        # CODATA constants reproduce kappa = 3e4 only to one ulp (3.6e-12):
        # that is a match, while a kappa 3e-8 relative away is a mismatch
        mass, hbar = 9.1093837015e-31, 1.054571817e-34
        units = tmp_path / "units.json"
        units.write_text(json.dumps({"mass": mass, "hbar": hbar, "beta": 1e-6,
                                     "alpha_coupling": 2.0 * hbar**2 * 3e4 / mass}))
        out = tmp_path / "spectrum.csv"
        got, lines, err = run_cli(capsys, "spectrum", "--kappa", kappa, "--n-max", "3",
                                  "-o", str(out), "--units-file", str(units))
        assert got == code
        if code:
            assert "kappa" in err and lines == [] and not out.exists()
        else:
            assert out.read_text().splitlines()[0].endswith(",energy_si")

    def test_closed_form_csv(self, capsys, tmp_path):
        out = tmp_path / "spectrum.csv"
        code, lines, _ = run_cli(capsys, "spectrum", "--kappa", "2", "--ell", "0",
                                 "--n-max", "5", "-o", str(out))
        assert code == 0
        content = out.read_text().splitlines()
        assert content[0] == "n,omega,energy_natural_units,method"
        assert all(row.split(",")[3] == "closed_form" for row in content[1:])
        assert abs(float(content[1].split(",")[1]) - 0.024096) < 1e-5

    def test_weak_coupling_empty(self, capsys, tmp_path):
        out = tmp_path / "spectrum.csv"
        code, lines, _ = run_cli(capsys, "spectrum", "--kappa", "0.05",
                                 "-o", str(out))
        assert code == 0
        summary = parse_summary(lines[-1])
        assert summary["levels"] == "0"
        assert summary["summary"] == "no bound states"
        assert out.read_text().splitlines() == ["n,omega,energy_natural_units,method"]

    @pytest.mark.parametrize("argv, column", [
        (("spectrum", "--kappa", "5"), "omega"),
        (("compare", "--kappa", "20", "--ell", "1"), "omega_closed_form"),
    ])
    def test_validity_above_one_half(self, capsys, tmp_path, argv, column):
        # the tower's n = 0 term lies above 1/2 in both: a cut of 1 keeps
        # every level below 1/2 instead of exiting 2 on that term
        out = tmp_path / "levels.csv"
        code, lines, err = run_cli(capsys, *argv, "--validity", "1", "-o", str(out))
        assert code == 0, err
        omegas = [float(r[column]) for r in csv.DictReader(out.read_text().splitlines())]
        assert omegas and all(0.0 < w < 0.5 for w in omegas)

    def test_tower_stops_at_float_floor(self, capsys, tmp_path):
        # beyond n ~ 313 the kappa = 2 levels underflow towards 0.0
        out = tmp_path / "spectrum.csv"
        code, lines, _ = run_cli(capsys, "spectrum", "--kappa", "2", "--n-max", "400",
                                 "-o", str(out))
        assert code == 0
        omegas = [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]
        assert int(parse_summary(lines[-1])["levels"]) == len(omegas) > 300
        assert all(0.0 < b < a for a, b in zip(omegas, omegas[1:]))


class TestWavefunctionCommand:
    def test_non_decaying_flag(self, capsys, tmp_path):
        out = tmp_path / "wf.csv"
        code, lines, _ = run_cli(capsys, "wavefunction", "--kappa", "2",
                                 "--ell", "0", "--omega", "0.004",
                                 "--points", "150", "-o", str(out))
        assert code == 0
        summary = parse_summary(lines[-1])
        assert summary["non_decaying"] == "true"
        content = out.read_text().splitlines()
        assert content[0] == "xi,R"
        assert len(content) == 151

    def test_csv_equals_csv_writer(self, capsys, tmp_path):
        # rows are written as joined lines; csv.writer on the same cells
        # must give the same bytes
        out = tmp_path / "wf.csv"
        code, _, _ = run_cli(capsys, "wavefunction", "--kappa", "3", "--ell", "1",
                             "--omega", "2e-3", "-o", str(out))
        assert code == 0
        cfg = CouplingConfig(kappa=3.0, ell=1)
        ep = EnergyPoint(2e-3)
        profile = wavefunction(cfg, ep, default_xi_grid(cfg, ep))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["xi", "R"], *([f"{x:.12g}", f"{v:.12g}"] for x, v in
                            zip(profile.xi.tolist(), profile.values.tolist()))])
        assert out.read_bytes() == buf.getvalue().encode()
        assert len(out.read_text().splitlines()) == 401

    def test_grid_start_beyond_xi_star_is_config_error(self, capsys):
        # 1.2*xi* = 1.7e-4 at kappa = 1e-8, omega = 0.4: below the 1e-3 start
        code, lines, err = run_cli(capsys, "wavefunction", "--kappa", "1e-8", "--omega", "0.4")
        assert code == 2 and lines == []
        assert err.startswith("invalid configuration: 1.2*xi* = ")
        assert "grid start 0.001" in err

    def test_missing_omega_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "wavefunction", "--kappa", "2")
        assert code == 2
        assert "omega" in err

    def test_extreme_omega_is_numerical_error(self, capsys, monkeypatch):
        # a grid point beyond the panel cap is a Heun failure
        monkeypatch.setattr(heun, "_MAX_PANELS", 1)
        code, _, err = run_cli(capsys, "wavefunction", "--kappa", "2",
                               "--omega", "0.4999999999", "--points", "50")
        assert code == 3
        assert err.startswith("numerical failure: continuation to y = ")
        assert err.endswith(": the target lies beyond 1 panels, or a continuation panel "
                            "overflows or stays unresolved\n")

    def test_extreme_omega_profile(self, capsys, tmp_path):
        # epsilon -> 0 sends d to ~1e19; the series is seeded close enough to
        # the origin to settle within its term cap
        code, _, _ = run_cli(capsys, "wavefunction", "--kappa", "2",
                             "--omega", "0.4999999999", "--points", "400",
                             "-o", str(tmp_path / "wf.csv"))
        assert code == 0

    def test_overflowing_profile_is_one_line(self, capsys):
        # xi^5 overflows on the grid out to 1.2*xi* ~ 1.5e150: numpy's
        # overflow and invalid-value warnings came ahead of the refusal
        code, lines, err = run_cli(capsys, "wavefunction", "--kappa", "2", "--ell", "5",
                                   "--omega", "1e-300", "--points", "50")
        assert (code, lines) == (2, [])
        assert err == "invalid configuration: profile values must be finite\n"


class TestCompareCommand:
    def test_schema(self, capsys, tmp_path):
        out = tmp_path / "cmp.csv"
        code, lines, _ = run_cli(capsys, "compare", "--kappa", "2", "--ell", "0",
                                 "--omega-min", "1e-4", "--omega-max", "0.1",
                                 "--points", "150", "-o", str(out))
        assert code == 0
        content = out.read_text().splitlines()
        assert content[0] == "n,omega_exact,omega_closed_form,rel_dev"
        assert len(content) >= 2
        summary = parse_summary(lines[-1])
        assert summary["agreement_empty"] == "false"


class TestCountBeforeScan:
    """`roots` and `compare` bracket the window's levels by their zero count."""

    @pytest.mark.parametrize("command,key", [("roots", "roots"), ("compare", "pairs")])
    @pytest.mark.parametrize("kappa", ["0.05", "0.1"])
    def test_empty_window_is_not_scanned(self, capsys, monkeypatch, command, key, kappa):
        # 0.05 lies below the critical coupling 1/16; at 0.1 the ground level
        # lies below the window's floor 1e-5: one count call, no value
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[-1].size)
            return heun.heun_zero_counts(*args, **kwargs)

        def no_values(*args, **kwargs):
            raise AssertionError("valued a window without levels")

        monkeypatch.setattr(spectral, "heun_zero_counts", counted)
        monkeypatch.setattr(spectral, "_spectral_values", no_values)
        code, lines, err = run_cli(capsys, command, "--kappa", kappa, "--ell", "0")
        assert (code, err) == (0, "")
        assert parse_summary(lines[-1])[key] == "0"
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["roots", "compare"])
    def test_failed_count_is_numerical_error(self, capsys, monkeypatch, tmp_path, command, fmt):
        # no scan decides alone: without its certificate the run fails
        def failed_count(*args, **kwargs):
            raise heun.HeunEvaluationError("zero count failed")

        def no_values(*args, **kwargs):
            raise AssertionError("valued a window whose count failed")

        monkeypatch.setattr(spectral, "heun_zero_counts", failed_count)
        monkeypatch.setattr(spectral, "_spectral_values", no_values)
        out = tmp_path / f"{command}.{fmt}"
        code, lines, err = run_cli(capsys, command, "--kappa", "2", "--format", fmt,
                                   "-o", str(out))
        assert (code, lines, err) == (3, [], "numerical failure: zero count failed\n")
        assert not out.exists()

    @pytest.mark.parametrize("points,lo,hi", [pytest.param(5, 0, 4, id="ends"),
                                              pytest.param(600, 288, 304, id="interior")])
    @pytest.mark.parametrize("command", ["roots", "compare"])
    def test_count_that_rises_is_numerical_error(self, capsys, monkeypatch, tmp_path, command,
                                                 points, lo, hi):
        # N(omega) cannot grow with omega; a count that does is a failure,
        # not an interval to skip: between the grid ends, or between the
        # coarse points 288 and 304 of a grid whose ends count 5 levels
        omegas = spectral._scan_grid(1e-5, 0.45, points)
        y_grid = spectral._spectral_points(omegas)

        def rising(B, q0, q1, y, tol):
            i = np.searchsorted(y_grid, y)
            return np.where(i == hi, 6, np.where(i <= lo, 5, 0)), np.ones(y.size), np.zeros(y.size)

        monkeypatch.setattr(spectral, "heun_zero_counts", rising)
        out = tmp_path / "out.csv"
        code, lines, err = run_cli(capsys, command, "--kappa", "2", "--points", str(points),
                                   "-o", str(out))
        assert (code, lines) == (3, [])
        assert err == (f"numerical failure: zero count rises with omega, from 5 at "
                       f"omega = {omegas[lo]:g} to 6 at omega = {omegas[hi]:g}\n")
        assert not out.exists()

    @pytest.mark.parametrize("coupling", [("--kappa", "2"), ("--kappa", "5", "--ell", "2")])
    def test_deep_window_count_that_rises(self, capsys, coupling):
        # below about 1e-150 the Heun values underflow and the count stops
        # being monotone (ROADMAP item 4); which counted grid energies show
        # it depends on the count's batching, so a change there that turns
        # these into exit 0 has moved the guard, not mended the count
        code, lines, err = run_cli(capsys, "roots", *coupling, "--omega-min", "1e-300")
        assert (code, lines) == (3, [])
        assert err.startswith("numerical failure: zero count rises with omega, from ")

    def test_uncertified_level_is_one_line(self, capsys, monkeypatch):
        # ends whose F - k is -1/2 at both: the secant across them divided by
        # zero, and numpy's warning came ahead of the failure
        def equal_f(B, q0, q1, y, tol):
            return np.array([1, 0]), np.ones(2), np.array([-0.5, 0.5])

        monkeypatch.setattr(spectral, "heun_zero_counts", equal_f)
        code, lines, err = run_cli(capsys, "roots", "--kappa", "2", "--points", "2")
        assert (code, lines) == (3, [])
        assert err == ("numerical failure: level 1 is not certified in omega = [1e-05, 0.45] "
                       "by the count and the sign of g\n")

    @pytest.mark.slow
    def test_uncertified_deep_level_is_one_line(self, capsys):
        # about 3 s on a 2-core Xeon; g underflows to 0.0 at the deepest
        # counted energies, which leaves their F without a value
        code, lines, err = run_cli(capsys, "roots", "--kappa", "20", "--ell", "2",
                                   "--omega-min", "1e-150")
        assert (code, lines) == (3, [])
        assert err.startswith("numerical failure: level ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["roots", "compare"])
    def test_count_that_fails_at_strong_coupling(self, capsys, command):
        # at kappa = 1e9 the count and every scan point fail; the scan alone
        # read that as "no bound states"
        code, lines, err = run_cli(capsys, command, "--kappa", "1e9", "--points", "20")
        assert (code, lines) == (3, [])
        assert err.startswith("numerical failure: zero count")

    @pytest.mark.parametrize("window", [("0.3", "0.2"), ("1e-5", "0.6")])
    @pytest.mark.parametrize("command", ["roots", "compare"])
    def test_invalid_window_exit_2(self, capsys, command, window):
        # checked before the count, which would find no level in [0.3, 0.2]
        code, lines, err = run_cli(capsys, command, "--kappa", "0.1", "--omega-min", window[0],
                                   "--omega-max", window[1])
        assert (code, lines) == (2, [])
        assert err == "invalid configuration: need 0 < omega_min < omega_max < 1/2\n"

    def test_missing_levels_warn(self, capsys):
        # 20 points over [1e-5, 0.45] hold all 31 levels at kappa = 100, up
        # to 4 between two neighbours: each is solved by its index, and none
        # is lost or warned of
        code, lines, err = run_cli(capsys, "roots", "--kappa", "100", "--points", "20")
        assert (code, err) == (0, "")
        assert parse_summary(lines[-1])["roots"] == "31"

    def test_merged_roots_warn(self, capsys):
        # all 12 levels of [1e-12, 0.45] at kappa = 2, the deepest at 2.4e-12:
        # a relative tolerance merges none of them
        code, lines, err = run_cli(capsys, "roots", "--kappa", "2", "--omega-min", "1e-12")
        assert (code, err) == (0, "")
        assert parse_summary(lines[-1])["roots"] == "12"


class TestCriticalCommand:
    def test_shifted_threshold_with_shallow_floor(self, capsys, tmp_path):
        # with a 1e-5 floor the detectability edge sits near kappa ~ 0.115,
        # well above the true critical coupling: cheap plumbing check
        out = tmp_path / "crit.csv"
        code, lines, _ = run_cli(capsys, "critical", "--ell", "0",
                                 "--kappa-lo", "0.09", "--kappa-hi", "0.16",
                                 "--omega-floor", "1e-5", "-o", str(out))
        assert code == 0
        summary = parse_summary(lines[-1])
        kappa_star = float(summary["kappa_star"])
        assert 0.10 < kappa_star < 0.13
        content = out.read_text().splitlines()
        assert content[0] == "ell,kappa_star"
        assert content[1].startswith("0,")

    def test_failed_count_is_numerical_error(self, capsys, monkeypatch):
        # the level count fails outright instead of reading as "no states":
        # its paths need more than one continuation panel
        monkeypatch.setattr(heun, "_MAX_PANELS", 1)
        code, _, err = run_cli(capsys, "critical", "--ell", "0",
                               "--kappa-lo", "0.05", "--kappa-hi", "0.08")
        assert code == 3
        assert "numerical failure: zero count" in err

    def test_no_transition_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--ell", "0",
                               "--kappa-lo", "0.2", "--kappa-hi", "0.3",
                               "--omega-floor", "1e-10")
        assert code == 3
        assert "no transition" in err

    def test_bracket_far_from_zero_is_blamed_on_the_bracket(self, capsys):
        # near 2e13, 4 float spacings of kappa (0.0178) exceed the kappa_tol
        # of 5e-4, which no flag sets: the message names the bracket instead
        code, lines, err = run_cli(capsys, "critical", "--kappa-lo", "1e13", "--kappa-hi", "2e13")
        assert (code, lines) == (2, [])
        assert err == ("invalid configuration: 4 float spacings of kappa in [1e+13, 2e+13] "
                       "are 0.0178, not below kappa_tol = 0.0005\n")


class TestConfiguration:
    def test_bad_kappa_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--kappa", "-1", "--points", "10")
        assert code == 2

    # the tolerance comes from --tol or the config file; no environment
    # variable reaches a run, whether or not its command reads tol
    _ENV_SCAN = ("scan", "--kappa", "0.75", "--omega-min", "0.04", "--omega-max", "0.06",
                 "--points", "20", "-o")

    def _scan_bytes_with_env(self, capsys, monkeypatch, tmp_path, value):
        assert run_cli(capsys, *self._ENV_SCAN, str(tmp_path / "plain.csv"))[0] == 0
        monkeypatch.setenv("GUP_HEUN_TOL", value)
        assert run_cli(capsys, *self._ENV_SCAN, str(tmp_path / "env.csv"))[0] == 0
        return (tmp_path / "env.csv").read_bytes(), (tmp_path / "plain.csv").read_bytes()

    def test_env_var_tolerance(self, capsys, monkeypatch, tmp_path):
        # --tol 1e-6 changes these bytes, so the same value in the
        # environment would show if it were read
        env, plain = self._scan_bytes_with_env(capsys, monkeypatch, tmp_path, "1e-6")
        assert env == plain

    def test_env_var_invalid(self, capsys, monkeypatch, tmp_path):
        env, plain = self._scan_bytes_with_env(capsys, monkeypatch, tmp_path, "not-a-number")
        assert env == plain

    def test_env_tolerance_on_a_command_without_tol(self, capsys, monkeypatch):
        monkeypatch.setenv("GUP_HEUN_TOL", "not-a-number")
        assert run_cli(capsys, "critical")[0] == 0
        monkeypatch.setenv("GUP_HEUN_TOL", "-1")
        assert run_cli(capsys, "spectrum", "--kappa", "2")[0] == 0

    @pytest.mark.parametrize("argv", [("roots", "--kappa", "2", "--omega-min", "1e-320"),
                                      ("wavefunction", "--kappa", "2", "--omega", "1e-320"),
                                      ("scan", "--kappa", "2", "--omega-min", "1e-309")])
    def test_overflowing_spectral_point_is_one_config_error(self, argv):
        # y* and xi* overflow below omega ~ 2.7e-309; in a fresh
        # interpreter, so that numpy warnings would reach stderr
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "gupheun.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("invalid configuration: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("is not finite\n")

    def test_config_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "kappa": 0.05, "ell": 0, "omega_min": 1e-3, "omega_max": 0.3,
            "points": 40, "output_path": str(tmp_path / "out.csv"),
        }))
        code, lines, _ = run_cli(capsys, "scan", "--config", str(cfg_file))
        assert code == 0
        summary = parse_summary(lines[-1])
        assert summary["kappa"] == "0.05"
        assert (tmp_path / "out.csv").exists()

    def test_config_file_flag_overrides(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"kappa": 0.05, "points": 40,
                                        "omega_min": 1e-3, "omega_max": 0.3}))
        code, lines, _ = run_cli(capsys, "scan", "--config", str(cfg_file),
                                 "--kappa", "0.75")
        assert code == 0
        assert parse_summary(lines[-1])["kappa"] == "0.75"

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"kapa": 0.05}))
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg_file))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("key,value", [("points", "40"), ("kappa", "2"),
                                           ("points", True), ("kappa", True)])
    def test_config_wrong_type(self, capsys, tmp_path, key, value):
        # scan reads both keys, so only the type check can reject them
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}))
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg_file))
        assert code == 2
        assert err.startswith(f"invalid configuration: {key} must be")

    @pytest.mark.parametrize("command,key,value", [("scan", "units_file", "/nonexistent"),
                                                   ("spectrum", "points", 40),
                                                   ("critical", "gnuplot", True),
                                                   ("roots", "point_scale", 1.0)])
    def test_config_key_the_command_does_not_read(self, capsys, tmp_path, command, key, value):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}))
        code, lines, err = run_cli(capsys, command, "--config", str(cfg_file))
        assert code == 2 and lines == []
        assert err.startswith("invalid configuration") and repr(key) in err

    def test_config_not_an_object(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("[]")
        code, _, err = run_cli(capsys, "scan", "--config", str(cfg_file))
        assert code == 2
        assert "JSON object" in err

    def test_config_int_for_float(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"kappa": 2, "n_max": 5, "validity": 1}))
        code, lines, _ = run_cli(capsys, "spectrum", "--config", str(cfg_file))
        assert code == 0
        assert parse_summary(lines[-1])["levels"] == "6"

    @pytest.mark.parametrize("argv", [
        ("scan", "--tol", "inf"),
        ("scan", "--tol", "nan"),
        ("spectrum", "--kappa", "2", "--validity", "nan"),
    ])
    def test_non_finite_or_negative_knob(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "invalid configuration" in err

    @pytest.mark.parametrize("argv,message", [
        (("scan", "--tol", "0"), "tol must be finite and in (0, 1), got 0.0"),
        (("roots", "--tol", "-1"), "tol must be finite and in (0, 1), got -1.0"),
        (("scan", "--points", "1"), "need at least two scan points"),
        (("compare", "--points", "0"), "need at least two scan points"),
        (("wavefunction", "--omega", "0.004", "--points", "1"), "need at least two grid points"),
    ])
    def test_range_is_checked_by_the_library(self, capsys, tmp_path, argv, message):
        # RunConfig checks types and finiteness; the function that uses the
        # value checks its range, before any output is written
        out = tmp_path / "out.csv"
        code, lines, err = run_cli(capsys, *argv, "--kappa", "2", "-o", str(out))
        assert (code, lines, err) == (2, [], f"invalid configuration: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("--kappa", "2", "--tol=-1e-8"), "tol must be finite and in (0, 1), got -1e-08"),
        (("--kappa=-1e-3",), "kappa must be finite and positive, got -0.001"),
    ])
    def test_negative_value_in_exponent_form(self, capsys, tmp_path, argv, message):
        # argparse reads a separate "-1e-8" as an option, not as a negative
        # number; written with "=" the value reaches the range check
        out = tmp_path / "out.csv"
        code, lines, err = run_cli(capsys, "roots", *argv, "-o", str(out))
        assert (code, lines, err) == (2, [], f"invalid configuration: {message}\n")
        assert not out.exists()

    def test_units_file_read_before_scan(self, capsys, monkeypatch, tmp_path):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before reading the units file")

        monkeypatch.setattr(spectral, "_counted_brackets", no_scan)
        code, _, err = run_cli(capsys, "roots", "--kappa", "2",
                               "--units-file", str(tmp_path / "missing.json"))
        assert code == 2
        assert "missing.json" in err

    @pytest.mark.parametrize("units,message", [
        ([1, 2], "units file {path} must hold a JSON object"),
        ({"mass": "1", "hbar": 1, "beta": 1, "alpha_coupling": 4}, "mass must be float, got '1'"),
        ({"mass": None, "hbar": 1, "beta": 1, "alpha_coupling": 4}, "mass must be float, got None"),
        ({"mass": True, "hbar": 1, "beta": 1, "alpha_coupling": 4}, "mass must be float, got True"),
    ], ids=["list", "string", "null", "bool"])
    def test_malformed_units_file(self, capsys, tmp_path, units, message):
        # the first three ended in a TypeError traceback, and true ran as mass 1
        path = tmp_path / "units.json"
        path.write_text(json.dumps(units))
        out = tmp_path / "out.csv"
        code, lines, err = run_cli(capsys, "roots", "--kappa", "2", "--units-file", str(path),
                                   "-o", str(out))
        message = message.format(path=path)
        assert (code, lines, err) == (2, [], f"invalid configuration: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("roots", "--tol", "1e5"), ("roots", "--tol", "1e10"),
                                      ("roots", "--tol", "1e300"),
                                      ("scan", "--tol", "1e300", "--points", "20")])
    def test_huge_tolerance_is_no_crash(self, capsys, argv):
        # from about tol = 1e5 every continuation panel is far field, which
        # once left the panel solver an empty tuple and an IndexError; from
        # tol = 1 on the values are not the function's, so such a tol is
        # rejected before anything is evaluated
        code, lines, err = run_cli(capsys, *argv, "--kappa", "2")
        assert (code, lines) == (2, [])
        assert err == ("invalid configuration: tol must be finite and in (0, 1), "
                       f"got {float(argv[2])}\n")

    @pytest.mark.parametrize("argv", [
        ("scan", "--kappa", "2", "--units-file", "x"),
        ("critical", "--gnuplot"),
        ("wavefunction", "--kappa", "2", "--omega", "0.004", "--point-scale", "2"),
        ("spectrum", "--kappa", "2", "--tol", "1e-6"),
        ("wavefunction", "--kappa", "2", "--omega", "0.004", "--tol", "1e-6"),
        ("critical", "--tol", "1e-6"),
        ("critical", "--kappa", "2"),
        ("critical", "--omega", "1e-5"),  # no abbreviation of --omega-floor
        ("roots", "--kappa", "2", "--point-scale", "1"),  # y* is (Omega-1)/Omega alone
    ])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_gnuplot_script(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "scan", "--kappa", "0.75",
                             "--omega-min", "0.01", "--omega-max", "0.2",
                             "--points", "30", "-o", str(out), "--gnuplot")
        assert code == 0
        script = tmp_path / "scan.csv.gp"
        assert script.exists()
        text = script.read_text()
        assert "plot" in text and str(out) in text


# one cheap case per command: (argv, CSV header, JSON keys, summary keys)
_CONTRACT = {
    "scan": (("--kappa", "2", "--omega-min", "0.2", "--omega-max", "0.3", "--points", "40"),
             "omega,hc_value,bracket_flag",
             ["command", "kappa", "ell", "omegas", "values", "brackets"],
             ["command", "kappa", "ell", "points", "brackets", "summary"]),
    "roots": (("--kappa", "2", "--omega-min", "0.2", "--omega-max", "0.3", "--points", "40"),
              "n,omega,energy_natural_units,method",
              ["method", "kappa", "ell", "omegas", "energy_natural_units"],
              ["command", "kappa", "ell", "roots", "omega_1", "summary"]),
    "spectrum": (("--kappa", "2", "--n-max", "5"),
                 "n,omega,energy_natural_units,method",
                 ["method", "kappa", "ell", "omegas", "energy_natural_units"],
                 ["command", "kappa", "ell", "levels", "summary"]),
    "wavefunction": (("--kappa", "2", "--omega", "0.004", "--points", "50"),
                     "xi,R",
                     ["command", "kappa", "ell", "omega", "xi", "R", "non_decaying"],
                     ["command", "kappa", "ell", "omega", "points", "non_decaying",
                      "summary"]),
    "compare": (("--kappa", "2", "--omega-min", "1e-4", "--omega-max", "0.1",
                 "--points", "150"),
                "n,omega_exact,omega_closed_form,rel_dev",
                ["command", "kappa", "ell", "rows", "ratio_reference", "ratios_exact",
                 "both_empty"],
                ["command", "kappa", "ell", "pairs", "agreement_empty", "summary"]),
    "critical": (("--ell", "0", "--kappa-lo", "0.09", "--kappa-hi", "0.16",
                  "--omega-floor", "1e-5"),
                 "ell,kappa_star",
                 ["command", "ell", "kappa_star"],
                 ["command", "ell", "kappa_star", "summary"]),
}


class TestOutputContract:
    """Column, key and summary order of every command, in both formats."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(_CONTRACT))
    def test_schema(self, capsys, tmp_path, command, fmt):
        argv, header, json_keys, summary_keys = _CONTRACT[command]
        out = tmp_path / f"out.{fmt}"
        code, lines, err = run_cli(capsys, command, *argv, "--format", fmt, "-o", str(out))
        assert code == 0 and err == ""
        assert list(parse_summary(lines[-1])) == summary_keys
        text = out.read_text()
        if fmt == "csv":
            assert text.splitlines()[0] == header
            return
        payload = json.loads(text)
        assert list(payload) == json_keys
        if command == "compare":
            assert payload["rows"]
            assert all(list(row) == ["n", "omega_exact", "omega_closed_form", "rel_dev"]
                       for row in payload["rows"])


_FIELDS = [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "command"]


class TestCommandTable:
    """Each row of `cli._COMMANDS` names exactly the settings its command reads."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_row_is_what_the_command_reads(self, capsys, tmp_path, command):
        read = set()

        class Recording(cli.RunConfig):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        # `_emit` reads format and gnuplot only when it writes a CSV file
        argv = (command, *_CONTRACT[command][0], "-o", str(tmp_path / "out.csv"))
        cfg = Recording(**dataclasses.asdict(cli.build_config(list(argv))))
        read.clear()
        assert cli.run(cfg) == 0
        assert read & set(_FIELDS) == set(cli._COMMANDS[command].settings)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_other_setting_is_rejected(self, capsys, tmp_path, command):
        others = [k for k in _FIELDS if k not in cli._COMMANDS[command].settings]
        defaults = cli.RunConfig(command)
        for key in others:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--" + key.replace("_", "-"), "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            cfg_file = tmp_path / f"{key}.json"
            cfg_file.write_text(json.dumps({key: getattr(defaults, key)}))
            code, lines, err = run_cli(capsys, command, *_CONTRACT[command][0],
                                       "--config", str(cfg_file))
            assert (code, lines) == (2, []), key
            assert f"unknown config keys for {command}: [{key!r}]" in err

    def test_parsing_adds_flags_to_the_invoked_command_only(self, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def recording(parser, *flags, **kwargs):
            added.append((parser.prog, flags))
            return add_argument(parser, *flags, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
        cli._build_parser.cache_clear()
        try:
            cfg = cli.build_config(["critical", "--ell", "1", "--omega-floor", "1e-20"])
        finally:
            cli._build_parser.cache_clear()
        assert (cfg.command, cfg.ell, cfg.omega_floor) == ("critical", 1, 1e-20)
        flagged = {prog for prog, flags in added if flags != ("-h", "--help")}
        assert flagged == {"gupheun critical"}
        # every command is still registered, each with its own help flag
        helped = [prog for prog, flags in added if flags == ("-h", "--help")]
        assert helped == ["gupheun", *(f"gupheun {name}" for name in cli._COMMANDS)]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_every_flag_of_the_command(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: gupheun {command} [-h]")
        for key in (*cli._COMMANDS[command].settings, "config"):
            flag = "--output" if key == "output_path" else "--" + key.replace("_", "-")
            assert f" {flag}" in out, flag

    @pytest.mark.parametrize("argv, code, stream", [(["--help"], 0, "out"), (["bogus"], 2, "err")])
    def test_top_level_lists_every_command(self, capsys, argv, code, stream):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        text = getattr(capsys.readouterr(), stream)
        assert "{" + ",".join(cli._COMMANDS) + "}" in text
