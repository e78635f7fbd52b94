"""Command-line interface tests: schemas, exit codes, determinism, round-trips."""

import csv
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gupheun import CouplingConfig, EnergyPoint, cli, default_xi_grid, heun, wavefunction
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
        result = cli.spectrum_result_from_json(text)
        assert isinstance(result, SpectrumResult)
        payload = json.loads(text)
        assert result.method == "exact_heun"
        assert result.kappa == 2.0 and result.ell == 0
        assert list(result.omegas) == payload["omegas"]
        # re-serializing reproduces the payload exactly
        assert cli.spectrum_result_to_payload(result) == payload

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
        # the scan's series stop at 1e-11 and settle within 56 terms; the
        # refinement's stop at 1e-13 and need more
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", 56)
        code, _, err = run_cli(capsys, "roots", "--kappa", "2", "--omega-min", "0.2",
                               "--omega-max", "0.3", "--points", "40")
        assert code == 3
        assert "numerical failure" in err


class TestSpectrumCommand:
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
        ep = EnergyPoint.from_omega(2e-3)
        profile = wavefunction(cfg, ep, default_xi_grid(cfg, ep))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["xi", "R"], *([f"{x:.12g}", f"{v:.12g}"] for x, v in
                            zip(profile.xi.tolist(), profile.values.tolist()))])
        assert out.read_bytes() == buf.getvalue().encode()
        assert len(out.read_text().splitlines()) == 401

    def test_missing_omega_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "wavefunction", "--kappa", "2")
        assert code == 2
        assert "omega" in err

    def test_extreme_omega_is_numerical_error(self, capsys, monkeypatch):
        # a series that cannot settle within its term cap is a Heun failure
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", 5)
        code, _, err = run_cli(capsys, "wavefunction", "--kappa", "2",
                               "--omega", "0.4999999999", "--points", "50")
        assert code == 3
        assert "numerical failure" in err

    def test_extreme_omega_profile(self, capsys, tmp_path):
        # epsilon -> 0 sends d to ~1e19; the series is seeded close enough to
        # the origin to settle within its term cap
        code, _, _ = run_cli(capsys, "wavefunction", "--kappa", "2",
                             "--omega", "0.4999999999", "--points", "400",
                             "-o", str(tmp_path / "wf.csv"))
        assert code == 0


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
        # the level count fails outright instead of reading as "no states"
        monkeypatch.setattr(heun, "SERIES_MAX_TERMS", 5)
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


class TestConfiguration:
    def test_bad_kappa_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--kappa", "-1", "--points", "10")
        assert code == 2

    def test_env_var_tolerance(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("GUP_HEUN_TOL", "1e-6")
        code, lines, _ = run_cli(capsys, "scan", "--kappa", "0.75",
                                 "--omega-min", "0.04", "--omega-max", "0.06",
                                 "--points", "20", "-o", str(tmp_path / "s.csv"))
        assert code == 0

    def test_env_var_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("GUP_HEUN_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "scan", "--kappa", "0.75", "--points", "10")
        assert code == 2

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
                                                   ("critical", "gnuplot", True)])
    def test_config_key_the_command_does_not_read(self, capsys, tmp_path, command, key, value):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}))
        code, lines, err = run_cli(capsys, command, "--config", str(cfg_file))
        assert code == 2 and lines == []
        assert err.startswith("invalid configuration") and repr(key) in err

    def test_env_tolerance_on_a_command_without_tol(self, capsys, monkeypatch):
        monkeypatch.setenv("GUP_HEUN_TOL", "1e-6")
        assert run_cli(capsys, "spectrum", "--kappa", "2")[0] == 0

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
        ("scan", "--kappa", "2", "--point-scale", "-1", "--points", "10"),
    ])
    def test_non_finite_or_negative_knob(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "invalid configuration" in err

    def test_units_file_read_before_scan(self, capsys, monkeypatch, tmp_path):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before reading the units file")

        monkeypatch.setattr(cli, "spectral_scan", no_scan)
        code, _, err = run_cli(capsys, "roots", "--kappa", "2",
                               "--units-file", str(tmp_path / "missing.json"))
        assert code == 2
        assert "missing.json" in err

    @pytest.mark.parametrize("argv", [
        ("scan", "--kappa", "2", "--units-file", "x"),
        ("critical", "--gnuplot"),
        ("wavefunction", "--kappa", "2", "--omega", "0.004", "--point-scale", "2"),
        ("spectrum", "--kappa", "2", "--tol", "1e-6"),
        ("wavefunction", "--kappa", "2", "--omega", "0.004", "--tol", "1e-6"),
        ("critical", "--tol", "1e-6"),
        ("critical", "--kappa", "2"),
        ("critical", "--omega", "1e-5"),  # no abbreviation of --omega-floor
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
