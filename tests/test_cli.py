"""Command-line interface tests: schemas, exit codes, determinism, round-trips."""

import json
import shlex

import pytest

from gupheun import cli, heun
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
