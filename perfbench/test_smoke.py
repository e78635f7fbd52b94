"""Tests of the benchmark itself: the smoke mode and the refusal without sources.

Run with `python3 -m pytest perfbench/test_smoke.py` from the repository root;
the smoke run takes about 15 s.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_checks_and_traces_every_workload():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = _results(proc.stdout)
    assert len(results) == 3
    for result in results:
        assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert math.isclose(layer_self, metrics["trace.wall_s"], rel_tol=0.02)
    spectrum, critical, profile = ({k: v["value"] for k, v in r["metrics"].items()}
                                   for r in results)
    assert spectrum["spectral.scan_evals"] == 120 and spectrum["spectral.roots"] >= 4
    assert spectrum["heun.rhs_evals"] > spectrum["heun.solves"] > 0
    assert critical["spectral.scans_per_critical"] == 3
    assert critical["heun.rhs_per_eval.1e-45"] > critical["heun.rhs_per_eval.1e-1"] > 0
    assert profile["radial.profiles"] == 1
    assert profile["radial.series_points"] + profile["radial.path_points"] == 400


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not _results(proc.stdout)
