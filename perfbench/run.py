#!/usr/bin/env python3
"""Benchmark of the gupheun CLI: seeded workloads, output checks, traced layers.

Usage (from the root of a checkout that holds `src/gupheun`):

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 14   # every workload
    python3 perfbench/run.py --smoke                                # one tiny task each

One process runs one workload on one thread.  Each task is one in-process
call of `gupheun.cli.main(argv)` writing its output file to a temporary
directory under `perfbench/out/`.  The task list is timed with tracing off;
outputs are checked afterwards.  With `--trace 1` the same list runs again
with every gupheun layer wrapped (see `spans.py`), and the per-layer metrics
are reported instead of the end-to-end ones.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in set-up children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
# Times are reported at the speed the host had when PROBE_REF_S was measured
# (2-core Intel Xeon, quiet).  A fixed probe runs between tasks for about
# PROBE_SHARE of the timed time; each raw time is scaled by PROBE_REF_S over
# the mean probe time of its own pass.  The probe is benchmark code, so a
# change to gupheun moves the scaled times exactly as it moves the raw ones.
PROBE_SHARE = 0.1
PROBE_REF_S = 0.15

sys.path.insert(0, str(BENCH_DIR))



@dataclass
class Outcome:
    code: int | None
    wall: float
    cpu: float
    stdout: str
    error: str | None
    path: str


class SpeedProbe:
    """Interleaves `reference.probe` with timed work; gives the host-speed scale."""

    def __init__(self):
        import reference

        self._work = reference.probe
        self._work()  # warm-up, not recorded
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._owed = 0.0

    def run(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._work()
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(time.process_time() - cpu0)

    def after(self, seconds: float) -> None:
        """Probe for PROBE_SHARE of the `seconds` of work just timed."""
        self._owed += PROBE_SHARE * seconds
        while self._owed > 0.0:
            self.run()
            self._owed -= self.wall[-1]

    def scale(self) -> tuple[float, float]:
        """Factors taking raw wall and CPU seconds to reference-host seconds."""
        return (PROBE_REF_S / statistics.fmean(self.wall),
                PROBE_REF_S / statistics.fmean(self.cpu))


def import_cli():
    """Import gupheun.cli from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import gupheun
    import gupheun.cli

    if Path(gupheun.__file__).resolve().parent != SRC / "gupheun":
        raise ImportError(f"gupheun imported from {gupheun.__file__}, not {SRC}")
    return gupheun.cli


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "gupheun").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": os.getloadavg(), "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure_setup(samples: int) -> tuple[list[float], float]:
    """Fresh interpreter until `import gupheun.cli` returns, as every CLI call pays.

    Returns the raw samples and the host-speed scale probed between them.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = SpeedProbe()
    times = []
    for _ in range(samples):
        probe.run()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gupheun.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
    probe.run()
    return times, probe.scale()[0]


def run_tasks(cli, tasks, out_dir: Path, tracer=None) -> tuple[list[Outcome], SpeedProbe]:
    """Run the task list once, probing the host speed between tasks."""
    out_dir.mkdir(parents=True)
    outcomes = []
    probe = SpeedProbe()
    probe.run()
    for task in tasks:
        path = str(out_dir / f"task{task.index}{task.suffix}")
        argv = task.command_line(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.task = task.index
        error = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:  # a task that raises is a failed task, not a crashed run
            code, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - wall0
        outcomes.append(Outcome(code, wall, time.process_time() - cpu0, stdout.getvalue(),
                                error or stderr.getvalue() or None, path))
        probe.after(wall)
    return outcomes, probe


def check_outcomes(workload: str, tasks, outcomes) -> tuple[dict[int, str], dict]:
    """Failure message per failed task index, and the checkers' summed counts."""
    import workloads

    failures, totals = {}, {}
    for task, out in zip(tasks, outcomes):
        try:
            if out.code != 0:
                raise workloads.CheckError(f"exit code {out.code}: {out.error}")
            summary = workloads.parse_summary(out.stdout)
            info = workloads.CHECKERS[workload](task, summary, out.path)
        except (workloads.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            failures[task.index] = f"{' '.join(task.argv)}: {exc}"
            continue
        for key, value in info.items():
            totals[key] = totals.get(key, 0) + value
    return failures, totals


def same_outputs(a: list[Outcome], b: list[Outcome]) -> bool:
    return all(Path(x.path).read_bytes() == Path(y.path).read_bytes()
               for x, y in zip(a, b) if x.code == 0 and y.code == 0)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Time the task list, check its outputs and, with `trace`, run it again traced."""
    import workloads
    from spans import Tracer

    prov = provenance(seed)
    setup, setup_scale = ([], 1.0) if trace or smoke else measure_setup(SETUP_SAMPLES)
    cli = import_cli()
    tasks = workloads.build(workload, seed, seconds, smoke)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        plain, probe = run_tasks(cli, tasks, Path(tmp) / "plain")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = sum(o.wall for o in plain)
        wall_scale, cpu_scale = probe.scale()
        raw = {"setup_s": statistics.median(setup) if setup else 0.0, "wall_s": wall,
               "cpu_s": sum(o.cpu for o in plain),
               "task_p50_s": statistics.median(o.wall for o in plain)}
        metrics = {"setup_s": raw["setup_s"] * setup_scale,
                   "wall_s": wall * wall_scale, "cpu_s": raw["cpu_s"] * cpu_scale,
                   "task_p50_s": raw["task_p50_s"] * wall_scale, "peak_rss_mb": peak_rss_mb}
        failures, totals = check_outcomes(workload, tasks, plain)
        problems = [f"task {i} {msg}" for i, msg in failures.items()]
        absent = []
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_probe = run_tasks(cli, tasks, Path(tmp) / "traced", tracer)
            finally:
                tracer.uninstall()
            traced_wall = sum(o.wall for o in traced)
            if not same_outputs(plain, traced):
                problems.append("traced outputs differ from untraced outputs")
            layer_metrics, absent = tracer.metrics()
            metrics.update(layer_metrics)
            metrics["cli.bytes_out"] = float(sum(Path(o.path).stat().st_size + len(o.stdout)
                                                 for o in traced if o.code == 0))
            metrics["spectral.levels_missed"] = float(totals.get("levels_missed", 0))
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.overhead"] = (traced_wall * traced_probe.scale()[0]
                                         / metrics["wall_s"] - 1.0)
            tracer.write(OUT_DIR / f"spans-{workload}.json")
    report = {"workload": workload, "provenance": prov, "tasks": len(tasks),
              "failed_tasks": len(failures), "failed_frac": len(failures) / len(tasks),
              "levels_missed": totals.get("levels_missed", 0), "totals": totals,
              "setup_samples_s": setup, "raw": raw,
              "scale": {"setup": setup_scale, "wall": wall_scale, "cpu": cpu_scale,
                        "probes": len(probe.wall)},
              "absent": absent, "problems": problems}
    return metrics, report


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(workload: str, metrics: dict, report: dict, trace: bool) -> bool:
    """Print the report; the last line is the JSON result with the per-mode metric set."""
    e2e = metric_units("end_to_end")
    units = metric_units("per_layer") if trace else e2e
    correct = not report["problems"]
    print(f"workload={workload} tasks={report['tasks']} failed_frac={report['failed_frac']:g}"
          f" levels_missed={report['levels_missed']} totals={json.dumps(report['totals'])}")
    if trace:
        print("untraced " + " ".join(f"{k}={metrics[k]:.6g}{u}" for k, u in e2e.items()
                                     if k != "setup_s"))
    print("provenance " + json.dumps(report["provenance"]))
    print("raw (unscaled) s " + json.dumps(report["raw"]) + " host-speed scale "
          + json.dumps(report["scale"]))
    if report["setup_samples_s"]:
        print("setup samples s " + json.dumps(report["setup_samples_s"]))
    if report["absent"]:
        print("absent counters (source function gone): " + " ".join(report["absent"]))
    for line in report["problems"]:
        print("FAILED " + line.replace("\n", " | "))
    for name, unit in units.items():
        print(f"  {name:<28} {metrics.get(name, 0.0):.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["tasks"],
        "failed": report["failed_tasks"],
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return correct


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    ok = True
    import workloads

    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, check=False)
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def smoke() -> int:
    """One tiny task per workload, untraced and traced, checked like the real ones."""
    import workloads

    ok = True
    for workload in workloads.WORKLOADS:
        metrics, report = run_workload(workload, 0, 1.0, trace=True, smoke=True)
        ok = emit(workload, metrics, report, trace=True) and ok
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("spectrum", "critical", "profile", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "gupheun" / "cli.py").is_file():
        print(f"error: {SRC / 'gupheun'} not found; run from a gupheun checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    metrics, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(args.workload, metrics, report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
