"""Seeded task lists for the three benchmark workloads and their output checks.

A task is one `gupheun` CLI invocation.  Every input is drawn from the
workload seed; the program only sees the generated command lines.  The list
length follows from `--seconds` and the per-task cost measured on the
reference machine (2-core Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17),
so a faster program finishes the same list sooner.  The costs are in
reference-host seconds (see `PROBE_REF_S` in run.py).

Checks read only what the CLI wrote (exit code, summary line, output file)
and compare it with `reference.py`, never with a second call into gupheun.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shlex
from dataclasses import dataclass

import numpy as np

import reference

# -- spectrum: `gupheun compare` over the default window ----------------------
SPECTRUM_POINTS = 600
SPECTRUM_SMOKE_POINTS = 120
# kappa above ~7 gives spurious roots near omega -> 1/2 on the seed code (the
# series seed at y = -0.5 loses every digit), so draws stop at 5; see README.md
SPECTRUM_KAPPA = (0.05, 5.0)
SPECTRUM_ELLS = (0, 1, 2)
SPECTRUM_TASK_S = 1.95
ROOT_TOL = 1e-9  # the CLI's root tolerance, min(--tol, DEFAULT_ROOT_TOL)
GEOMETRIC_OMEGA = 1e-2
CHECKPOINT = {"kappa": 2.0, "ell": 0}
CHECKPOINT_TARGETS = ((1, 0.2486, 0.005), (2, 0.0167, 0.1 * 0.0167), (4, 1.67e-4, 1.67e-5))

# -- critical: `gupheun critical` at the default floor -------------------------
CRITICAL_FLOOR = "1e-45"
CRITICAL_ELLS = (0, 1)
# At the 1e-45 floor the scans detect states from kappa* + 8.8e-4 (ell = 0)
# and kappa* + 9.5e-4 (ell = 1) on, where the ground level reaches the floor.
# A bracket of width 9.8e-4 starting 1e-4..2.5e-4 above kappa* straddles that
# edge with its midpoint below it, so every task takes the same path: end
# scans without and with states, one halving without states, done (the CLI
# stops below a kappa width of 5e-4).  A scan without states costs more than
# one with states, so a seed must not change that mix.
CRITICAL_WIDTH = 0.00098
CRITICAL_ABOVE = (0.0001, 0.00025)  # kappa_lo sits this far above (ell+1/2)^2/4
CRITICAL_TOL = 0.003
CRITICAL_TASK_S = 4.8

# -- profile: `gupheun wavefunction` on the default grid -----------------------
PROFILE_KAPPA = (0.75, 10.0)
PROFILE_OMEGA = (1e-5, 0.4)
PROFILE_POINTS = 400
PROFILE_TASK_S = 0.0237
PROFILE_REL_TOL = 1e-6
PROFILE_REFERENCE_EVERY = 4  # value-check every 4th profile (reference ~13 ms each)

WORKLOADS = ("spectrum", "critical", "profile")


@dataclass
class Task:
    index: int
    argv: list[str]  # without the output path
    params: dict
    suffix: str

    def command_line(self, path: str) -> list[str]:
        return self.argv + ["-o", path]


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float | None = None) -> float:
    u = rng.random() if u is None else u
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _count(seconds: float, task_s: float, block: int = 1) -> int:
    return block * max(1, round(seconds / (task_s * block)))


def spectrum_tasks(seed: int, seconds: float, smoke: bool = False) -> list[Task]:
    """The kappa = 2 checkpoint, then kappa stratified log-uniform, ell balanced."""
    rng = random.Random(f"spectrum-{seed}")
    points = SPECTRUM_SMOKE_POINTS if smoke else SPECTRUM_POINTS
    window = ["--omega-min", "1e-5", "--omega-max", "0.45", "--points", str(points),
              "--tol", "1e-8"]
    draws = [(CHECKPOINT["kappa"], CHECKPOINT["ell"])]
    if not smoke:
        n = _count(max(seconds - SPECTRUM_TASK_S, SPECTRUM_TASK_S), SPECTRUM_TASK_S)
        shift = rng.randrange(len(SPECTRUM_ELLS))
        for k in range(n):
            kappa = _log_uniform(rng, *SPECTRUM_KAPPA, (k + rng.random()) / n)
            draws.append((kappa, SPECTRUM_ELLS[(k + shift) % len(SPECTRUM_ELLS)]))
    return [Task(i, ["compare", "--kappa", repr(kappa), "--ell", str(ell), *window,
                     "--format", "json"],
                 {"kappa": kappa, "ell": ell, "checkpoint": i == 0}, ".json")
            for i, (kappa, ell) in enumerate(draws)]


def critical_tasks(seed: int, seconds: float, smoke: bool = False) -> list[Task]:
    """ell = 0 and ell = 1 in equal numbers, brackets just above kappa*."""
    rng = random.Random(f"critical-{seed}")
    n = 1 if smoke else _count(seconds, CRITICAL_TASK_S, len(CRITICAL_ELLS))
    ells = [CRITICAL_ELLS[i % len(CRITICAL_ELLS)] for i in range(n)]
    rng.shuffle(ells)
    tasks = []
    for i, ell in enumerate(ells):
        lo = 0.25 * (ell + 0.5) ** 2 + rng.uniform(*CRITICAL_ABOVE)
        tasks.append(Task(i, ["critical", "--ell", str(ell), "--kappa-lo", repr(lo),
                              "--kappa-hi", repr(lo + CRITICAL_WIDTH),
                              "--omega-floor", CRITICAL_FLOOR], {"ell": ell}, ".csv"))
    return tasks


def profile_tasks(seed: int, seconds: float, smoke: bool = False) -> list[Task]:
    rng = random.Random(f"profile-{seed}")
    n = 1 if smoke else _count(seconds, PROFILE_TASK_S)
    tasks = []
    for i in range(n):
        kappa = _log_uniform(rng, *PROFILE_KAPPA)
        omega = _log_uniform(rng, *PROFILE_OMEGA)
        tasks.append(Task(i, ["wavefunction", "--kappa", repr(kappa), "--omega", repr(omega),
                              "--points", str(PROFILE_POINTS)],
                          {"kappa": kappa, "omega": omega,
                           "reference": i % PROFILE_REFERENCE_EVERY == 0}, ".csv"))
    return tasks


TASK_LISTS = {"spectrum": spectrum_tasks, "critical": critical_tasks, "profile": profile_tasks}


def build(workload: str, seed: int, seconds: float, smoke: bool = False) -> list[Task]:
    return TASK_LISTS[workload](seed, seconds, smoke)


# -- checks ---------------------------------------------------------------------


class CheckError(Exception):
    """An output that breaks the schema or misses its reference."""


def parse_summary(stdout: str) -> dict[str, str]:
    lines = stdout.strip().splitlines()
    if not lines:
        raise CheckError("no summary line")
    pairs = {}
    for token in shlex.split(lines[-1]):
        key, sep, value = token.partition("=")
        if not sep:
            raise CheckError(f"summary token {token!r} is not key=value")
        pairs[key] = value
    return pairs


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckError(f"CSV header {rows[:1]} != {header}")
    return rows[1:]


def _nu(kappa: float, ell: int) -> float | None:
    x = 4.0 * kappa - (ell + 0.5) ** 2
    return math.sqrt(x) if x > 0 else None


def levels_missed(omegas: list[float], kappa: float, ell: int) -> int:
    """Levels absent between adjacent roots below GEOMETRIC_OMEGA, from the period 2*pi/nu."""
    nu = _nu(kappa, ell)
    if nu is None:
        return 0
    deep = [w for w in omegas if w < GEOMETRIC_OMEGA]
    period = 2.0 * math.pi / nu
    return sum(max(0, round(math.log(a / b) / period) - 1) for a, b in zip(deep, deep[1:]))


def check_spectrum(task: Task, summary: dict, path: str) -> dict:
    p = task.params
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    keys = {"command", "kappa", "ell", "rows", "ratio_reference", "ratios_exact", "both_empty"}
    if set(payload) != keys:
        raise CheckError(f"JSON keys {sorted(payload)}")
    if (payload["command"], payload["kappa"], payload["ell"]) != ("compare", p["kappa"], p["ell"]):
        raise CheckError("JSON header does not echo the task")
    rows = payload["rows"]
    if summary.get("command") != "compare" or int(summary.get("pairs", -1)) != len(rows):
        raise CheckError(f"summary {summary} disagrees with {len(rows)} rows")
    for r in rows:
        if set(r) != {"n", "omega_exact", "omega_closed_form", "rel_dev"}:
            raise CheckError(f"row keys {sorted(r)}")
        dev = abs(r["omega_closed_form"] - r["omega_exact"]) / r["omega_exact"]
        if not math.isclose(dev, r["rel_dev"], rel_tol=1e-9):
            raise CheckError(f"rel_dev {r['rel_dev']} != {dev}")

    # the exact spectrum: anchor at any matched row, walk the successive ratios
    ratios = payload["ratios_exact"]
    if rows:
        n0, w0 = rows[0]["n"], rows[0]["omega_exact"]
        omegas = [w0]
        for ratio in reversed(ratios[:n0 - 1]):
            omegas.insert(0, omegas[0] / ratio)
        for ratio in ratios[n0 - 1:]:
            omegas.append(omegas[-1] * ratio)
        for r in rows:
            if not math.isclose(omegas[r["n"] - 1], r["omega_exact"], rel_tol=1e-12):
                raise CheckError(f"row n={r['n']} disagrees with ratios_exact")
    else:
        omegas = []
    unanchored = len(ratios) + 1 if ratios and not rows else 0

    if any(not 0.0 < w < 0.5 for w in omegas):
        raise CheckError("root outside (0, 1/2)")
    if any(b >= a for a, b in zip(omegas, omegas[1:])):
        raise CheckError("roots not strictly decreasing")
    if _nu(p["kappa"], p["ell"]) is None and (omegas or ratios or not payload["both_empty"]):
        raise CheckError("weak coupling produced roots")
    if p["checkpoint"]:
        for n, target, tol in CHECKPOINT_TARGETS:
            if len(omegas) < n or abs(omegas[n - 1] - target) > tol:
                raise CheckError(f"checkpoint level {n} misses {target} +- {tol}")
    for w in omegas:
        if not reference.root_is_within(p["kappa"], p["ell"], w, ROOT_TOL):
            raise CheckError(f"root {w!r} has no reference root within {ROOT_TOL}")
    return {"roots": len(omegas), "unanchored_roots": unanchored,
            "levels_missed": levels_missed(omegas, p["kappa"], p["ell"])}


def check_critical(task: Task, summary: dict, path: str) -> dict:
    ell = task.params["ell"]
    rows = _read_csv(path, ["ell", "kappa_star"])
    if len(rows) != 1 or rows[0][0] != str(ell):
        raise CheckError(f"critical rows {rows}")
    kappa_star = float(rows[0][1])
    if summary.get("command") != "critical" or summary.get("kappa_star") != rows[0][1]:
        raise CheckError(f"summary {summary} disagrees with CSV")
    expected = 0.25 * (ell + 0.5) ** 2
    if abs(kappa_star - expected) > CRITICAL_TOL:
        raise CheckError(f"kappa* = {kappa_star} misses {expected} +- {CRITICAL_TOL}")
    return {}


def check_profile(task: Task, summary: dict, path: str) -> dict:
    p = task.params
    rows = _read_csv(path, ["xi", "R"])
    if len(rows) != PROFILE_POINTS:
        raise CheckError(f"{len(rows)} rows, expected {PROFILE_POINTS}")
    data = np.array(rows, dtype=float)
    xi, values = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(data)) or np.any(np.diff(xi) <= 0):
        raise CheckError("non-finite values or unsorted grid")
    xi_star = math.sqrt(4.0 * p["kappa"] / (5.0 * p["omega"]))
    if not (math.isclose(xi[0], 1e-3, rel_tol=1e-9)
            and math.isclose(xi[-1], 1.2 * xi_star, rel_tol=1e-9)):
        raise CheckError("grid does not span [1e-3, 1.2*xi*]")
    if summary.get("command") != "wavefunction" or summary.get("non_decaying") not in ("true", "false"):
        raise CheckError(f"summary {summary}")
    if p["reference"]:
        expected = reference.profile(p["kappa"], 0, p["omega"], xi)
        scale = float(np.max(np.abs(expected)))
        if float(np.max(np.abs(values - expected))) > PROFILE_REL_TOL * scale:
            raise CheckError("profile misses the reference by more than 1e-6*max|R|")
    return {"referenced": int(p["reference"])}


CHECKERS = {"spectrum": check_spectrum, "critical": check_critical, "profile": check_profile}
