"""Command-line front end: scans, spectra, wavefunctions, CSV/JSON emission.

Each command's runner returns an `Output` (CSV table, JSON payload, summary
fields) and never opens a file; `run` hands it to the one writer, `_emit`.

Commands
--------
scan          sample the spectral function over an omega window
roots         refine scan brackets into exact eigenvalues
spectrum      closed-form low-energy tower
wavefunction  sample R(xi) at a trial energy
compare       exact eigenvalues vs the closed-form tower
critical      bisect for the critical coupling

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.  The
last stdout line is a machine-parsable `key=value` summary.  The default
tolerance 1e-8 can be overridden by the GUP_HEUN_TOL environment variable,
by a JSON config file (--config), or by --tol (highest precedence).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields

from .heun import CouplingConfig, EnergyPoint, HeunEvaluationError
from . import radial
from .radial import default_xi_grid, wavefunction
from .specfun import GammaPoleError, NonConvergenceError
from . import spectral
from .spectral import (
    NoTransitionError,
    SpectrumResult,
    UnitSystem,
    closed_form_spectrum,
    compare_spectra,
    critical_coupling,
    energy_from_omega,
    find_roots,
    natural_units_for,
    spectral_scan,
    to_physical_energy,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
DEFAULT_TOL = 1e-8

# annotation of a RunConfig field -> the types its value may have; bool is an
# int subclass, so it is accepted only where the annotation says bool
_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


@dataclass
class RunConfig:
    """One resolved invocation; field defaults are the documented CLI defaults."""

    command: str
    kappa: float = 1.0
    ell: int = 0
    omega_min: float = spectral.DEFAULT_OMEGA_MIN
    omega_max: float = spectral.DEFAULT_OMEGA_MAX
    points: int = spectral.DEFAULT_SCAN_POINTS
    tol: float = DEFAULT_TOL
    validity: float = spectral.DEFAULT_VALIDITY
    output_path: str | None = None
    format: str = "csv"
    omega: float | None = None
    n_max: int = 20
    kappa_lo: float = 0.05
    kappa_hi: float = 0.08
    omega_floor: float = spectral.CRITICAL_OMEGA_FLOOR
    units_file: str | None = None
    gnuplot: bool = False
    point_scale: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if (not isinstance(value, _TYPES[kind])
                    or isinstance(value, bool) != (kind == "bool")):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.command not in _RUNNERS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.points < 2:
            raise ValueError("points must be at least 2")
        if self.point_scale <= 0:
            raise ValueError("point_scale must be positive")

    @property
    def coupling(self) -> CouplingConfig:
        return CouplingConfig(kappa=self.kappa, ell=self.ell)


@dataclass
class Output:
    """What one command produced; `_emit` turns it into files and the summary line."""

    header: list[str]
    rows: Iterable[list[str]]
    payload: dict
    pairs: list[tuple[str, str]]  # between `command=` and `summary=`
    note: str


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_units(path: str) -> UnitSystem:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return UnitSystem(mass=raw["mass"], hbar=raw["hbar"], beta=raw["beta"],
                          alpha_coupling=raw["alpha_coupling"])
    except KeyError as exc:
        raise ValueError(f"units file {path} missing key {exc}") from exc


def spectrum_result_to_payload(result: SpectrumResult) -> dict:
    units = natural_units_for(result.kappa)
    return {"method": result.method, "kappa": result.kappa, "ell": result.ell,
            "omegas": list(result.omegas),
            "energy_natural_units": [energy_from_omega(w, units) for w in result.omegas]}


def spectrum_result_from_json(text: str) -> SpectrumResult:
    raw = json.loads(text)
    return SpectrumResult(method=raw["method"], omegas=tuple(raw["omegas"]),
                          kappa=raw["kappa"], ell=raw["ell"])


def _levels(result: SpectrumResult, units: UnitSystem | None,
            pairs: list[tuple[str, str]], note: str) -> Output:
    """The level table shared by `roots` and `spectrum`; units are checked in both formats."""
    payload = spectrum_result_to_payload(result)
    header = ["n", "omega", "energy_natural_units", "method"]
    rows = [[str(n), _fmt(w), _fmt(e), result.method] for n, (w, e) in
            enumerate(zip(payload["omegas"], payload["energy_natural_units"]), start=1)]
    if units is not None:
        payload["energy_si"] = to_physical_energy(result, units)
        header.append("energy_si")
        for row, e in zip(rows, payload["energy_si"]):
            row.append(_fmt(e))
    return Output(header, rows, payload, pairs, note)


_LEVELS_PLOT = ('set logscale y\nset xlabel "n"\nset ylabel "omega"\n'
                'plot DATA using 1:2 with points pt 7 title ')
_GNUPLOT_BODY = {
    "scan": ('set logscale x\nset xlabel "omega"\nset ylabel "Hc"\n'
             'plot DATA using 1:2 with lines title "spectral function"\n'),
    "wavefunction": ('set xlabel "xi"\nset ylabel "R"\n'
                     'plot DATA using 1:2 with lines title "R(xi)"\n'),
    "roots": _LEVELS_PLOT + '"eigenvalues"\n',
    "spectrum": _LEVELS_PLOT + '"closed form"\n',
    "compare": _LEVELS_PLOT + '"exact", DATA using 1:3 with points pt 5 title "closed form"\n',
}


def _emit(cfg: RunConfig, out: Output) -> str:
    """Write the requested output files and return the summary line."""
    files = {}
    path = cfg.output_path
    if path and cfg.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([out.header, *out.rows])
        files[path] = buf.getvalue()
        if cfg.gnuplot and cfg.command in _GNUPLOT_BODY:
            files[path + ".gp"] = (f'DATA = "{path}"\nset datafile separator ","\n'
                                   "set key autotitle columnhead\n"
                                   + _GNUPLOT_BODY[cfg.command])
    elif path:
        files[path] = json.dumps(out.payload, indent=2) + "\n"
    for name, text in files.items():
        with open(name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    pairs = [("command", cfg.command), *out.pairs, ("summary", f'"{out.note}"')]
    return " ".join(f"{k}={v}" for k, v in pairs)


def _exact_roots(cfg: RunConfig) -> SpectrumResult:
    """Scan the configured window and refine every bracket (`roots`, `compare`)."""
    scan = spectral_scan(cfg.coupling, cfg.omega_min, cfg.omega_max, cfg.points,
                         tol=cfg.tol, point_scale=cfg.point_scale)
    return find_roots(scan, tol=min(cfg.tol, spectral.DEFAULT_ROOT_TOL))


def _run_scan(cfg: RunConfig) -> Output:
    scan = spectral_scan(cfg.coupling, cfg.omega_min, cfg.omega_max, cfg.points,
                         tol=cfg.tol, point_scale=cfg.point_scale)
    left_endpoints = {i for i, _ in scan.brackets}
    n = len(scan.brackets)
    return Output(
        ["omega", "hc_value", "bracket_flag"],
        ([_fmt(w), _fmt(v), str(int(i in left_endpoints))]
         for i, (w, v) in enumerate(zip(scan.omegas, scan.values))),
        {"command": "scan", "kappa": cfg.kappa, "ell": cfg.ell,
         "omegas": [float(w) for w in scan.omegas],
         "values": [float(v) for v in scan.values],
         "brackets": [[int(i), int(j)] for i, j in scan.brackets]},
        [("kappa", _fmt(cfg.kappa)), ("ell", str(cfg.ell)), ("points", str(cfg.points)),
         ("brackets", str(n))],
        "no bound states" if n == 0 else f"{n} sign-change bracket(s)")


def _run_roots(cfg: RunConfig) -> Output:
    units = _load_units(cfg.units_file) if cfg.units_file else None
    result = _exact_roots(cfg)
    n = len(result)
    pairs = [("kappa", _fmt(cfg.kappa)), ("ell", str(cfg.ell)), ("roots", str(n))]
    if n:
        pairs.append(("omega_1", _fmt(result.omegas[0])))
    return _levels(result, units, pairs,
                   "no bound states" if n == 0 else f"{n} bound state(s)")


def _run_spectrum(cfg: RunConfig) -> Output:
    units = _load_units(cfg.units_file) if cfg.units_file else None
    result = closed_form_spectrum(cfg.coupling, n_max=cfg.n_max, validity=cfg.validity)
    n = len(result)
    return _levels(result, units,
                   [("kappa", _fmt(cfg.kappa)), ("ell", str(cfg.ell)), ("levels", str(n))],
                   "no bound states" if n == 0 else f"{n} closed-form level(s)")


def _run_wavefunction(cfg: RunConfig) -> Output:
    if cfg.omega is None:
        raise ValueError("wavefunction requires --omega")
    coupling = cfg.coupling
    ep = EnergyPoint.from_omega(cfg.omega)
    profile = wavefunction(coupling, ep, default_xi_grid(coupling, ep, n=cfg.points))
    flag = profile.non_decaying
    return Output(
        ["xi", "R"],
        ([_fmt(x), _fmt(v)] for x, v in zip(profile.xi, profile.values)),
        {"command": "wavefunction", "kappa": cfg.kappa, "ell": cfg.ell,
         "omega": cfg.omega, "xi": [float(x) for x in profile.xi],
         "R": [float(v) for v in profile.values], "non_decaying": flag},
        [("kappa", _fmt(cfg.kappa)), ("ell", str(cfg.ell)), ("omega", _fmt(cfg.omega)),
         ("points", str(cfg.points)), ("non_decaying", "true" if flag else "false")],
        "does not decay toward xi*" if flag else "decays toward xi*")


def _run_compare(cfg: RunConfig) -> Output:
    exact = _exact_roots(cfg)
    approx = closed_form_spectrum(cfg.coupling, n_max=cfg.n_max, validity=cfg.validity)
    comparison = compare_spectra(exact, approx)
    rows = comparison.rows
    return Output(
        ["n", "omega_exact", "omega_closed_form", "rel_dev"],
        ([str(r.n), _fmt(r.omega_exact), _fmt(r.omega_closed_form), _fmt(r.rel_dev)]
         for r in rows),
        {"command": "compare", "kappa": cfg.kappa, "ell": cfg.ell,
         "rows": [{"n": r.n, "omega_exact": r.omega_exact,
                   "omega_closed_form": r.omega_closed_form, "rel_dev": r.rel_dev}
                  for r in rows],
         "ratio_reference": comparison.ratio_reference,
         "ratios_exact": list(comparison.ratios_exact),
         "both_empty": comparison.both_empty},
        [("kappa", _fmt(cfg.kappa)), ("ell", str(cfg.ell)), ("pairs", str(len(rows))),
         ("agreement_empty", "true" if comparison.both_empty else "false")],
        "both spectra empty" if comparison.both_empty else f"{len(rows)} matched pair(s)")


def _run_critical(cfg: RunConfig) -> Output:
    kappa_star = critical_coupling(cfg.ell, cfg.kappa_lo, cfg.kappa_hi,
                                   omega_floor=cfg.omega_floor)
    return Output(
        ["ell", "kappa_star"], [[str(cfg.ell), _fmt(kappa_star)]],
        {"command": "critical", "ell": cfg.ell, "kappa_star": kappa_star},
        [("ell", str(cfg.ell)), ("kappa_star", _fmt(kappa_star))],
        "critical coupling located")


_RUNNERS = {
    "scan": _run_scan,
    "roots": _run_roots,
    "spectrum": _run_spectrum,
    "wavefunction": _run_wavefunction,
    "compare": _run_compare,
    "critical": _run_critical,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; prints the summary line and returns the exit code."""
    try:
        summary = _emit(cfg, _RUNNERS[cfg.command](cfg))
    except (HeunEvaluationError, NonConvergenceError, GammaPoleError,
            NoTransitionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupheun",
        description="Bound states of the inverse-square potential with a minimal length",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, *, needs_window=False):
        """A subparser with the shared flags; each flag only where the command reads it."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--kappa", type=float, default=None,
                       help="dimensionless coupling m*alpha/(2*hbar^2)")
        p.add_argument("--ell", type=int, default=None, help="orbital quantum number")
        if needs_window:  # the commands that scan the spectral function at y*
            p.add_argument("--omega-min", type=float, default=None)
            p.add_argument("--omega-max", type=float, default=None)
            p.add_argument("--points", type=int, default=None)
            p.add_argument("--point-scale", type=float, default=None,
                           help="cutoff radius factor c in r = c*sqrt(-alpha/E)")
        p.add_argument("--tol", type=float, default=None,
                       help="evaluation tolerance (default 1e-8, env GUP_HEUN_TOL)")
        p.add_argument("--output", "-o", dest="output_path", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if name in ("roots", "spectrum"):
            p.add_argument("--units-file", default=None,
                           help="JSON with mass, hbar, beta, alpha_coupling")
        if name in _GNUPLOT_BODY:
            p.add_argument("--gnuplot", action="store_true", default=None)
        p.add_argument("--config", default=None,
                       help="JSON config mirroring the run configuration")
        return p

    add_command("scan", "sample the spectral function", needs_window=True)
    add_command("roots", "refined exact eigenvalues", needs_window=True)

    p_spec = add_command("spectrum", "closed-form low-energy tower")
    p_spec.add_argument("--n-max", type=int, default=None)
    p_spec.add_argument("--validity", type=float, default=None,
                        help="discard closed-form levels at or above this omega")

    p_wf = add_command("wavefunction", "sample R(xi) at one omega")
    p_wf.add_argument("--omega", type=float, default=None)
    p_wf.add_argument("--points", type=int, default=None)

    p_cmp = add_command("compare", "exact roots vs closed form", needs_window=True)
    p_cmp.add_argument("--n-max", type=int, default=None)
    p_cmp.add_argument("--validity", type=float, default=None)

    p_crit = add_command("critical", "locate the critical coupling")
    p_crit.add_argument("--kappa-lo", type=float, default=None)
    p_crit.add_argument("--kappa-hi", type=float, default=None)
    p_crit.add_argument("--omega-floor", type=float, default=None,
                        help="shallow end of the detection window (default 1e-45)")

    return parser


def build_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve CLI flags, optional JSON config, env var and defaults."""
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)

    merged: dict = {}
    env_tol = os.environ.get("GUP_HEUN_TOL")
    if env_tol is not None:
        merged["tol"] = float(env_tol)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        file_cfg.pop("command", None)
        merged.update(file_cfg)
    merged.update({k: v for k, v in args.items() if v is not None})
    if command == "wavefunction" and "points" not in merged:
        merged["points"] = radial.DEFAULT_GRID_POINTS
    return RunConfig(command=command, **merged)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
