"""Command-line front end: scans, spectra, wavefunctions, CSV/JSON emission.

Each command is one row of the `_COMMANDS` table below the runners: its
runner, its help text and the `RunConfig` fields it reads.  A row gives the
command's flags and the keys its `--config` file may set; any other setting
exits 2.  A runner returns an `Output` (CSV table, JSON payload, summary
fields) and never opens a file; `run` hands it to the one writer, `_emit`.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.  The
last stdout line is a machine-parsable `key=value` summary.  Where a command
reads the tolerance, its default 1e-8 can be overridden by a JSON config file
(--config) or by --tol, which wins.

Physical units enter only here, at the very end: the UnitSystem of a
--units-file adds E_n = -omega_n / (2 m beta) to `roots` and `spectrum`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import shutil
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields

from .heun import CouplingConfig, HeunEvaluationError
from . import radial
from .radial import default_xi_grid, wavefunction
from . import spectral
from .spectral import (
    NoTransitionError,
    SpectrumResult,
    _find_brackets,
    closed_form_spectrum,
    compare_spectra,
    critical_coupling,
    exact_spectrum,
    spectral_scan,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# annotation of a RunConfig field -> the type of its flag; a config file may
# give an int for a float, and bool (an int subclass) only where it says bool
_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


@dataclass
class RunConfig:
    """One resolved invocation; field defaults are the documented CLI defaults.

    Checks types, finite floats, the command and the format; each range is
    checked by the library function that uses the value, and exits 2 as well.
    """

    command: str
    kappa: float = 1.0
    ell: int = 0
    omega_min: float = spectral.DEFAULT_OMEGA_MIN
    omega_max: float = spectral.DEFAULT_OMEGA_MAX
    points: int = spectral.DEFAULT_SCAN_POINTS
    tol: float = spectral.DEFAULT_SCAN_TOL
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if (not isinstance(value, (int, float) if kind == "float" else _TYPES[kind])
                    or isinstance(value, bool) != (kind == "bool")):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    @property
    def coupling(self) -> CouplingConfig:
        return CouplingConfig(kappa=self.kappa, ell=self.ell)


@dataclass
class Output:
    """What one command produced; `_emit` turns it into files and the summary line."""

    header: list[str]
    # CSV lines; every cell is a formatted number, an int or a fixed token,
    # so none needs the quoting of csv.writer
    rows: Iterable[str]
    payload: dict
    pairs: list[tuple[str, str]]  # between `command=` and `summary=`
    note: str


_fmt = "{:.12g}".format  # a float as a CSV cell or summary value


class UnitMismatchError(ValueError):
    """UnitSystem-derived kappa disagrees with the spectrum's kappa."""


@dataclass(frozen=True)
class UnitSystem:
    """SI-style inputs fixing the physical scales of the dimensionless problem."""

    mass: float
    hbar: float
    beta: float
    alpha_coupling: float

    def __post_init__(self):
        for name in ("mass", "hbar", "beta", "alpha_coupling"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{name} must be float, got {v!r}")
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive")

    @property
    def kappa(self) -> float:
        return self.mass * self.alpha_coupling / (2.0 * self.hbar**2)


def to_physical_energy(result: SpectrumResult, units: UnitSystem) -> list[float]:
    """E_n = -omega_n / (2 m beta), checking unit consistency.

    The units must reproduce the spectrum's kappa to 1e-12 relative: SI
    constants carry roundoff into m*alpha/(2*hbar^2), and one ulp of kappa =
    3e4 is 3.6e-12.  Natural-units conversion (mass = beta = 1) is simply
    E_n = -omega_n / 2.
    """
    if not math.isclose(units.kappa, result.kappa, rel_tol=1e-12):
        raise UnitMismatchError(
            f"units give kappa = {units.kappa!r}, spectrum has {result.kappa!r}"
        )
    return [-w / (2.0 * units.mass * units.beta) for w in result.omegas]


def _load_units(path: str) -> UnitSystem:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"units file {path} must hold a JSON object")
    try:
        return UnitSystem(mass=raw["mass"], hbar=raw["hbar"], beta=raw["beta"],
                          alpha_coupling=raw["alpha_coupling"])
    except KeyError as exc:
        raise ValueError(f"units file {path} missing key {exc}") from exc


def _levels(result: SpectrumResult, units: UnitSystem | None,
            pairs: list[tuple[str, str]], note: str) -> Output:
    """The level table shared by `roots` and `spectrum`; units are checked in both formats."""
    payload = {"method": result.method, "kappa": result.kappa, "ell": result.ell,
               "omegas": list(result.omegas),
               "energy_natural_units": [-w / 2.0 for w in result.omegas]}  # m = beta = 1
    header = ["n", "omega", "energy_natural_units", "method"]
    row = "{},{:.12g},{:.12g},{}"
    columns = [itertools.count(1), payload["omegas"], payload["energy_natural_units"],
               itertools.repeat(result.method)]
    if units is not None:
        payload["energy_si"] = to_physical_energy(result, units)
        header.append("energy_si")
        row += ",{:.12g}"
        columns.append(payload["energy_si"])
    return Output(header, map(row.format, *columns), payload, pairs, note)


def _emit(cfg: RunConfig, out: Output) -> str:
    """Write the requested output files and return the summary line."""
    files = {}
    path = cfg.output_path
    if path and cfg.format == "csv":
        files[path] = "\n".join([",".join(out.header), *out.rows]) + "\n"
        plot = _COMMANDS[cfg.command].plot
        if plot and cfg.gnuplot:
            files[path + ".gp"] = (f'DATA = "{path}"\nset datafile separator ","\n'
                                   "set key autotitle columnhead\n" + plot)
    elif path:
        files[path] = json.dumps(out.payload, indent=2) + "\n"
    for name, text in files.items():
        with open(name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    pairs = [("command", cfg.command), *out.pairs, ("summary", f'"{out.note}"')]
    return " ".join(f"{k}={v}" for k, v in pairs)


def _run_scan(cfg: RunConfig) -> Output:
    omegas, values = spectral_scan(cfg.coupling, cfg.omega_min, cfg.omega_max, cfg.points,
                                   cfg.tol)
    brackets = _find_brackets(values)
    n, left_endpoints = len(brackets), {i for i, _ in brackets}
    # one conversion to Python floats feeds both the CSV cells and the JSON lists
    omegas, values = omegas.tolist(), values.tolist()
    failed = sum(map(math.isnan, values))
    if failed:
        note = f"{n} sign-change bracket(s); {failed} of {cfg.points} points failed"
    else:
        note = "no bound states" if n == 0 else f"{n} sign-change bracket(s)"
    return Output(
        ["omega", "hc_value", "bracket_flag"],
        ("{:.12g},{:.12g},{:d}".format(w, v, int(i in left_endpoints))
         for i, (w, v) in enumerate(zip(omegas, values))),
        {"command": "scan", "kappa": cfg.kappa, "ell": cfg.ell,
         # a failed point is NaN, which JSON cannot hold (RFC 8259): null
         "omegas": omegas, "values": [None if math.isnan(v) else v for v in values],
         "brackets": [[int(i), int(j)] for i, j in brackets]},
        [("kappa", _fmt(cfg.kappa)), ("ell", str(cfg.ell)), ("points", str(cfg.points)),
         ("brackets", str(n))],
        note)


def _run_roots(cfg: RunConfig) -> Output:
    units = _load_units(cfg.units_file) if cfg.units_file else None
    result = exact_spectrum(cfg.coupling, cfg.omega_min, cfg.omega_max, cfg.points, cfg.tol)
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
    profile = wavefunction(coupling, cfg.omega, default_xi_grid(coupling, cfg.omega, n=cfg.points))
    flag = profile.non_decaying
    xi, values = profile.xi.tolist(), profile.values.tolist()
    return Output(
        ["xi", "R"],
        map("{:.12g},{:.12g}".format, xi, values),
        {"command": "wavefunction", "kappa": cfg.kappa, "ell": cfg.ell,
         "omega": cfg.omega, "xi": xi, "R": values, "non_decaying": flag},
        [("kappa", _fmt(cfg.kappa)), ("ell", str(cfg.ell)), ("omega", _fmt(cfg.omega)),
         ("points", str(cfg.points)), ("non_decaying", "true" if flag else "false")],
        "does not decay toward xi*" if flag else "decays toward xi*")


def _run_compare(cfg: RunConfig) -> Output:
    exact = exact_spectrum(cfg.coupling, cfg.omega_min, cfg.omega_max, cfg.points, cfg.tol)
    approx = closed_form_spectrum(cfg.coupling, n_max=cfg.n_max, validity=cfg.validity)
    comparison = compare_spectra(exact, approx)
    rows = comparison.rows
    return Output(
        ["n", "omega_exact", "omega_closed_form", "rel_dev"],
        ("{},{:.12g},{:.12g},{:.12g}".format(r.n, r.omega_exact, r.omega_closed_form, r.rel_dev)
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
        ["ell", "kappa_star"], [f"{cfg.ell},{kappa_star:.12g}"],
        {"command": "critical", "ell": cfg.ell, "kappa_star": kappa_star},
        [("ell", str(cfg.ell)), ("kappa_star", _fmt(kappa_star))],
        "critical coupling located")


@dataclass
class Command:
    """One CLI command; `settings` are its flags and the keys its config file may set."""

    run: Callable[[RunConfig], Output]
    help: str
    reads: tuple[str, ...]  # the RunConfig fields `run` reads
    plot: str | None = None  # gnuplot body; `--gnuplot` exists only where there is one
    defaults: dict = field(default_factory=dict)  # RunConfig defaults it overrides

    @property
    def settings(self) -> tuple[str, ...]:  # `reads` plus what `_emit` reads
        return (*self.reads, "output_path", "format", *(("gnuplot",) if self.plot else ()))


# the log grid and its evaluation: `scan` values every point of it, `roots`
# and `compare` bracket their levels on it (spectral.exact_spectrum)
_SCAN = ("omega_min", "omega_max", "points", "tol")
_LEVELS_PLOT = ('set logscale y\nset xlabel "n"\nset ylabel "omega"\n'
                'plot DATA using 1:2 with points pt 7 title ')
_COMMANDS = {
    "scan": Command(_run_scan, "sample the spectral function", ("kappa", "ell", *_SCAN),
                    'set logscale x\nset xlabel "omega"\nset ylabel "Hc"\n'
                    'plot DATA using 1:2 with lines title "spectral function"\n'),
    "roots": Command(_run_roots, "refined exact eigenvalues",
                     ("kappa", "ell", *_SCAN, "units_file"), _LEVELS_PLOT + '"eigenvalues"\n'),
    "spectrum": Command(_run_spectrum, "closed-form low-energy tower",
                        ("kappa", "ell", "n_max", "validity", "units_file"),
                        _LEVELS_PLOT + '"closed form"\n'),
    "wavefunction": Command(_run_wavefunction, "sample R(xi) at one omega",
                            ("kappa", "ell", "omega", "points"),
                            'set xlabel "xi"\nset ylabel "R"\n'
                            'plot DATA using 1:2 with lines title "R(xi)"\n',
                            {"points": radial.DEFAULT_GRID_POINTS}),
    "compare": Command(_run_compare, "exact roots vs closed form",
                       ("kappa", "ell", *_SCAN, "n_max", "validity"),
                       _LEVELS_PLOT + '"exact", DATA using 1:3 with points pt 5 title '
                       '"closed form"\n'),
    "critical": Command(_run_critical, "locate the critical coupling",
                        ("ell", "kappa_lo", "kappa_hi", "omega_floor")),
}

# every flag in the order `--help` lists it, with its help text
_FLAGS = {
    "kappa": "dimensionless coupling m*alpha/(2*hbar^2)",
    "ell": "orbital quantum number",
    "omega_min": None, "omega_max": None,
    "points": "log-grid energies (default 600): scan samples them, roots and compare "
              "count every stride-th point and solve each level between counted points; "
              "wavefunction: profile points (default 400)",
    "tol": "evaluation tolerance in (0, 1), and the relative accuracy of roots (default 1e-8)",
    "output_path": None, "format": None,
    "units_file": "JSON with mass, hbar, beta, alpha_coupling",
    "gnuplot": None,
    "config": "JSON config mirroring the run configuration",
    "n_max": None,
    "validity": "discard closed-form levels at or above this omega",
    "omega": None, "kappa_lo": None, "kappa_hi": None,
    "omega_floor": "detection floor: a level counts once it lies above it (default 1e-45)",
}


def run(cfg: RunConfig) -> int:
    """Execute one command; prints the summary line and returns the exit code."""
    try:
        code, line = EXIT_OK, _emit(cfg, _COMMANDS[cfg.command].run(cfg))
    except (HeunEvaluationError, NoTransitionError) as exc:
        code, line = EXIT_NUMERICAL, f"numerical failure: {exc}"
    except (ValueError, OSError) as exc:
        code, line = EXIT_CONFIG, f"invalid configuration: {exc}"
    print(line, file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


@functools.cache
def _build_parser(invoked: str | None) -> argparse.ArgumentParser:
    """A subparser per row of `_COMMANDS`; only the `invoked` one gets its flags.

    Every command is registered by name and help, so `gupheun --help` and
    the invalid-choice error list them all, while only the command that
    argparse will hand the rest of the arguments to pays for its
    `add_argument` calls.  The help formatter gets the terminal width read
    once here, as argparse would read it for every formatter it makes.
    """
    width = shutil.get_terminal_size().columns - 2  # argparse's own default
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = argparse.ArgumentParser(
        prog="gupheun",
        description="Bound states of the inverse-square potential with a minimal length",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = {f.name: f.type.partition(" | ")[0] for f in fields(RunConfig)}
    for name, command in _COMMANDS.items():
        # exact spellings only: `critical --omega` is no prefix of --omega-floor
        p = sub.add_parser(name, help=command.help, allow_abbrev=False,
                           formatter_class=formatter)
        if name != invoked:
            continue
        # argparse reads -1 and -.5 as numbers, but -1e-8 as an unknown option
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        for key, help_text in _FLAGS.items():
            if key not in (*command.settings, "config"):
                continue
            kind = kinds.get(key, "str")  # --config is no RunConfig field
            opts = {"action": "store_true"} if kind == "bool" else {"type": _TYPES[kind]}
            if key == "format":
                opts["choices"] = ("csv", "json")
            flags = ("--output", "-o") if key == "output_path" else ("--" + key.replace("_", "-"),)
            p.add_argument(*flags, dest=key, default=None, help=help_text, **opts)
    return parser


def build_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve CLI flags, an optional JSON config file and the defaults."""
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first argument that is not an option as the command
    invoked = next((a for a in argv if not a.startswith("-")), None)
    args = vars(_build_parser(invoked if invoked in _COMMANDS else None).parse_args(argv))
    name = args.pop("command")
    config_path = args.pop("config")
    command = _COMMANDS[name]

    merged = dict(command.defaults)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_cfg) - set(command.settings)
        if unknown:
            raise ValueError(f"unknown config keys for {name}: {sorted(unknown)}; "
                             f"it reads {', '.join(command.settings)}")
        merged.update(file_cfg)
    merged.update({k: v for k, v in args.items() if v is not None})
    return RunConfig(command=name, **merged)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
