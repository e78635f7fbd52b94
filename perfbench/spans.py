"""Outside-in tracing of the gupheun layers, installed from the benchmark.

Every public function bound in a `gupheun.*` namespace is replaced by a
wrapper that records a span (layer, name, start, end, parent, task).  The
layer is the module that defines the function, so `heun_continue` called
from `spectral` counts as `heun`.  Third-party entry points bound in a
gupheun namespace (`solve_ivp` in `heun`, `brentq` in `spectral`) are
wrapped too and belong to the layer that binds them.  Calls made while an
integrator runs are the ODE right-hand side: they pass straight through,
and their number is read from `OdeResult.nfev` instead.

Counters are read from returned objects (`OdeResult.nfev`, `len(t)`,
`HeunSeries.n_terms`, scan brackets, ...).  A counter whose source function
is not bound anywhere is reported as absent, so a refactor that removes a
function is measured without editing the benchmark.  Spans stay in memory
until `write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("cli", "spectral", "radial", "heun", "specfun")
NAMESPACES = ("gupheun",) + tuple(f"gupheun.{layer}" for layer in LAYERS)
THIRD_PARTY = ("scipy.",)

# RHS evaluations per spectral evaluation are bucketed by the lower edge of
# the omega band the evaluation falls in; below 1e-30 everything is "1e-45".
OMEGA_BANDS = (1e-1, 1e-5, 1e-15, 1e-30, 1e-45)


def band_label(omega: float) -> str:
    for edge in OMEGA_BANDS[:-1]:
        if omega >= edge:
            return f"{edge:.0e}".replace("e-0", "e-")
    return "1e-45"


BAND_LABELS = tuple(band_label(edge) for edge in OMEGA_BANDS)

# function name -> the per-layer counters read from its calls
SOURCES = {
    "solve_ivp": ("heun.solves", "heun.rhs_evals", "heun.steps", "heun.rhs_per_solve",
                  "heun.ivp_s", "radial.path_points")
                 + tuple(f"heun.rhs_per_eval.{b}" for b in BAND_LABELS),
    "heun_series": ("heun.series_calls", "heun.series_terms"),
    "spectral_function": ("spectral.evals", "spectral.scan_evals", "spectral.refine_evals"),
    "spectral_scan": ("spectral.brackets", "spectral.nan_gaps"),
    "find_roots": ("spectral.refine_s", "spectral.roots", "spectral.brackets_dropped",
                   "spectral.root_yield"),
    "critical_coupling": ("spectral.scans_per_critical",),
    "wavefunction": ("radial.profiles", "radial.series_points"),
    "log_gamma": ("specfun.log_gamma_calls",),
    "hyp2f1": ("specfun.hyp2f1_calls",),
}


class Tracer:
    """Span recorder and counter store for one traced pass over a task list."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, name, start, end, parent, task, error, band]
        self.stack: list[int] = []
        self.task = -1
        self.in_ivp = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.bound: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[tuple[int, str], object] = {}
        for ns_name in NAMESPACES:
            module = importlib.import_module(ns_name)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = obj.__module__ or ""
                if origin.startswith("gupheun."):
                    layer = origin.split(".")[1]
                elif origin.startswith(THIRD_PARTY) and ns_name != "gupheun":
                    layer = ns_name.split(".")[1]
                else:
                    continue
                key = (id(obj), layer)
                if key not in wrappers:
                    wrappers[key] = self._wrap(obj, layer)
                self._saved.append((module, name, obj))
                setattr(module, name, wrappers[key])
                self.bound.add(obj.__name__)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        tracer = self
        name = fn.__name__
        is_ivp = name == "solve_ivp"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_ivp:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer, name, 0.0, 0.0, parent, tracer.task, None, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            before = tracer._on_open(name, span, args, kwargs)
            tracer.in_ivp += is_ivp
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = time.perf_counter()
                span[6] = type(exc).__name__
                tracer.in_ivp -= is_ivp
                tracer.stack.pop()
                if layer == "heun" and (parent < 0 or tracer.spans[parent][0] != "heun"):
                    tracer.counts["heun.failures"] += 1
                raise
            span[3] = time.perf_counter()
            tracer.in_ivp -= is_ivp
            tracer.stack.pop()
            tracer._on_close(name, span, before, args, kwargs, result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _enclosing(self, name: str) -> list | None:
        for idx in reversed(self.stack):
            if self.spans[idx][1] == name:
                return self.spans[idx]
        return None

    def _on_open(self, name, span, args, kwargs):
        if name == "spectral_function":
            omega = args[1] if len(args) > 1 else kwargs["omega"]
            span[7] = band_label(float(omega))
            self.counts["spectral.evals"] += 1
            self.counts[f"evals_in_band.{span[7]}"] += 1
            if self._enclosing("find_roots") is not None:
                self.counts["spectral.refine_evals"] += 1
            elif self._enclosing("spectral_scan") is not None:
                self.counts["spectral.scan_evals"] += 1
        elif name == "wavefunction":
            return self.counts["radial.path_points"]
        elif name == "spectral_scan" and self._enclosing("critical_coupling") is not None:
            self.counts["critical_scans"] += 1
        return None

    def _on_close(self, name, span, before, args, kwargs, result):
        c = self.counts
        if name == "solve_ivp":
            c["heun.solves"] += 1
            c["heun.rhs_evals"] += result.nfev
            c["heun.ivp_s"] += span[3] - span[2]
            if kwargs.get("t_eval") is None:
                c["heun.steps"] += len(result.t) - 1
            elif self._enclosing("wavefunction") is not None:
                c["radial.path_points"] += len(result.t)
            owner = self._enclosing("spectral_function")
            if owner is not None:
                c[f"rhs_in_band.{owner[7]}"] += result.nfev
        elif name == "heun_series":
            c["heun.series_calls"] += 1
            c["heun.series_terms"] += result.n_terms
        elif name == "spectral_scan":
            c["spectral.brackets"] += len(result.brackets)
            c["spectral.nan_gaps"] += sum(1 for v in result.values if not math.isfinite(v))
        elif name == "find_roots":
            scan = args[0] if args else kwargs["scan"]
            c["spectral.refine_s"] += span[3] - span[2]
            c["spectral.roots"] += len(result.omegas)
            c["refined_brackets"] += len(scan.brackets)
        elif name == "critical_coupling":
            c["criticals"] += 1
        elif name == "wavefunction":
            c["radial.profiles"] += 1
            c["radial.series_points"] += len(result.xi) - (c["radial.path_points"] - before)
        elif name == "log_gamma":
            c["specfun.log_gamma_calls"] += 1
        elif name.startswith("hyp2f1"):
            c["specfun.hyp2f1_calls"] += 1

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its child spans, per layer."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _name, start, end, *_), covered in zip(self.spans, child):
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the names of those whose source is gone."""
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {f"{layer}.self_s": t for layer, t in self.self_times().items()}
        for name in ("heun.solves", "heun.rhs_evals", "heun.steps", "heun.ivp_s",
                     "heun.series_calls", "heun.series_terms", "heun.failures",
                     "spectral.evals", "spectral.scan_evals", "spectral.refine_evals",
                     "spectral.refine_s", "spectral.brackets", "spectral.roots",
                     "spectral.nan_gaps", "radial.profiles", "radial.series_points",
                     "radial.path_points", "specfun.log_gamma_calls",
                     "specfun.hyp2f1_calls"):
            out[name] = c[name]
        out["heun.rhs_per_solve"] = ratio(c["heun.rhs_evals"], c["heun.solves"])
        for b in BAND_LABELS:
            out[f"heun.rhs_per_eval.{b}"] = ratio(c[f"rhs_in_band.{b}"],
                                                  c[f"evals_in_band.{b}"])
        out["spectral.brackets_dropped"] = c["refined_brackets"] - c["spectral.roots"]
        out["spectral.root_yield"] = ratio(c["spectral.roots"], c["refined_brackets"])
        out["spectral.scans_per_critical"] = ratio(c["critical_scans"], c["criticals"])
        absent = sorted(m for fn, names in SOURCES.items() if fn not in self.bound
                        for m in names)
        return out, absent

    def write(self, path) -> None:
        keys = ("layer", "name", "start", "end", "parent", "task", "error", "band")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)
