"""Spans around tessperc's layers, recorded from outside the package.

Callers inside tessperc import functions by name (`from .tessellation import
build_voronoi`), so a wrapper has to replace the binding in the module that
calls the function, not the definition. `Tracer.install` does that for every
entry in BINDINGS and `Tracer.uninstall` puts the originals back. A binding
that no longer exists is skipped and its layer is reported as absent.

Spans are kept in memory; `layer_metrics` turns them into per-layer numbers
after the traced solves have finished.
"""

from __future__ import annotations

import importlib
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

BUILD_ERRORS = ("ConstructionError", "EdgeEffectError")


# Hooks run when a span closes, also when the call raised (result is then None).

def _rep_id(span, args, kwargs, result):
    span.attrs["rep"] = args[1] if len(args) > 1 else kwargs.get("rep")


def _tess_sizes(span, args, kwargs, tess):
    if span.error is None:
        span.attrs["cells"] = len(tess)
        span.attrs["face_pairs"] = len(getattr(tess, "face_pairs", ()))
        span.attrs["star_pairs"] = len(getattr(tess, "star_pairs", ()))


def _points(span, args, kwargs, config):
    if span.error is None:
        span.attrs["points"] = len(config)


def _crossing_true(span, args, kwargs, result):
    span.attrs["true"] = bool(result)


def _csv_size(span, args, kwargs, result):
    if span.error is None:
        path = args[0] if args else kwargs["path"]
        span.attrs["rows"] = len(args[2] if len(args) > 2 else kwargs["rows"])
        span.attrs["bytes"] = os.path.getsize(path)


# (module, attribute its callers look up, layer, hook). Every estimator entry
# point is one layer, "estimators"; the others are named after the function.
BINDINGS = (
    ("tessperc.harness", "load_config", "harness.load_config", None),
    ("tessperc.harness", "write_csv", "harness.write_csv", _csv_size),
    ("tessperc.harness", "estimate_crossing_prob", "estimators", None),
    ("tessperc.harness", "estimate_pc", "estimators", None),
    ("tessperc.harness", "estimate_theta", "estimators", None),
    ("tessperc.estimators", "estimate_crossing_prob", "estimators", None),
    ("tessperc.harness", "build_tessellation", "experiment.build_tessellation", _rep_id),
    ("tessperc.estimators", "build_tessellation", "experiment.build_tessellation", _rep_id),
    ("tessperc.experiment", "sample_process", "point_process.sample_process", _points),
    ("tessperc.experiment", "build_voronoi", "tessellation.build_voronoi", _tess_sizes),
    ("tessperc.experiment", "build_lattice_tessellation",
     "tessellation.build_lattice_tessellation", _tess_sizes),
    ("tessperc.experiment", "color", "percolation.color", None),
    ("tessperc.harness", "crossing", "percolation.crossing", _crossing_true),
    ("tessperc.estimators", "crossing", "percolation.crossing", _crossing_true),
    ("tessperc.estimators", "build_adjacency", "tessellation.build_adjacency", None),
    ("tessperc.estimators", "zero_cell", "tessellation.zero_cell", None),
    ("tessperc.estimators", "cluster_reach", "percolation.cluster_reach", None),
)

ROOT = "harness"  # the span around the harness.run / harness.sweep call itself

# Every layer's self time as a share of the traced solve; they add up to
# trace.accounted_frac.
LAYERS = (ROOT,) + tuple(dict.fromkeys(layer for _, _, layer, _ in BINDINGS))


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records nested spans for calls through the wrapped bindings."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, layer: str, name: str, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        span = Span(layer, name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = None
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration
            if hook is not None:
                hook(span, args, kwargs, result)

    def wrap(self, layer: str, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, hook)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.missing = []
        for module_name, attr, layer, hook in self.bindings:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, attr, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _ms_pct(spans, q: int) -> float:
    """Nearest-rank q-th percentile of span durations in ms; 0 when absent."""
    if not spans:
        return 0.0
    durations = sorted(s.duration for s in spans)
    return 1e3 * durations[max(0, -(-len(durations) * q // 100) - 1)]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[Span], solve_times: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced solves that took `solve_times` seconds.

    Totals (self times, counts) are per solve; ms_p50/ms_p90 are per call;
    shares are of the solve time measured around the harness call. A layer
    that was never called reports 0 and is listed as absent.
    """
    solves = len(solve_times)
    solve_s = sum(solve_times) / solves
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for s in spans:
        by_layer[s.layer].append(s)

    def self_ms(layer):
        return 1e3 * sum(s.self_s for s in by_layer[layer]) / solves

    m: dict[str, float] = {f"{layer}.share": self_ms(layer) / 1e3 / solve_s for layer in LAYERS}
    m["trace.solve_s"] = solve_s
    m["trace.accounted_frac"] = sum(m[f"{layer}.share"] for layer in LAYERS)

    for layer in ("point_process.sample_process", "tessellation.build_lattice_tessellation",
                  "tessellation.build_adjacency", "tessellation.zero_cell",
                  "percolation.color", "percolation.cluster_reach"):
        m[f"{layer}.ms_p50"] = _ms_pct(by_layer[layer], 50)
    for layer in ("tessellation.build_voronoi", "percolation.crossing"):
        m[f"{layer}.ms_p50"] = _ms_pct(by_layer[layer], 50)
        m[f"{layer}.ms_p90"] = _ms_pct(by_layer[layer], 90)

    m["point_process.sample_process.points"] = _mean(
        s.attrs["points"] for s in by_layer["point_process.sample_process"] if s.error is None)
    built = [s for s in by_layer["tessellation.build_voronoi"]
             + by_layer["tessellation.build_lattice_tessellation"] if s.error is None]
    for key in ("cells", "face_pairs", "star_pairs"):
        m[f"tessellation.{key}"] = _mean(s.attrs[key] for s in built)

    reps = by_layer["experiment.build_tessellation"]
    failures = [(s.error, s.attrs["rep"]) for s in reps if s.error is not None]
    for err in BUILD_ERRORS:
        m[f"tessellation.build.failed.{err}"] = sum(e == err for e, _ in failures) / solves
    m["tessellation.build.ok_frac"] = 1 - len(failures) / len(reps) if reps else 0.0
    m["experiment.build_tessellation.self_ms"] = self_ms("experiment.build_tessellation")

    crossings = by_layer["percolation.crossing"]
    m["percolation.crossing.calls_per_rep"] = len(crossings) / len(reps) if reps else 0.0
    m["percolation.crossing.true_frac"] = _mean(s.attrs["true"] for s in crossings)

    m["estimators.replicates"] = len(reps) / solves
    m["estimators.probes"] = sum(
        s.name == "estimate_crossing_prob" for s in by_layer["estimators"]) / solves
    m["estimators.self_ms"] = self_ms("estimators")

    writes = [s for s in by_layer["harness.write_csv"] if s.error is None]
    m["harness.self_ms"] = self_ms(ROOT)
    m["harness.load_config.ms"] = 1e3 * _mean(s.duration for s in by_layer["harness.load_config"])
    m["harness.write_csv.ms"] = 1e3 * sum(s.duration for s in writes) / solves
    m["harness.csv_rows"] = sum(s.attrs["rows"] for s in writes) / solves
    m["harness.csv_bytes"] = sum(s.attrs["bytes"] for s in writes) / solves

    details = {
        "absent": [layer for layer in LAYERS if not by_layer[layer]],
        "build_failures": [{"error": e, "rep": r} for e, r in failures],
    }
    return m, details
