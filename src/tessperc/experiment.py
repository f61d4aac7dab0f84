"""Experiment descriptions and the deterministic replicate pipeline.

An ExperimentSpec pins down everything a replicate needs: the tessellation
model, core window, buffer, coloring threshold(s), replicate count and the
master seed. Estimators and diagnostics read them from the spec (p through
required_p(), the p-grid through ps) and take none of them again.
build_tessellation reads the process kind's point_process.KINDS entry: a
lattice kind builds its cell shape, any other kind samples points for a
Voronoi tessellation. Replicate k of an experiment always sees the same
tessellation and uniforms no matter how many workers run, because every
draw comes from a stream keyed by (master_seed, k, tag).

run_replicates is the one replicate pipeline. It builds the tessellation
once per run when it does not vary by replicate (an unshifted lattice) and
once per replicate otherwise, runs the query's colour-independent
preparation once per build, and hands the query each replicate's colouring
uniforms. map_replicates, under it, alone catches construction failures and
owns the failure budget. It imports the process pool only when workers > 1,
and run_replicates imports scipy.spatial before a pool of Voronoi builds
forks, so that the workers inherit it rather than each importing it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from importlib import import_module

import numpy as np

from .errors import ConstructionError, EdgeEffectError, EstimatorFailure, ParameterError
from .geometry import Window
from .percolation import Coloring, color
from .point_process import KINDS, ProcessSpec, sample_process
from .streams import MAX_SEED, stream
from .tessellation import Tessellation, build_lattice_tessellation, build_voronoi

DEFAULT_BUFFER_SCALE = 5.0  # buffer = 5 / sqrt(intensity) unless overridden

BUILD_ERRORS = (ConstructionError, EdgeEffectError)  # a replicate that raises these is dropped
FAILURE_BUDGET = 0.01  # largest share of replicates that may fail construction


def _number(x, kind=numbers.Real) -> bool:
    """Whether x is a number of kind (a JSON number, not a bool)."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _probability(name: str, x) -> float:
    if not (_number(x) and 0.0 <= x <= 1.0):
        raise ParameterError(f"{name} must be a number in [0, 1], got {x!r}")
    return float(x)


@dataclass(frozen=True)
class ExperimentSpec:
    process: ProcessSpec
    window: Window
    adjacency: str = "face"
    buffer: float | None = None
    p: float | None = None
    p_grid: tuple | None = None
    replicates: int = 100
    master_seed: int = 0

    def __post_init__(self):
        if self.adjacency not in ("face", "star"):
            raise ParameterError("adjacency must be 'face' or 'star'")
        if not (_number(self.replicates, numbers.Integral) and self.replicates >= 1):
            raise ParameterError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not (_number(self.master_seed, numbers.Integral) and 0 <= self.master_seed < MAX_SEED):
            raise ParameterError(
                f"master_seed must be an integer in [0, 2**64), got {self.master_seed!r}")
        if self.buffer is not None and not (_number(self.buffer) and 0 <= self.buffer < np.inf):
            raise ParameterError(f"buffer must be a finite number >= 0, got {self.buffer!r}")
        if self.p is not None:
            object.__setattr__(self, "p", _probability("p", self.p))
        if self.p_grid is not None:
            object.__setattr__(self, "p_grid", tuple(_probability("every p_grid value", x)
                                                     for x in self.p_grid))

    def required_p(self) -> float:
        """p, which a run at one threshold reads; ParameterError when unset."""
        if self.p is None:
            raise ParameterError("the spec sets no p")
        return self.p

    @property
    def ps(self) -> tuple:
        """The thresholds of a run over a grid: p_grid in config order, else (p,)."""
        return self.p_grid or (self.required_p(),)

    def buffer_width(self) -> float:
        if self.buffer is not None:
            return float(self.buffer)
        return DEFAULT_BUFFER_SCALE / np.sqrt(self.process.intensity())

    @staticmethod
    def from_json(obj) -> "ExperimentSpec":
        return ExperimentSpec(
            process=ProcessSpec.from_json(obj["process"]),
            window=Window.from_json(obj["window"]),
            adjacency=obj.get("adjacency", "face"),
            buffer=obj.get("buffer"),
            p=obj.get("p"),
            p_grid=tuple(obj["p_grid"]) if obj.get("p_grid") else None,
            replicates=obj.get("replicates", 100),
            master_seed=obj.get("master_seed", 0),
        )


def varies_by_replicate(spec: ExperimentSpec) -> bool:
    """Whether build_tessellation(spec, rep) depends on rep: true for every
    point process and for a lattice with random_shift. An unshifted lattice
    reads no stream, so one build serves every replicate."""
    process = spec.process
    return KINDS[process.kind].lattice is None or process.params.get("random_shift", False)


def build_tessellation(spec: ExperimentSpec, rep: int) -> Tessellation:
    """The standard per-replicate tessellation for an experiment."""
    shape = KINDS[spec.process.kind].lattice
    if shape is not None:
        spacing = spec.process["spacing"]
        shift = (stream(spec.master_seed, rep, "shift").random(2) * spacing
                 if varies_by_replicate(spec) else np.zeros(2))
        return build_lattice_tessellation(shape, spacing, shift, spec.window)
    rng = stream(spec.master_seed, rep, "tess")
    config = sample_process(spec.process, spec.window.expand(spec.buffer_width()), rng)
    return build_voronoi(config, spec.window)


def _uniforms(spec: ExperimentSpec, rep: int, tess: Tessellation) -> np.ndarray:
    """Replicate rep's colouring uniforms, one per cell, for every threshold."""
    return color(tess, 0.0, stream(spec.master_seed, rep, "color")).uniforms


def coloring_for(spec: ExperimentSpec, rep: int, tess: Tessellation) -> Coloring:
    """Replicate rep's colouring of tess at the spec's p."""
    return Coloring(_uniforms(spec, rep, tess), spec.required_p())


def as_built(tess: Tessellation) -> Tessellation:
    """The preparation of a query that reads only the tessellation."""
    return tess


def _instance(spec: ExperimentSpec, build, prepare, rep: int):
    """(tessellation of replicate rep, what prepare makes of it)."""
    tess = build(spec, rep)
    return tess, prepare(tess)


def _replicate(spec: ExperimentSpec, build, prepare, query, shared, rep: int):
    """query of replicate rep's colouring uniforms on the shared (tessellation,
    prepared) pair, or on the replicate's own when shared is None."""
    tess, prepared = shared or _instance(spec, build, prepare, rep)
    return query(prepared, _uniforms(spec, rep, tess), rep)


def run_replicates(spec: ExperimentSpec, build, prepare, query,
                   workers: int = 1) -> tuple[list, int]:
    """query(prepared, uniforms, rep) for rep in 0..spec.replicates-1,
    through map_replicates.

    build(spec, rep) is the caller's binding of build_tessellation, so a
    wrapper on that binding sees every build. It runs once per run when the
    tessellation does not vary by replicate, with replicate 0's id, and once
    per replicate otherwise; prepare(tess) runs once per build. uniforms are
    the replicate's colouring, one uniform per cell from its "color" stream.
    With workers > 1, build, prepare and query must be picklable.
    """
    if workers > 1 and KINDS[spec.process.kind].lattice is None:
        import_module("scipy.spatial")  # each worker's build_voronoi imports it
    shared = None if varies_by_replicate(spec) else _instance(spec, build, prepare, 0)
    return map_replicates(partial(_replicate, spec, build, prepare, query, shared),
                          spec.replicates, workers)


def _attempt(fn, rep: int):
    """fn(rep), or the construction error it raised."""
    try:
        return fn(rep)
    except BUILD_ERRORS as exc:
        return exc


def map_replicates(fn, replicates: int, workers: int = 1) -> tuple[list, int]:
    """Map fn over the replicate ids 0..replicates-1, in id order.

    A replicate whose fn raises one of BUILD_ERRORS is dropped and counted;
    more than FAILURE_BUDGET of them fail the whole run with
    EstimatorFailure. Returns (results of the other replicates in id order,
    failed count), the same for every worker count. With workers > 1, fn
    must be picklable: it runs on a process pool.
    """
    attempt = partial(_attempt, fn)
    if workers > 1 and replicates > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, range(replicates),
                                     chunksize=max(1, replicates // (8 * workers))))
    else:
        outcomes = [attempt(rep) for rep in range(replicates)]
    results = [r for r in outcomes if not isinstance(r, BUILD_ERRORS)]
    failed = replicates - len(results)
    if failed > FAILURE_BUDGET * replicates:
        raise EstimatorFailure(
            f"{failed}/{replicates} replicates failed construction (> {FAILURE_BUDGET:.0%})")
    return results, failed
