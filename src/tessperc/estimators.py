"""Monte Carlo estimators over tessellation percolation replicates.

Every estimator reads its thresholds (the grid spec.ps, which a grid
reader refuses empty, or the one p spec.p), the replicate count and the
adjacency from its ExperimentSpec: it builds its cell or rectangle graphs at
spec.adjacency, and a CrossingQuery names only the rect, direction and
colour. It is a prepare/query pair run by experiment.run_replicates: prepare
builds the colour-independent part of a query once per tessellation, each
graph a percolation.CellGraph with named terminals (a rect's sides, theta's
root and far_r cells, the cells touching a trifurcation window), and query
asks which clusters of one replicate's colouring (black: uniforms < p) join
two terminals at each p it reads. The runner builds a tessellation that
does not vary by replicate (an unshifted lattice) once per run, drops and
counts build failures (edge effects, degenerate inputs) and fails the run
past its failure budget.
The estimators count events and report Wilson intervals. Every crossing
indicator (of the crossing estimates, p_c, the recursion, and the smp gap
and mixture in diagnostics) comes from estimate_crossing_curve, which builds
one rectangle graph per query and, per replicate and query, bisects the
sorted grid for the p at which the crossing switches: ceil(log2(len + 1))
labellings, not one per p.

The ggr diagnostics colour one build once per replicate through
experiment.map_replicates. The build, rectangle-graph, crossing, adjacency,
zero-cell and ball functions are looked up in this module, so a wrapper on
these bindings sees every call.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ParameterError
from .geometry import Window
from .percolation import (CellGraph, CrossingQuery, common_labels, crossing, hop_balls, joining,
                          label_components, rect_graph)
from .stats import PercResult, mean_ci, wilson_sigma
from .streams import MAX_SEED
from .experiment import (ExperimentSpec, build_tessellation, map_replicates, run_replicates,
                         uniforms_for)
from .tessellation import Tessellation, build_adjacency, zero_cell


def _rect_prepare(rects, adjacency: str, tess: Tessellation) -> tuple:
    """The rectangle graph of each rect of rects."""
    return tuple(rect_graph(tess, rect, adjacency) for rect in rects)


def _grid(spec: ExperimentSpec) -> tuple:
    """spec.ps, which a reader of every p refuses when empty."""
    if not spec.ps:
        raise ParameterError("the spec sets no p")
    return spec.ps


def _switch_index(thresholds, switched) -> int:
    """The least k with switched(thresholds[k]), or len(thresholds), in at most
    ceil(log2(len + 1)) calls of a predicate monotone along the sorted thresholds."""
    return bisect_left(thresholds, True, key=switched)


def _crossing_rep(queries: tuple, ps: tuple, graphs, uniforms, rep: int):
    """(rep, indicators): indicators[j][k] is 1 when the colouring at ps[k]
    has the crossing queries[j] on graphs[j]; the id survives dropped failures.
    Along the nondecreasing ps a black crossing can only switch on and a
    white one only off, so each query bisects ps for the index k at which it
    switches: black holds at ps[j] iff j >= k, white iff j < k."""
    indicators = []
    for query, graph in zip(queries, graphs):
        black = query.color == "black"
        k = _switch_index(ps, lambda p: crossing(graph, uniforms < p, query) == black)
        indicators.append(tuple(1 if (j >= k) == black else 0 for j in range(len(ps))))
    return rep, tuple(indicators)


def estimate_crossing_curve(spec: ExperimentSpec, queries: tuple,
                            workers: int = 1) -> tuple[list, list]:
    """Coupled crossing estimates of each query over the nondecreasing grid
    spec.ps, which it refuses unsorted.

    Returns the (rep, indicators) of every replicate that built, as in
    _crossing_rep, and per query one PercResult per p. Every p of a replicate
    thresholds the same uniforms, so its black crossing indicators are
    nondecreasing in p and its white ones nonincreasing, by construction.
    """
    ps = _grid(spec)
    if any(b < a for a, b in zip(ps, ps[1:])):
        raise ParameterError("the p-grid of a crossing curve must be nondecreasing")
    results, failed = run_replicates(
        spec, build_tessellation,
        partial(_rect_prepare, tuple(q.rect for q in queries), spec.adjacency),
        partial(_crossing_rep, queries, ps), workers)
    vals = [indicators for _, indicators in results]
    return results, [[PercResult.from_counts(sum(v[j][k] for v in vals), len(vals), failed=failed)
                      for k in range(len(ps))] for j in range(len(queries))]


def estimate_crossing_prob(spec: ExperimentSpec, query: CrossingQuery,
                           workers: int = 1) -> list[PercResult]:
    """Fraction of replicates with the requested crossing at each p of spec.ps
    (any order, repeats allowed), one PercResult per entry. Every p reads the
    same replicates: one estimate_crossing_curve over the sorted grid."""
    if spec.replicates < 50:
        raise ParameterError("crossing estimator needs at least 50 replicates")
    grid = tuple(sorted(spec.ps))
    _, (curve,) = estimate_crossing_curve(replace(spec, ps=grid), (query,), workers)
    per_p = dict(zip(grid, curve))
    return [per_p[p] for p in spec.ps]


def _theta_prepare(adjacency: str, radii: tuple, tess: Tessellation) -> CellGraph:
    """The cell graph with terminals root, the zero cell, and far_r per
    radius r, the cells with a corner at distance >= r from the origin."""
    x, y = tess.poly_xy.T
    reach = np.maximum.reduceat(np.sqrt(x * x + y * y), tess.poly_ptr[:-1])
    far = {f"far_{r}": np.flatnonzero(reach >= r) for r in radii}
    return CellGraph(build_adjacency(tess, adjacency), {"root": np.array([zero_cell(tess)]), **far})


def _theta_rep(ps: tuple, radii: tuple, graph: CellGraph, uniforms, rep: int):
    """Reach indicator per radius, per p of ps, of one colouring: the number,
    0 or 1, of black clusters joining root and far_r, from one labelling per p."""
    root = graph.terminals["root"]
    far = [graph.terminals[f"far_{r}"] for r in radii]
    return tuple(tuple(len(common_labels(labels, root, cells)) for cells in far)
                 for labels in (label_components(uniforms < p, graph.edges) for p in ps))


def estimate_theta(spec: ExperimentSpec, radii, workers: int = 1) -> list[list[PercResult]]:
    """Finite proxy of the percolation function: P[zero cell's black cluster
    reaches Euclidean distance r from the origin], per radius, for each p of
    spec.ps (one list of PercResults per entry).

    All radii and every p are evaluated on the same replicates, so the
    estimates are nonincreasing in r by construction.
    """
    radii = tuple(float(r) for r in radii)
    if not (radii and 0 < radii[0] and all(a < b for a, b in zip(radii, radii[1:]))):
        raise ParameterError("radii must be one or more positive, strictly increasing numbers")
    cw = spec.window
    if not cw.contains_points(np.zeros(2))[0]:
        raise ParameterError("origin lies outside the core window")
    half_width = min(-cw.lo[0], -cw.lo[1], cw.hi[0], cw.hi[1])
    if radii[-1] > half_width:
        raise ParameterError("max radius exceeds the core half-width")
    vals, failed = run_replicates(spec, build_tessellation,
                                  partial(_theta_prepare, spec.adjacency, radii),
                                  partial(_theta_rep, _grid(spec), radii), workers)
    return [[PercResult.from_counts(sum(v[i][k] for v in vals), len(vals), failed=failed)
             for k in range(len(radii))] for i in range(len(spec.ps))]


@dataclass
class PcEstimate:
    interval: tuple
    probes: list  # (p, PercResult) in probe order
    separated: bool


def estimate_pc(spec: ExperimentSpec, tolerance: float, workers: int = 1) -> PcEstimate:
    """Bracket the crossing-probability crossover of the core-window square,
    with spec.replicates replicates per probe; the spec's p is not read.

    Bisection on p: a probe moves an endpoint only when its Wilson interval
    is fully on one side of 1/2; a straddling probe stops the refinement and
    the current bracket is returned flagged as non-separable if it is still
    wider than the tolerance.
    """
    if tolerance < 0.01:
        raise ParameterError("tolerance must be at least 0.01")
    query = CrossingQuery(rect=spec.window, direction="horizontal", color="black")
    probes: list = []

    def probe(p: float) -> PercResult:
        probe_spec = replace(spec, ps=(p,),
                             master_seed=(spec.master_seed + len(probes) + 1) % MAX_SEED)
        (res,) = estimate_crossing_prob(probe_spec, query, workers=workers)
        probes.append((p, res))
        return res

    lo, hi = 0.0, 1.0
    separated = True
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        res = probe(mid)
        if res.ci[1] < 0.5:
            lo = mid
        elif res.ci[0] > 0.5:
            hi = mid
        else:
            # straddling probe: the crossover is statistically at mid; try to
            # certify a bracket one tolerance to either side
            lo2 = max(lo, mid - tolerance)
            hi2 = min(hi, mid + tolerance)
            if lo2 > lo and probe(lo2).ci[1] < 0.5:
                lo = lo2
            else:
                separated = False
            if hi2 < hi and probe(hi2).ci[0] > 0.5:
                hi = hi2
            else:
                separated = False
            break
    return PcEstimate(interval=(lo, hi), probes=probes, separated=separated)


@dataclass
class SpanningCounts:
    histogram: dict
    replicates: int
    failed: int


def _spanning_rep(ps: tuple, graph, uniforms, rep: int):
    """Per p of ps, the number of distinct black clusters of one colouring
    that join the L and R sides of a rect graph."""
    return tuple(len(joining(graph, uniforms < p, "L", "R")) for p in ps)


def count_spanning_clusters(spec: ExperimentSpec, window: Window,
                            workers: int = 1) -> list[SpanningCounts]:
    """Histogram of the number of distinct left-right spanning black clusters,
    for each p of spec.ps; every p reads the same replicates."""
    if spec.replicates < 100:
        raise ParameterError("spanning counter needs at least 100 replicates")
    if not spec.window.contains_window(window, tol=1e-9):
        raise ParameterError("analysis window must lie inside the core window")
    vals, failed = run_replicates(spec, build_tessellation,
                                  partial(rect_graph, rect=window, adjacency=spec.adjacency),
                                  partial(_spanning_rep, _grid(spec)), workers)
    return [SpanningCounts(histogram=dict(sorted(Counter(v[k] for v in vals).items())),
                           replicates=len(vals), failed=failed) for k in range(len(spec.ps))]


@dataclass
class TrifurcationResult:
    count: int
    density: float
    candidates: int
    skipped: int
    points: list = field(default_factory=list)


def _in_box(bb: np.ndarray, lo, hi, tol: float) -> np.ndarray:
    """Mask of the [xmin, ymin, xmax, ymax] boxes inside [lo, hi] grown by
    tol; lo and hi are one corner pair or one per box."""
    return ((bb[:, :2] >= np.subtract(lo, tol)) & (bb[:, 2:] <= np.add(hi, tol))).all(axis=1)


@dataclass
class TrifurcationCandidates:
    """The colour-independent part of a trifurcation count: the cell graph
    with the terminal touching, the cells that reach the window's boundary,
    and each candidate that fits as (grid point, cells of its ball B_r1,
    cells of the ball's rim)."""
    graph: CellGraph
    window: Window
    fitting: list
    candidates: int


def trifurcation_candidates(tess: Tessellation, edges: np.ndarray, r1: int, r2: float,
                            window: Window) -> TrifurcationCandidates:
    """The grid points of 3*r2*Z^2 in the window and their balls in the cell
    graph edges, which one hop_balls call of radius r1 + 1 grows around
    every candidate's cell: B_r1 is hops <= r1 and its rim, the cells
    outside it with a neighbour in it, is hop r1 + 1.

    A candidate whose ball leaves the window or does not fit in
    x + [-r2, r2]^2 is skipped; neither depends on the colouring. A cell
    touches the window's boundary when its bbox reaches a side within tol.
    """
    if not tess.core_window.contains_window(window, tol=tess.tol):
        raise ParameterError("analysis window must lie inside the core window")
    if r1 < 1:
        raise ParameterError("r1 must be at least 1")
    if r2 <= 0:
        raise ParameterError("r2 must be positive")
    step, tol = 3.0 * r2, tess.tol
    axes = [[k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)]
            for lo, hi in zip(window.lo, window.hi)]
    grid = np.array([(x, y) for x in axes[0] for y in axes[1]]).reshape(-1, 2)
    owner, cell, hops = hop_balls(edges, len(tess), [tess.locate(x) for x in grid], r1 + 1)
    bb, centre = np.take(tess.bboxes, cell, axis=0), np.take(grid, owner, axis=0)
    misfit = (hops <= r1) & ~(_in_box(bb, window.lo, window.hi, tol)
                              & _in_box(bb, centre - r2, centre + r2, tol))
    fits = np.bincount(owner[misfit], minlength=len(grid)) == 0
    split = np.searchsorted(owner, np.arange(1, len(grid)))
    fitting = [(tuple(x), c[h <= r1], c[h > r1])
               for x, c, h, ok in zip(grid.tolist(), np.split(cell, split),
                                      np.split(hops, split), fits) if ok]
    box, lo, hi = tess.bboxes, np.add(window.lo, tol), np.subtract(window.hi, tol)
    touching = np.flatnonzero(((box[:, :2] <= lo) | (box[:, 2:] >= hi)).any(axis=1))
    return TrifurcationCandidates(graph=CellGraph(edges, {"touching": touching}), window=window,
                                  fitting=fitting, candidates=len(grid))


def find_trifurcations(cands: TrifurcationCandidates, black: np.ndarray) -> TrifurcationResult:
    """Count the candidate grid points that are trifurcations of the black mask.

    A fitting candidate qualifies when its ball is all black and, after
    whitening the ball, at least three distinct window-boundary-touching
    black clusters meet the ball's rim ("infinite" replaced by its finite
    window surrogate).
    """
    points = []
    for x, ball, rim in cands.fitting:
        if not black[ball].all():
            continue
        active = black.copy()
        active[ball] = False
        labels = label_components(active, cands.graph.edges)
        if len(common_labels(labels, rim, cands.graph.terminals["touching"])) >= 3:
            points.append(x)
    return TrifurcationResult(count=len(points), density=len(points) / cands.window.area,
                              candidates=cands.candidates,
                              skipped=cands.candidates - len(cands.fitting), points=points)


def _trifurcation_prepare(adjacency: str, r1: int, r2: float, window: Window,
                          tess: Tessellation) -> TrifurcationCandidates:
    return trifurcation_candidates(tess, build_adjacency(tess, adjacency), r1, r2, window)


def _trifurcation_rep(p: float, cands: TrifurcationCandidates, uniforms, rep: int):
    res = find_trifurcations(cands, uniforms < p)
    return (res.count, res.candidates, res.skipped)


def estimate_trifurcation_density(spec: ExperimentSpec, r1: int, r2: float, window: Window,
                                  workers: int = 1) -> dict:
    """Mean trifurcation count and density over replicates at the spec's p."""
    vals, failed = run_replicates(
        spec, build_tessellation, partial(_trifurcation_prepare, spec.adjacency, r1, r2, window),
        partial(_trifurcation_rep, spec.p), workers)
    mean_count, ci = mean_ci([v[0] for v in vals])
    return {
        "mean_count": mean_count,
        "count_ci": ci,
        "density": mean_count / window.area,
        "candidates": vals[0][1] if vals else 0,
        "mean_skipped": float(np.mean([v[2] for v in vals])) if vals else 0.0,
        "replicates": len(vals),
        "failed": failed,
        "window_area": window.area,
    }


@dataclass
class GgrResult:
    ns: list
    ball_sizes: list
    g1_avg: list
    g1_ci: list
    g2_avg: list


def _ggr_rep(spec: ExperimentSpec, tess: Tessellation, edges: np.ndarray,
             rows: np.ndarray, near: np.ndarray, size: int, rep: int) -> np.ndarray:
    """Per cell of a ball of size cells, whether its neighbours meet >= 2
    distinct boundary-touching black clusters under replicate rep's
    colouring; near[k] is a neighbour of ball cell rows[k]."""
    black = uniforms_for(spec, rep, tess) < spec.p
    labels = label_components(black, edges)
    touching = np.zeros(len(tess) + 1, bool)  # white cells are -1: the last, False
    touching[labels[black & tess.boundary]] = True
    hit = touching[labels[near]]
    # two distinct labels meet a cell iff their least and greatest differ
    least, most = np.full(size, len(tess)), np.full(size, -1)
    np.minimum.at(least, rows[hit], labels[near[hit]])
    np.maximum.at(most, rows[hit], labels[near[hit]])
    return most > least


def ggr_diagnostics(spec: ExperimentSpec, n_max: int, workers: int) -> GgrResult:
    """Ball averages of the two uniqueness diagnostics on one instance.

    The balls B_n, n <= n_max, are rooted at the zero cell, or at the cell
    of the core window's centre when the origin lies outside the window.
    g1(v) is estimated over replicated colorings as the fraction in which v
    is adjacent to >= 2 distinct boundary-touching ("infinite") black
    clusters; g2(v) = |outer boundary of {v}| is deterministic.
    """
    tess = build_tessellation(spec, 0)
    edges = build_adjacency(tess, spec.adjacency)
    cw = tess.core_window
    origin = np.zeros(2)
    root = tess.locate(origin if cw.contains_points(origin)[0] else cw.center)
    _, ball, hops = hop_balls(edges, len(tess), [root], n_max)
    if tess.boundary[ball].any():
        raise ParameterError("n_max ball leaves the core window; enlarge the window")
    # every ball cell with its neighbours at hop 1; the ball is in hop order,
    # so B_n is its first sizes[n] cells
    rows, near, step = hop_balls(edges, len(tess), ball, 1)
    rows, near = rows[step == 1], near[step == 1]
    degree = np.bincount(rows, minlength=len(ball))
    sizes = np.searchsorted(hops, np.arange(n_max + 1), side="right").tolist()
    per_rep_l, _ = map_replicates(partial(_ggr_rep, spec, tess, edges, rows, near, len(ball)),
                                  spec.replicates, workers)
    g1_avg, g1_ci, g2_avg = [], [], []
    for size in sizes:
        m, ci = mean_ci([int(l[:size].sum()) / size for l in per_rep_l])
        g1_avg.append(m)
        g1_ci.append(ci)
        g2_avg.append(int(degree[:size].sum()) / size)
    return GgrResult(ns=list(range(n_max + 1)), ball_sizes=sizes, g1_avg=g1_avg,
                     g1_ci=g1_ci, g2_avg=g2_avg)


def verify_crossing_recursion(spec: ExperimentSpec, t: float, workers: int = 1) -> dict:
    """Estimate both sides of the 9t x 3t crossing chain at the spec's p and
    check the square-renormalization inequality within Monte Carlo slack.

    lhs = P[no horizontal crossing of [0,9t]x[0,3t]] is checked against
    (7 max{P[H(3t,t) fails], P[V(t,3t) fails]})^2 plus 3x the joint CI
    width; every raw estimate is returned.
    """
    p = spec.p
    big = Window((0.0, 0.0), (9 * t, 3 * t))
    if not spec.window.contains_window(big, tol=1e-9):
        raise ParameterError("core window must contain the 9t x 3t rectangle")
    # the black crossing of each term's rect, (direction, x0, y0, x1, y1) by term name
    terms = {"lhs": ("horizontal", 0, 0, 9 * t, 3 * t), "f_V": ("vertical", 0, 0, t, 3 * t)}
    for strip, y0 in (("bottom", 0.0), ("top", 2 * t)):
        terms[f"{strip}_strip"] = ("horizontal", 0, y0, 9 * t, y0 + t)
        for k, x0 in enumerate((0, 2 * t, 4 * t, 6 * t)):
            terms[f"{strip}_H{k}"] = ("horizontal", x0, y0, x0 + 3 * t, y0 + t)
        for k, x0 in enumerate((2 * t, 4 * t, 6 * t)):
            terms[f"{strip}_V{k}"] = ("vertical", x0, y0, x0 + t, y0 + t)
    queries = tuple(CrossingQuery(Window((x0, y0), (x1, y1)), direction)
                    for direction, x0, y0, x1, y1 in terms.values())
    _, curves = estimate_crossing_curve(spec, queries, workers)
    n, failed = curves[0][0].replicates, curves[0][0].failed
    counts = {k: n - res.successes for k, (res,) in zip(terms, curves)}  # failures per term
    counts["f_H"] = counts["bottom_H0"]
    est = {k: counts[k] / n for k in counts}
    sig = {k: wilson_sigma(counts[k], n) for k in counts}
    max_key = "f_H" if est["f_H"] >= est["f_V"] else "f_V"
    maxf, w_max = est[max_key], sig[max_key]
    rhs = (7.0 * maxf) ** 2
    slack = 3.0 * sig["lhs"] + 49.0 * ((maxf + 3.0 * w_max) ** 2 - maxf ** 2)
    return {
        "t": t, "p": p, "replicates": n, "failed": failed,
        "lhs": est["lhs"], "lhs_sigma": sig["lhs"],
        "rhs_terms": {k: est[k] for k in sorted(counts) if k != "lhs"},
        "max_term": max_key, "max_value": maxf,
        "rhs": rhs, "slack": slack,
        "inequality_margin": rhs + slack - est["lhs"],
        "holds": est["lhs"] <= rhs + slack,
    }
