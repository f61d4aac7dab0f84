"""Monte Carlo estimators over tessellation percolation replicates.

Every estimator is a prepare/query pair run by experiment.run_replicates:
prepare builds the colour-independent part of a query (a rectangle graph,
the adjacency graph and zero cell) once per tessellation, and query reads
one replicate's colouring uniforms, thresholded at each p it asks. The
runner builds a tessellation that does not vary by replicate (an unshifted
lattice) once per run, drops and counts build failures (edge effects,
degenerate inputs) and fails the run past its failure budget. The
estimators count events and report Wilson intervals. Crossing
probabilities have one estimator, estimate_crossing_curve, which
thresholds each replicate's colouring at every p of a grid.

The build, crossing, adjacency, zero-cell and reach functions are looked
up in this module, so a wrapper on these bindings sees every call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ParameterError
from .geometry import Window
from .graphs import graph_ball, outer_boundary
from .percolation import (Coloring, CrossingQuery, cluster_reach, crossing,
                          label_components, rect_graph, spanning_cluster_count)
from .stats import PercResult, mean_ci, wilson_sigma
from .experiment import (ExperimentSpec, as_built, build_tessellation, coloring_for,
                         run_replicates)
from .tessellation import AdjacencyGraph, Tessellation, build_adjacency, zero_cell


def _rect_prepare(rect: Window, adjacency: str, tess: Tessellation):
    """(tessellation, its rectangle graph of rect)."""
    return tess, rect_graph(tess, rect, adjacency)


def _crossing_rep(query: CrossingQuery, p_grid: tuple, prepared, uniforms, rep: int):
    """(rep, crossing indicator per p of p_grid) of one coloring of a
    tessellation and its rectangle graph; the id survives dropped failures."""
    tess, graph = prepared
    return rep, tuple(1 if crossing(tess, Coloring(uniforms, p), query, graph) else 0
                      for p in p_grid)


def estimate_crossing_curve(spec: ExperimentSpec, query: CrossingQuery, p_grid,
                            replicates: int, workers: int = 1) -> tuple[list, list]:
    """Coupled crossing estimates over an increasing p_grid.

    Returns the (rep, indicators) of every replicate that built and one
    PercResult per p. Every p of a replicate thresholds the same uniforms,
    so its black crossing indicators are nondecreasing in p and its white
    ones nonincreasing; a spot check on ~1% of the replicates enforces this.
    """
    results, failed = run_replicates(spec, build_tessellation,
                                     partial(_rect_prepare, query.rect, query.adjacency),
                                     partial(_crossing_rep, query, p_grid), replicates, workers)
    vals = [indicators for _, indicators in results]
    sign = 1 if query.color == "black" else -1
    for indicators in vals[::max(1, len(vals) // 100)]:
        if any(sign * (b - a) < 0 for a, b in zip(indicators, indicators[1:])):
            raise ParameterError("coupling violation: crossing indicator not monotone in p")
    return results, [PercResult.from_counts(sum(v[k] for v in vals), len(vals), failed=failed)
                     for k in range(len(p_grid))]


def estimate_crossing_prob(spec: ExperimentSpec, query: CrossingQuery, p_grid,
                           replicates: int, workers: int = 1) -> list[PercResult]:
    """Fraction of replicates with the requested crossing at each p of p_grid
    (any order, repeats allowed), one PercResult per entry. Every p reads the
    same replicates: one estimate_crossing_curve over the sorted grid."""
    if replicates < 50:
        raise ParameterError("crossing estimator needs at least 50 replicates")
    grid = tuple(sorted(p_grid))
    per_p = dict(zip(grid, estimate_crossing_curve(spec, query, grid, replicates, workers)[1]))
    return [per_p[p] for p in p_grid]


def _theta_prepare(adjacency: str, tess: Tessellation):
    """(tessellation, its adjacency graph, its zero cell)."""
    return tess, build_adjacency(tess, adjacency), zero_cell(tess)


def _theta_rep(p_grid: tuple, radii: tuple, prepared, uniforms, rep: int):
    """Reach indicator per radius, per p of p_grid, of one tessellation and
    one coloring thresholded at every p."""
    tess, graph, root = prepared
    reach = [cluster_reach(tess, graph, Coloring(uniforms, p), root) for p in p_grid]
    return tuple(tuple(1 if r >= radius else 0 for radius in radii) for r in reach)


def estimate_theta(spec: ExperimentSpec, p_grid, radii, replicates: int,
                   workers: int = 1) -> list[list[PercResult]]:
    """Finite proxy of the percolation function: P[zero cell's black cluster
    reaches Euclidean distance r from the origin], per radius, for each p of
    p_grid (one list of PercResults per entry).

    All radii and every p are evaluated on the same replicates, so the
    estimates are nonincreasing in r by construction.
    """
    radii = tuple(float(r) for r in radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParameterError("radii must be strictly increasing")
    cw = spec.window
    half_width = min(-cw.lo[0], -cw.lo[1], cw.hi[0], cw.hi[1])
    if radii[-1] > half_width:
        raise ParameterError("max radius exceeds the core half-width")
    vals, failed = run_replicates(spec, build_tessellation,
                                  partial(_theta_prepare, spec.adjacency),
                                  partial(_theta_rep, p_grid, radii), replicates, workers)
    return [[PercResult.from_counts(sum(v[i][k] for v in vals), len(vals), failed=failed,
                                    radius=r)
             for k, r in enumerate(radii)] for i in range(len(p_grid))]


@dataclass
class PcEstimate:
    interval: tuple
    probes: list  # (p, PercResult) in probe order
    separated: bool


def estimate_pc(spec: ExperimentSpec, tolerance: float, replicates_per_probe: int,
                workers: int = 1) -> PcEstimate:
    """Bracket the crossing-probability crossover of the core-window square.

    Bisection on p: a probe moves an endpoint only when its Wilson interval
    is fully on one side of 1/2; a straddling probe stops the refinement and
    the current bracket is returned flagged as non-separable if it is still
    wider than the tolerance.
    """
    if tolerance < 0.01:
        raise ParameterError("tolerance must be at least 0.01")
    query = CrossingQuery(rect=spec.window, direction="horizontal", color="black",
                          adjacency=spec.adjacency)
    probes: list = []

    def probe(p: float) -> PercResult:
        probe_spec = ExperimentSpec(
            process=spec.process, window=spec.window, adjacency=spec.adjacency,
            buffer=spec.buffer, p=p, replicates=replicates_per_probe,
            master_seed=spec.master_seed + len(probes) + 1, params=dict(spec.params))
        (res,) = estimate_crossing_prob(probe_spec, query, (p,), replicates_per_probe,
                                        workers=workers)
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


def _spanning_rep(p_grid: tuple, window: Window, adjacency: str, prepared, uniforms,
                  rep: int):
    """Spanning cluster count per p of p_grid on one tessellation and its
    rectangle graph of window, and one coloring."""
    tess, graph = prepared
    return tuple(spanning_cluster_count(tess, Coloring(uniforms, p), window, adjacency, graph)
                 for p in p_grid)


def count_spanning_clusters(spec: ExperimentSpec, p_grid, window: Window,
                            replicates: int, workers: int = 1) -> list[SpanningCounts]:
    """Histogram of the number of distinct left-right spanning black clusters,
    for each p of p_grid; every p reads the same replicates."""
    if replicates < 100:
        raise ParameterError("spanning counter needs at least 100 replicates")
    if not spec.window.contains_window(window, tol=1e-9):
        raise ParameterError("analysis window must lie inside the core window")
    vals, failed = run_replicates(spec, build_tessellation,
                                  partial(_rect_prepare, window, spec.adjacency),
                                  partial(_spanning_rep, p_grid, window, spec.adjacency),
                                  replicates, workers)
    return [SpanningCounts(histogram=dict(sorted(Counter(v[k] for v in vals).items())),
                           replicates=len(vals), failed=failed) for k in range(len(p_grid))]


@dataclass
class TrifurcationResult:
    count: int
    density: float
    candidates: int
    skipped: int
    points: list = field(default_factory=list)


def _in_box(bb: np.ndarray, lo, hi, tol: float) -> np.ndarray:
    """Mask of the [xmin, ymin, xmax, ymax] boxes inside [lo, hi] grown by tol."""
    return ((bb[:, 0] >= lo[0] - tol) & (bb[:, 2] <= hi[0] + tol)
            & (bb[:, 1] >= lo[1] - tol) & (bb[:, 3] <= hi[1] + tol))


def find_trifurcations(tess: Tessellation, graph: AdjacencyGraph, coloring: Coloring,
                       r1: int, r2: float, window: Window) -> TrifurcationResult:
    """Count grid points of 3*r2*Z^2 in the window that are trifurcations of graph.

    A candidate x is skipped, and counted as skipped, when the graph ball
    B_r1 around its cell leaves the window or does not fit in
    x + [-r2, r2]^2; neither depends on the coloring. Any other candidate
    qualifies when the ball is all black and, after whitening the ball, at
    least three distinct window-boundary-touching black clusters meet the
    ball's outer boundary ("infinite" replaced by its finite window
    surrogate).
    """
    if r1 < 1:
        raise ParameterError("r1 must be at least 1")
    if r2 <= 0:
        raise ParameterError("r2 must be positive")
    black = coloring.black
    tol = tess.tol
    bb = tess.bboxes
    touching = ~_in_box(bb, window.lo, window.hi, -tol)
    step = 3.0 * r2
    i0 = math.ceil((window.lo[0]) / step)
    i1 = math.floor((window.hi[0]) / step)
    j0 = math.ceil((window.lo[1]) / step)
    j1 = math.floor((window.hi[1]) / step)
    count = 0
    skipped = 0
    candidates = 0
    points = []
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            x = np.array([i * step, j * step])
            candidates += 1
            ball = sorted(graph_ball(graph, tess.locate(x), r1).vertices)
            if not (_in_box(bb[ball], window.lo, window.hi, tol).all()
                    and _in_box(bb[ball], x - r2, x + r2, tol).all()):
                skipped += 1
                continue
            if not black[ball].all():
                continue
            # whiten the ball, relabel, count boundary-touching clusters on its rim
            active = black.copy()
            active[ball] = False
            labels = label_components(active, graph.edges)
            touching_labels = set(labels[active & touching].tolist())
            # white rim cells are labelled -1, never a touching label
            rim_labels = {int(labels[v]) for v in outer_boundary(graph, ball)}
            if len(rim_labels & touching_labels) >= 3:
                count += 1
                points.append((float(x[0]), float(x[1])))
    return TrifurcationResult(count=count, density=count / window.area,
                              candidates=candidates, skipped=skipped, points=points)


def _trifurcation_prepare(adjacency: str, tess: Tessellation):
    """(tessellation, its adjacency graph)."""
    return tess, build_adjacency(tess, adjacency)


def _trifurcation_rep(p: float, r1: int, r2: float, window: Window, prepared, uniforms,
                      rep: int):
    res = find_trifurcations(*prepared, Coloring(uniforms, p), r1, r2, window)
    return (res.count, res.candidates, res.skipped)


def estimate_trifurcation_density(spec: ExperimentSpec, p: float, r1: int, r2: float,
                                  window: Window, replicates: int,
                                  workers: int = 1) -> dict:
    """Mean trifurcation count and density over replicates."""
    vals, failed = run_replicates(
        spec, build_tessellation, partial(_trifurcation_prepare, spec.adjacency),
        partial(_trifurcation_rep, p, r1, r2, window), replicates, workers)
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
    truncated: bool


def ggr_diagnostics(spec: ExperimentSpec, p: float, n_max: int, replicates: int) -> GgrResult:
    """Ball averages of the two uniqueness diagnostics on one instance.

    g1(v) is estimated over replicated colorings as the fraction in which v
    is adjacent to >= 2 distinct boundary-touching ("infinite") black
    clusters; g2(v) = |outer boundary of {v}| is deterministic.
    """
    tess = build_tessellation(spec, 0)
    graph = build_adjacency(tess, spec.adjacency)
    ball = graph_ball(graph, graph.root, n_max)
    if ball.truncated:
        raise ParameterError("n_max ball leaves the core window; enlarge the window")
    dist = ball.distances
    ball_members = [sorted(v for v, d in dist.items() if d <= n) for n in range(n_max + 1)]

    per_rep_l = []
    for rep in range(replicates):
        black = coloring_for(spec, rep, tess, p).black
        labels = label_components(black, graph.edges)
        touching = set(labels[black & graph.boundary_flags].tolist())
        labels = labels.tolist()  # white cells are -1, never a touching label
        l_indicator = {}
        for v in dist:
            near = {labels[w] for w in graph.neighbors[v]}
            l_indicator[v] = 1 if len(near & touching) >= 2 else 0
        per_rep_l.append(l_indicator)

    g1_avg, g1_ci, g2_avg, sizes = [], [], [], []
    ns = list(range(n_max + 1))
    for n in ns:
        members = ball_members[n]
        sizes.append(len(members))
        per_rep_means = [sum(l[v] for v in members) / len(members) for l in per_rep_l]
        m, ci = mean_ci(per_rep_means)
        g1_avg.append(m)
        g1_ci.append(ci)
        g2_avg.append(sum(len(graph.neighbors[v]) for v in members) / len(members))
    return GgrResult(ns=ns, ball_sizes=sizes, g1_avg=g1_avg, g1_ci=g1_ci,
                     g2_avg=g2_avg, truncated=ball.truncated)


def _recursion_rep(p: float, t: float, adjacency: str, tess: Tessellation, uniforms,
                   rep: int):
    col = Coloring(uniforms, p)

    def fails(direction, x0, y0, x1, y1):
        q = CrossingQuery(rect=Window((x0, y0), (x1, y1)), direction=direction,
                          color="black", adjacency=adjacency)
        return 0 if crossing(tess, col, q) else 1

    out = {"lhs": fails("horizontal", 0, 0, 9 * t, 3 * t)}
    for strip, y0 in (("bottom", 0.0), ("top", 2 * t)):
        out[f"{strip}_strip"] = fails("horizontal", 0, y0, 9 * t, y0 + t)
        for k, x0 in enumerate((0, 2 * t, 4 * t, 6 * t)):
            out[f"{strip}_H{k}"] = fails("horizontal", x0, y0, x0 + 3 * t, y0 + t)
        for k, x0 in enumerate((2 * t, 4 * t, 6 * t)):
            out[f"{strip}_V{k}"] = fails("vertical", x0, y0, x0 + t, y0 + t)
    out["f_H"] = out["bottom_H0"]
    out["f_V"] = fails("vertical", 0, 0, t, 3 * t)
    return out


def verify_crossing_recursion(spec: ExperimentSpec, p: float, t: float,
                              replicates: int, workers: int = 1) -> dict:
    """Estimate both sides of the 9t x 3t crossing chain and check the
    square-renormalization inequality within Monte Carlo slack.

    lhs = P[no horizontal crossing of [0,9t]x[0,3t]] is checked against
    (7 max{P[H(3t,t) fails], P[V(t,3t) fails]})^2 plus 3x the joint CI
    width; every raw estimate is returned.
    """
    big = Window((0.0, 0.0), (9 * t, 3 * t))
    if not spec.window.contains_window(big, tol=1e-9):
        raise ParameterError("core window must contain the 9t x 3t rectangle")
    vals, failed = run_replicates(spec, build_tessellation, as_built,
                                  partial(_recursion_rep, p, t, spec.adjacency), replicates,
                                  workers)
    n = len(vals)
    keys = vals[0].keys()
    counts = {k: sum(v[k] for v in vals) for k in keys}
    est = {k: counts[k] / n for k in keys}
    sig = {k: wilson_sigma(counts[k], n) for k in keys}
    max_key = "f_H" if est["f_H"] >= est["f_V"] else "f_V"
    maxf, w_max = est[max_key], sig[max_key]
    rhs = (7.0 * maxf) ** 2
    slack = 3.0 * sig["lhs"] + 49.0 * ((maxf + 3.0 * w_max) ** 2 - maxf ** 2)
    return {
        "t": t, "p": p, "replicates": n, "failed": failed,
        "lhs": est["lhs"], "lhs_sigma": sig["lhs"],
        "rhs_terms": {k: est[k] for k in sorted(keys) if k != "lhs"},
        "max_term": max_key, "max_value": maxf,
        "rhs": rhs, "slack": slack,
        "inequality_margin": rhs + slack - est["lhs"],
        "holds": est["lhs"] <= rhs + slack,
    }
