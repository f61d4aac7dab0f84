from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from tessperc import diagnostics, estimators, percolation
from tessperc.diagnostics import (mixture_nonergodic_demo, peierls_probe, smp_gap,
                                  tameness_report)
from tessperc.errors import EdgeEffectError, ParameterError
from tessperc.estimators import (count_spanning_clusters, estimate_crossing_curve,
                                 estimate_crossing_prob, estimate_pc, estimate_theta,
                                 estimate_trifurcation_density,
                                 find_trifurcations, ggr_diagnostics,
                                 trifurcation_candidates, verify_crossing_recursion)
from tessperc.experiment import (ExperimentSpec, build_tessellation, run_replicates,
                                 varies_by_replicate)
from tessperc.geometry import Window
from tessperc.percolation import CrossingQuery, color
from tessperc.point_process import ProcessSpec
from tessperc.streams import stream
from tessperc.tessellation import build_adjacency, build_lattice_tessellation


def pv_spec(window, p, replicates, seed, gamma=1.0, adjacency="face"):
    return ExperimentSpec(process=ProcessSpec("poisson", {"gamma": gamma}),
                          window=window, adjacency=adjacency, ps=(p,),
                          replicates=replicates, master_seed=seed)


def lattice_spec(window, p, replicates, seed, spacing=1.0):
    return ExperimentSpec(process=ProcessSpec("square_lattice", {"spacing": spacing}),
                          window=window, adjacency="face", ps=(p,),
                          replicates=replicates, master_seed=seed)


@pytest.mark.parametrize("kind,params,varies", [
    ("square_lattice", {"spacing": 1.0}, False),
    ("hexagonal_lattice", {"spacing": 1.0, "random_shift": False}, False),
    ("square_lattice", {"spacing": 1.0, "random_shift": True}, True),
    ("hexagonal_lattice", {"spacing": 1.0, "random_shift": True}, True),
    ("poisson", {"gamma": 1.0}, True),
])
def test_varies_by_replicate_matches_build_tessellation(kind, params, varies):
    spec = ExperimentSpec(process=ProcessSpec(kind, params), window=Window((-3, -3), (3, 3)),
                          master_seed=5)
    assert varies_by_replicate(spec) is varies
    a, b = build_tessellation(spec, 0), build_tessellation(spec, 1)
    same = a.poly_xy.shape == b.poly_xy.shape and np.array_equal(a.poly_xy, b.poly_xy)
    assert same is not varies


@pytest.mark.parametrize("random_shift,builds", [(False, [0]), (True, [0, 1, 2])])
def test_run_replicates_prepares_once_per_build(random_shift, builds):
    spec = ExperimentSpec(
        process=ProcessSpec("square_lattice", {"spacing": 1.0, "random_shift": random_shift}),
        window=Window((-2, -2), (2, 2)), replicates=3, master_seed=58)
    built, prepared = [], []

    def build(spec, rep):
        built.append(rep)
        return build_tessellation(spec, rep)

    def prepare(tess):
        prepared.append(tess)
        return tess

    vals, failed = run_replicates(spec, build, prepare,
                                  lambda tess, uniforms, rep: (rep, tess, uniforms))
    assert built == builds and len(prepared) == len(builds) and failed == 0
    assert [rep for rep, _, _ in vals] == [0, 1, 2]
    for rep, tess, uniforms in vals:
        assert tess is prepared[rep if random_shift else 0]
        assert np.array_equal(uniforms, stream(58, rep, "color").random(len(tess)))


def test_crossing_prob_trivial_endpoints():
    spec = pv_spec(Window((0, 0), (8, 8)), 1.0, 50, 1)
    q = CrossingQuery(rect=spec.window)
    results = estimate_crossing_prob(replace(spec, ps=(1.0, 0.0, 1.0)), q)
    assert [r.estimate for r in results] == [1.0, 0.0, 1.0]
    with pytest.raises(ParameterError):
        estimate_crossing_prob(replace(spec, ps=(0.5,), replicates=49), q)


def test_theta_trivials_and_monotonicity():
    spec = pv_spec(Window((-8, -8), (8, 8)), 0.5, 60, 2)
    ones, zeros = estimate_theta(replace(spec, ps=(1.0, 0.0)), (2, 4))
    assert [r.estimate for r in ones] == [1.0, 1.0]
    assert [r.estimate for r in zeros] == [0.0, 0.0]
    (mid,) = estimate_theta(spec, (2, 4, 6))
    ests = [r.estimate for r in mid]
    assert all(b <= a for a, b in zip(ests, ests[1:]))
    with pytest.raises(ParameterError):
        estimate_theta(spec, (2, 20))  # exceeds half-width
    with pytest.raises(ParameterError):
        estimate_theta(spec, (4, 2))


def lattice_crossover_oracle(L, reps, seed, p_lo=0.5, p_hi=0.7, iters=12):
    """Direct site-percolation crossing bisection, independent of the package."""
    s = ndimage.generate_binary_structure(2, 1)
    rng = np.random.default_rng(seed)

    def crossing_prob(p):
        hits = 0
        for _ in range(reps):
            grid = rng.random((L, L)) < p
            lab, _ = ndimage.label(grid, structure=s)
            left = set(lab[:, 0][lab[:, 0] > 0])
            right = set(lab[:, -1][lab[:, -1] > 0])
            hits += bool(left & right)
        return hits / reps

    lo, hi = p_lo, p_hi
    for _ in range(iters):
        mid = (lo + hi) / 2
        if crossing_prob(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_pc_square_lattice_contains_oracle_crossover():
    window = Window((0, 0), (32, 32))
    spec = lattice_spec(window, 0.5, 150, 11)
    est = estimate_pc(spec, 0.02)
    oracle = lattice_crossover_oracle(32, 150, 3)
    lo, hi = est.interval
    assert lo - 0.02 <= oracle <= hi + 0.02
    assert any(abs(p - 0.5) < 0.3 for p, _ in est.probes)


def test_pc_single_row_degenerate():
    # one row of cells: crossing needs every cell black, so the crossover
    # sits near 1 (1-D behavior)
    window = Window((0, 0), (30, 1))
    spec = lattice_spec(window, 0.5, 120, 13)
    est = estimate_pc(spec, 0.05)
    assert est.interval[0] >= 0.9


def test_pc_tolerance_validation():
    spec = lattice_spec(Window((0, 0), (8, 8)), 0.5, 60, 1)
    with pytest.raises(ParameterError):
        estimate_pc(spec, 0.001)


def test_spanning_counts_trivials():
    spec = pv_spec(Window((0, 0), (10, 10)), 1.0, 100, 3)
    res1, res0 = count_spanning_clusters(replace(spec, ps=(1.0, 0.0)), spec.window)
    assert res1.histogram == {1: 100}
    assert res0.histogram == {0: 100}


def cross_fixture(black_tips=("N", "E", "W")):
    """5x5 unit-cell field holding a plus-shaped configuration around the hub."""
    tess = build_lattice_tessellation("square", 1.0, (-0.5, -0.5),
                                      Window((-2.5, -2.5), (2.5, 2.5)))
    uniforms = np.ones(len(tess))
    centers = {tuple(np.round(c).astype(int)): i for i, c in enumerate(tess.centers)}
    black_cells = [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)]  # hub + inner arms
    tips = {"N": (0, 2), "S": (0, -2), "E": (2, 0), "W": (-2, 0)}
    black_cells += [tips[t] for t in black_tips]
    for key in black_cells:
        uniforms[centers[key]] = 0.0
    return tess, uniforms < 0.5


def test_trifurcation_hand_fixture():
    tess, coloring = cross_fixture()
    res = find_trifurcations(trifurcation_candidates(tess, build_adjacency(tess, "face"),
                                                     r1=1, r2=1.5, window=tess.core_window),
                             coloring)
    assert res.candidates == 1
    assert res.count == 1
    assert res.points == [(0.0, 0.0)]
    assert res.density == pytest.approx(1 / 25)


def test_trifurcation_two_tips_insufficient():
    tess, coloring = cross_fixture(black_tips=("N", "E"))
    res = find_trifurcations(trifurcation_candidates(tess, build_adjacency(tess, "face"),
                                                     r1=1, r2=1.5, window=tess.core_window),
                             coloring)
    assert res.count == 0


def test_trifurcation_needs_black_ball():
    tess, _ = cross_fixture()
    edges = build_adjacency(tess, "face")
    cands = trifurcation_candidates(tess, edges, r1=1, r2=1.5, window=tess.core_window)
    res = find_trifurcations(cands, np.zeros(len(tess), bool))
    assert res.count == 0
    with pytest.raises(ParameterError):
        trifurcation_candidates(tess, edges, r1=0, r2=1.5, window=tess.core_window)


def test_trifurcation_ball_containment_r2():
    # shrinking r2 below the ball extent disqualifies the hub
    tess, coloring = cross_fixture()
    res = find_trifurcations(trifurcation_candidates(tess, build_adjacency(tess, "face"),
                                                     r1=1, r2=0.4, window=tess.core_window),
                             coloring)
    assert res.count == 0


def test_trifurcation_ball_misfit_counts_as_skipped():
    # on a shifted unit lattice the radius-1 ball around x reaches more
    # than 1.5 from x, so no candidate fits and every one is skipped
    spec = ExperimentSpec(
        process=ProcessSpec("square_lattice", {"spacing": 1.0, "random_shift": True}),
        window=Window((-10, -10), (10, 10)), ps=(0.6,), replicates=5, master_seed=7)
    out = estimate_trifurcation_density(spec, 1, 1.5, spec.window)
    assert out["candidates"] == 25
    assert out["mean_skipped"] == out["candidates"]
    assert out["mean_count"] == 0.0


def test_trifurcation_density_driver():
    spec = pv_spec(Window((-15, -15), (15, 15)), 0.8, 10, 21)
    out = estimate_trifurcation_density(spec, 1, 3.0, spec.window)
    assert out["replicates"] == 10
    assert out["density"] >= 0.0


def test_ggr_square_lattice_g2():
    spec = lattice_spec(Window((-10.5, -10.5), (10.5, 10.5)), 0.5, 30, 5)
    res = ggr_diagnostics(spec, 4, workers=1)
    assert all(v == pytest.approx(4.0) for v in res.g2_avg)
    res0 = ggr_diagnostics(replace(spec, ps=(0.0,)), 4, workers=1)
    assert all(v == 0.0 for v in res0.g1_avg)


def test_ggr_ball_must_fit():
    spec = lattice_spec(Window((-3.5, -3.5), (3.5, 3.5)), 0.5, 10, 5)
    with pytest.raises(ParameterError):
        ggr_diagnostics(spec, 10, workers=1)


def test_recursion_trivial_endpoints():
    spec = pv_spec(Window((0, 0), (18, 6)), 1.0, 60, 7)
    rep1 = verify_crossing_recursion(spec, 2.0)
    assert rep1["lhs"] == 0.0 and rep1["holds"]
    rep0 = verify_crossing_recursion(replace(spec, ps=(0.0,)), 2.0)
    assert rep0["lhs"] == 1.0
    assert rep0["rhs"] == pytest.approx(49.0)
    assert rep0["holds"]


def test_recursion_window_validation():
    spec = pv_spec(Window((0, 0), (10, 10)), 0.7, 60, 7)
    with pytest.raises(ParameterError):
        verify_crossing_recursion(spec, 2.0)


def test_recursion_small_supercritical():
    spec = pv_spec(Window((0, 0), (36, 12)), 0.75, 80, 9)
    rep = verify_crossing_recursion(spec, 4.0)
    assert rep["holds"]
    assert set(rep["rhs_terms"]) >= {"f_H", "f_V", "bottom_H0", "top_V2"}


@pytest.mark.parametrize("call,rects", [
    (lambda spec: verify_crossing_recursion(spec, 1.0), 18),
    (lambda spec: smp_gap(spec, "crossing", Window((-1, -1), (0, 0)),
                          Window((0.5, 0.5), (1.5, 1.5)), [1.0, 2.0]), 4),
], ids=["recursion", "smp_gap_crossing"])
def test_rect_graphs_are_built_once_per_run_on_an_unshifted_lattice(call, rects, monkeypatch):
    """Every query rect's graph is built once per build, and an unshifted
    lattice builds once per run: one rect_graph call per rect, not one per
    replicate."""
    built, build = [], percolation.rect_graph
    for module in (percolation, estimators):
        monkeypatch.setattr(module, "rect_graph", lambda tess, rect, adjacency:
                            built.append(rect) or build(tess, rect, adjacency))
    spec = lattice_spec(Window((-3, -3), (9, 9)), 0.6, 20, 12, spacing=0.5)
    call(spec)
    assert len(built) == len(set(built)) == rects


# Every function that reads p, the p-grid or the replicate count from its
# spec: name -> (which p it reads: "grid" through spec.ps, "one" through
# spec.p, or "none"; its call on a spec, returning the (replicates,
# failed) pair of each estimate it reports, or None when it reports none).
W5 = Window((-5.0, -5.0), (5.0, 5.0))


def _counted(*results):
    """The (replicates, failed) pair of each result, a dict or an object."""
    return [(r["replicates"], r["failed"]) if isinstance(r, dict) else (r.replicates, r.failed)
            for r in results]


SPEC_READERS = {
    "estimate_crossing_curve": (
        "grid", lambda spec: _counted(*estimate_crossing_curve(spec, (CrossingQuery(W5),))[1][0])),
    "estimate_crossing_prob": (
        "grid", lambda spec: _counted(*estimate_crossing_prob(spec, CrossingQuery(W5)))),
    "estimate_theta": (
        "grid", lambda spec: _counted(*sum(estimate_theta(spec, (1, 2)), []))),
    "count_spanning_clusters": (
        "grid", lambda spec: _counted(*count_spanning_clusters(spec, W5))),
    "estimate_pc": (
        "none", lambda spec: _counted(*(r for _, r in estimate_pc(spec, 0.1).probes))),
    "estimate_trifurcation_density": (
        "one", lambda spec: _counted(estimate_trifurcation_density(spec, 1, 2.0, W5))),
    "verify_crossing_recursion": (
        "one", lambda spec: _counted(verify_crossing_recursion(spec, 0.5))),
    "ggr_diagnostics": ("one", lambda spec: ggr_diagnostics(spec, 1, 1) and None),
    "smp_gap": ("one", lambda spec: [
        (c.replicates, c.meta["failed"]) for c in [smp_gap(
            spec, "crossing", Window((-1, -1), (0, 0)), Window((0.5, 0.5), (1.5, 1.5)), [1.0])]]),
    "peierls_probe": ("one", lambda spec: _counted(
        peierls_probe(spec, 1.0, Window((-4.5, -4.5), (4.5, 4.5)), 0.5, 0.02, (8,)))),
    "mixture_nonergodic_demo": ("one", lambda spec: (lambda m: _counted(m.square, m.hexagonal))(
        mixture_nonergodic_demo(spec, 1.0))),
    "tameness_report": ("none", lambda spec: _counted(tameness_report(spec, 1.0, (1, 2)))),
}
COUNTLESS = {"ggr_diagnostics"}  # reports no replicate count


def _shifted_spec(**fields):
    """A spec of 100 replicates of a randomly shifted unit square lattice on W5."""
    return ExperimentSpec(
        process=ProcessSpec("square_lattice", {"spacing": 1.0, "random_shift": True}),
        window=W5, replicates=100, master_seed=90, **fields)


@pytest.mark.parametrize("name", sorted(n for n, (reads, _) in SPEC_READERS.items()
                                        if reads != "none"))
def test_a_spec_without_p_is_a_parameter_error(name):
    """A single-p reader refuses a grid of two thresholds, and a grid reader
    a spec that sets none."""
    reads, call = SPEC_READERS[name]
    spec = _shifted_spec(ps=() if reads == "grid" else (0.5, 0.6))
    with pytest.raises(ParameterError, match="the spec sets (no|2) p"):
        call(spec)


@pytest.mark.parametrize("config,ps", [
    ({"p": 0.25}, (0.25,)),
    ({"p": 0}, (0.0,)),
    ({"p_grid": [0.6, 0.2, 0.6, 1]}, (0.6, 0.2, 0.6, 1.0)),
    ({"p_grid": [0.5]}, (0.5,)),
    ({}, ()),
], ids=["p", "p_zero", "grid_in_config_order", "one_entry_grid", "neither"])
def test_from_json_holds_the_thresholds_in_one_tuple(config, ps):
    """A config's p becomes (p,) and its p_grid the tuple in config order,
    repeats kept; spec.p is the one threshold, and raises on any other count."""
    spec = ExperimentSpec.from_json({"process": {"kind": "poisson", "params": {"gamma": 1.0}},
                                     "window": [[-1, -1], [1, 1]], **config})
    assert spec.ps == ps and all(type(p) is float for p in spec.ps)
    if len(ps) == 1:
        assert spec.p == ps[0]
    else:
        with pytest.raises(ParameterError, match="the spec sets (no|4) p values, not one"):
            spec.p


@pytest.mark.parametrize("name", sorted(set(SPEC_READERS) - COUNTLESS))
def test_each_estimate_accounts_for_every_replicate_of_the_spec(name, monkeypatch):
    """With replicate 1's build failing, every estimate counts the spec's
    other 99 replicates and the one failure."""
    def fail_rep_1(build):
        def wrapped(spec, rep):
            if rep == 1:
                raise EdgeEffectError("forced failure")
            return build(spec, rep)
        return wrapped

    for module in (estimators, diagnostics):
        monkeypatch.setattr(module, "build_tessellation", fail_rep_1(module.build_tessellation))
    pairs = SPEC_READERS[name][1](_shifted_spec(ps=(0.6,)))
    assert pairs and all(pair == (99, 1) for pair in pairs)
