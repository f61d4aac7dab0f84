import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tessperc import gridfield
from tessperc.diagnostics import tameness_report
from tessperc.errors import ParameterError
from tessperc.experiment import ExperimentSpec
from tessperc.geometry import Window, clip_rings_to_window, rings_meet_boxes
from tessperc.gridfield import (AnimalSearchResult, GridField, box_counts, cell_box_pairs,
                                compute_U_field, compute_Y_field, greedy_animal_max)
from tessperc.point_process import (PointConfiguration, ProcessSpec, sample_matern_hardcore,
                                    sample_poisson)
from tessperc.streams import stream
from tessperc.tessellation import build_lattice_tessellation, build_voronoi
from test_geometry import ring_areas


def grid_voronoi(half=9, core=6.0):
    pts = np.array([[i, j] for i in range(-half, half + 1)
                    for j in range(-half, half + 1)], float)
    cfg = PointConfiguration(pts, Window((-half - 0.5, -half - 0.5), (half + 0.5, half + 0.5)))
    return build_voronoi(cfg, Window((-core, -core), (core, core)))


def pv_tess(seed, side=16.0, gamma=1.0):
    core = Window((-side, -side), (side, side))
    cfg = sample_poisson(gamma, core.expand(5), stream(seed, 0, "tess"))
    return build_voronoi(cfg, core)


def test_box_counts_counts_a_point_on_box_edges_once():
    # at delta 1/2 the region holds boxes (0, 0) to (1, 1), whose half-open
    # union is [-1/4, 3/4)^2; the points are every box corner, edge midpoint
    # and centre, and each box keeps its lower-left corner, the midpoints of
    # its lower and left edges and its centre
    region = Window((-0.25, -0.25), (0.75, 0.75))
    grid = np.array([-0.25, 0.0, 0.25, 0.5, 0.75])
    pts = np.array([(x, y) for x in grid for y in grid])
    field = box_counts(pts, 0.5, region)
    assert (field.delta, field.i0, field.j0) == (0.5, 0, 0)
    assert field.values.tolist() == [[4, 4], [4, 4]]
    assert box_counts(np.array([[0.0, 0.0], [0.6, 0.6], [5.0, 5.0]]), 0.5,
                      region).values.sum() == 2
    assert box_counts(np.empty((0, 2)), 0.5, region).values.sum() == 0
    for delta in (0.0, -0.5):
        with pytest.raises(ParameterError, match="grid delta must be positive"):
            box_counts(pts, delta, region)


def brute_force_pairs(tess, delta):
    """The (cell, box) pairs that rings_meet_boxes accepts among all pairs
    of a cell of tess and a box of a window holding every cell."""
    bb = tess.bboxes
    lo = np.floor(bb[:, :2].min(axis=0) / delta).astype(int) - 1
    hi = np.ceil(bb[:, 2:].max(axis=0) / delta).astype(int) + 1
    boxes = np.array([(a, b) for a in range(lo[0], hi[0] + 1) for b in range(lo[1], hi[1] + 1)])
    ids = np.repeat(np.arange(len(tess)), len(boxes))
    boxes = np.tile(boxes, (len(tess), 1))
    hit = rings_meet_boxes(tess.poly_xy, tess.poly_ptr, ids, boxes, delta, tess.tol)
    return set(zip(ids[hit].tolist(), map(tuple, boxes[hit].tolist())))


@st.composite
def tessellations(draw):
    """A Poisson-Voronoi tessellation, or a randomly shifted square or
    hexagonal lattice (shifts of 0 and 1/2 put cell edges on box edges)."""
    core = Window((-3.0, -3.0), (3.0, 3.0))
    kind = draw(st.sampled_from(["voronoi", "square", "hexagonal"]))
    if kind == "voronoi":
        seed = draw(st.integers(0, 2 ** 32))
        return build_voronoi(sample_poisson(1.0, core.expand(4.0), stream(seed, 0, "pairs")), core)
    spacing = draw(st.sampled_from([0.5, 1.0, 1.5]))
    shift = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0))
    return build_lattice_tessellation(kind, spacing, (spacing * draw(shift), spacing * draw(shift)),
                                      core)


@settings(max_examples=40, deadline=None)
@given(tessellations(), st.sampled_from([0.5, 0.75, 1.0, 2.0]))
def test_cell_box_pairs_match_brute_force(tess, delta):
    ids, boxes = cell_box_pairs(tess, delta, np.arange(len(tess)))
    got = list(zip(ids.tolist(), map(tuple, boxes.tolist())))
    assert len(got) == len(set(got))
    assert set(got) == brute_force_pairs(tess, delta)


def test_Y_unit_grid_aligned():
    tess = grid_voronoi()
    field = compute_Y_field(tess, 1.0, Window((-4.5, -4.5), (4.5, 4.5)))
    assert field.values.shape == (9, 9)
    assert (field.values == 1).all()


def test_Y_mass_conservation():
    tess = pv_tess(3)
    region = Window((-10, -10), (10, 10))
    field = compute_Y_field(tess, 2.0, region)
    idx = np.floor(tess.centers / 2.0 + 0.5).astype(int)
    manual = sum(1 for i, j in idx if field.contains_index(i, j))
    assert field.values.sum() == manual


def test_Y_poisson_dispersion():
    # per-box counts of a unit Poisson process behave like Poisson(delta^2)
    counts = []
    for seed in range(12):
        tess = pv_tess(100 + seed, side=17.0)
        field = compute_Y_field(tess, 1.0, Window((-10, -10), (10, 10)))
        counts.extend(field.values.ravel().tolist())
    counts = np.array(counts, float)
    assert len(counts) >= 1000
    ratio = counts.var(ddof=1) / counts.mean()
    assert abs(ratio - 1.0) < 3 * math.sqrt(2.0 / len(counts)) + 0.05


def test_U_unit_squares_aligned_zero():
    tess = grid_voronoi()
    field = compute_U_field(tess, 1.0, Window((-4.5, -4.5), (4.5, 4.5)))
    assert (field.values == 0).all()


def test_U_giant_cell_all_ones():
    # spacing 40 lattice: one cell covers the whole region
    tess = build_lattice_tessellation("square", 40.0, (-20, -20), Window((-6, -6), (6, 6)))
    field = compute_U_field(tess, 1.0, Window((-4.5, -4.5), (4.5, 4.5)))
    assert (field.values == 1).all()


def test_U_definitional_recheck():
    tess = pv_tess(7)
    delta = 2.0
    field = compute_U_field(tess, delta, Window((-10, -10), (10, 10)))
    rng = np.random.default_rng(0)
    idx = list(np.ndindex(field.values.shape))
    for _ in range(100):
        ka, kb = idx[rng.integers(len(idx))]
        if field.values[ka, kb] != 0:
            continue
        i, j = field.i0 + ka, field.j0 + kb
        box = Window(((i - 0.5) * delta, (j - 0.5) * delta), ((i + 0.5) * delta, (j + 0.5) * delta))
        # no cell may meet both this box and the >=2 shell
        for c in tess.cells_meeting(box):
            poly = tess.polygon(c)
            ring = [0, len(poly)]
            if len(clip_rings_to_window(poly, ring, box)[0]) == 0:
                continue
            bb_lo = poly.min(axis=0)
            bb_hi = poly.max(axis=0)
            a0 = math.floor(bb_lo[0] / delta + 0.5)
            a1 = math.floor(bb_hi[0] / delta + 0.5)
            b0 = math.floor(bb_lo[1] / delta + 0.5)
            b1 = math.floor(bb_hi[1] / delta + 0.5)
            for a in range(a0, a1 + 1):
                for b in range(b0, b1 + 1):
                    if max(abs(a - i), abs(b - j)) < 2:
                        continue
                    other = Window(((a - 0.5) * delta, (b - 0.5) * delta),
                                   ((a + 0.5) * delta, (b + 0.5) * delta))
                    inter, inter_ptr = clip_rings_to_window(poly, ring, other)
                    assert abs(ring_areas(inter, inter_ptr)[0]) < 1e-12


def test_field_region_validation():
    tess = grid_voronoi()
    with pytest.raises(ParameterError):
        compute_Y_field(tess, 1.0, Window((-20, -20), (20, 20)))
    with pytest.raises(ParameterError):
        compute_Y_field(tess, 0.0, Window((-2, -2), (2, 2)))


def exact_animal_max(field: GridField, n: int, anchor=None) -> AnimalSearchResult:
    """Best connected n-box animal by duplicate-free DFS growth: the
    exhaustive reference of the branch and bound in greedy_animal_max.

    With anchor=(i, j) every animal holds that box; otherwise every animal
    is generated once, rooted at its smallest linear index.
    """
    ni, nj = field.values.shape
    flat = field.values.ravel()

    def nbrs(k):
        i, j = divmod(k, nj)
        return [w for w, inside in ((k - nj, i > 0), (k + nj, i < ni - 1),
                                    (k - 1, j > 0), (k + 1, j < nj - 1)) if inside]

    best = {"total": -math.inf, "animal": None}

    def grow(candidates, chosen, total, seen, min_id):
        while candidates:
            v = candidates.pop()
            chosen.append(v)
            if len(chosen) == n:
                if total + flat[v] > best["total"]:
                    best["total"], best["animal"] = total + flat[v], list(chosen)
            else:
                new = [w for w in nbrs(v) if w not in seen and w >= min_id]
                seen.update(new)
                grow(candidates + new, chosen, total + flat[v], seen, min_id)
                seen.difference_update(new)
            chosen.pop()

    if anchor is not None:
        root = (anchor[0] - field.i0) * nj + (anchor[1] - field.j0)
        grow([root], [], 0.0, {root}, 0)
    else:
        for root in range(ni * nj):
            grow([root], [], 0.0, {root}, root)
    animal = [(field.i0 + k // nj, field.j0 + k % nj) for k in sorted(best["animal"])]
    value = float(best["total"]) / n
    return AnimalSearchResult(n=n, best_value=value, best_animal=animal, bound=value)


def test_animal_constant_field():
    field = GridField(1.0, 0, 0, np.full((6, 6), 3.0))
    for n in (1, 4, 9):
        for res in (exact_animal_max(field, n), greedy_animal_max(field, n)):
            assert res.best_value == pytest.approx(3.0)
            assert len(res.best_animal) == n


def test_animal_single_hot_box():
    values = np.zeros((7, 7))
    values[3, 3] = 100.0
    field = GridField(1.0, 0, 0, values)
    res = exact_animal_max(field, 3)
    assert res.best_value == pytest.approx(100.0 / 3.0)
    assert (3, 3) in res.best_animal
    bnb = greedy_animal_max(field, 3)
    assert bnb.best_value == bnb.bound == pytest.approx(100.0 / 3.0)


def test_animal_local_matches_exact_100_trials():
    rng = np.random.default_rng(42)
    for trial in range(100):
        values = rng.poisson(3.0, size=(6, 6)).astype(float)
        field = GridField(1.0, 0, 0, values)
        n = int(rng.integers(2, 9))
        anchor = (int(rng.integers(6)), int(rng.integers(6)))
        anchored = greedy_animal_max(field, n, anchor=anchor)
        free = greedy_animal_max(field, n)
        exact_anchored = exact_animal_max(field, n, anchor).best_value
        assert anchored.best_value == anchored.bound == exact_anchored
        assert free.best_value == free.bound == exact_animal_max(field, n).best_value
        for res in (anchored, free):
            assert sum(values[i, j] for i, j in res.best_animal) / n == res.best_value


def test_animal_dominates_adversarial_set():
    rng = np.random.default_rng(9)
    values = rng.poisson(2.0, size=(8, 8)).astype(float)
    field = GridField(1.0, 0, 0, values)
    # adversarial connected 5-set: a vertical bar through the max box
    i, j = np.unravel_index(np.argmax(values), values.shape)
    i = int(min(max(i, 0), 3))
    bar = [(i + k, int(j)) for k in range(5)]
    bar_value = sum(values[a, b] for a, b in bar) / 5
    for res in (exact_animal_max(field, 5), greedy_animal_max(field, 5)):
        assert res.best_value >= bar_value - 1e-9


def test_animal_anchored_vs_free():
    rng = np.random.default_rng(17)
    values = rng.poisson(3.0, size=(6, 6)).astype(float)
    field = GridField(1.0, -3, -3, values)
    free = exact_animal_max(field, 4)
    anchored = exact_animal_max(field, 4, anchor=(0, 0))
    assert anchored.best_value <= free.best_value + 1e-9
    assert (0, 0) in anchored.best_animal


def test_animal_validation():
    field = GridField(1.0, 0, 0, np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        greedy_animal_max(field, 10)
    with pytest.raises(ParameterError):
        greedy_animal_max(field, 2, anchor=(5, 5))


def is_animal(boxes) -> bool:
    """Whether the boxes are distinct and edge-connected."""
    boxes = set(boxes)
    todo, reached = [next(iter(boxes))], set()
    while todo:
        i, j = todo.pop()
        if (i, j) not in reached:
            reached.add((i, j))
            todo += [b for b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)) if b in boxes]
    return reached == boxes


def test_animal_search_past_its_node_budget_brackets_the_optimum(monkeypatch):
    monkeypatch.setattr(gridfield, "ANIMAL_SEARCH_NODES", 20)
    rng = np.random.default_rng(23)
    field = GridField(1.0, -3, -3, rng.poisson(1.0, size=(7, 7)).astype(float))
    open_searches = 0
    for n in (5, 7, 9):
        anchored = greedy_animal_max(field, n, anchor=(0, 0))
        free = greedy_animal_max(field, n, start=anchored)
        for res, exact in ((anchored, exact_animal_max(field, n, (0, 0))),
                           (free, exact_animal_max(field, n))):
            assert res.best_value <= exact.best_value <= res.bound
            assert len(res.best_animal) == n and is_animal(res.best_animal)
            assert sum(field.values[i + 3, j + 3] for i, j in res.best_animal) / n == res.best_value
            open_searches += res.bound > res.best_value
        assert (0, 0) in anchored.best_animal
        assert free.best_value >= anchored.best_value and free.bound >= anchored.bound
    assert open_searches >= 4


def test_animal_search_is_not_recursive():
    field = GridField(1.0, 0, 0, np.full((40, 40), 2.5))
    for res in (greedy_animal_max(field, 1200, anchor=(20, 20)), greedy_animal_max(field, 1200)):
        assert res.best_value == res.bound == 2.5
        assert len(res.best_animal) == 1200 and is_animal(res.best_animal)


def test_tameness_poisson_Y_oracle():
    # Y is i.i.d. Poisson(gamma delta^2) = Poisson(1): the anchored mean is 1
    # at n = 1 and (1 + E[max of 4 i.i.d. Poisson(1)]) / 2 at n = 2
    p = stats.poisson(1.0)
    e_max4 = sum(1.0 - p.cdf(k) ** 4 for k in range(60))
    spec = ExperimentSpec(ProcessSpec("poisson", {"gamma": 1.0}), Window((-5.0, -5.0), (5.0, 5.0)),
                          replicates=400, master_seed=176)
    rep = tameness_report(spec, 1.0, (1, 2))
    (lo1, hi1), (lo2, hi2) = rep.curves["anchored_Y"]["ci"]
    assert (rep.replicates, rep.failed) == (400, 0)
    assert lo1 <= 1.0 <= hi1
    assert lo2 <= (1.0 + e_max4) / 2.0 <= hi2
    assert (1.0 + e_max4) / 2.0 == pytest.approx(1.53215, abs=1e-5)
    assert rep.curves["anchored_Y"]["bound"] == rep.curves["anchored_Y"]["mean"]


def test_matern_hardcore_packing_bound():
    # deterministic packing bound on Y for a hard-core process
    delta, r_hard = 2.0, 0.5
    bound = math.ceil((delta * math.sqrt(2.0) / r_hard + 1) ** 2)
    core = Window((-10, -10), (10, 10))
    for seed in range(5):
        cfg = sample_matern_hardcore(3.0, r_hard, core.expand(4), stream(seed, 0, "m2"))
        tess = build_voronoi(cfg, core)
        field = compute_Y_field(tess, delta, Window((-8, -8), (8, 8)))
        assert field.values.max() <= bound
        res = greedy_animal_max(field, 8)
        assert res.best_value <= bound
