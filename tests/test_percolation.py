from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tessperc import percolation
from tessperc.errors import ParameterError
from tessperc.estimators import _theta_prepare, _theta_rep
from tessperc.experiment import BUILD_ERRORS, ExperimentSpec, build_tessellation, uniforms_for
from tessperc.geometry import (Window, clip_rings_to_window, clip_segments_to_rect,
                               gather_rings, parts_with_area)
from tessperc.percolation import (CrossingQuery, color, common_labels, crossing, joining,
                                  label_components, neighbor_csr, rect_graph)
from tessperc.point_process import KINDS, ProcessSpec, sample_poisson
from tessperc.streams import stream
from tessperc.tessellation import (build_adjacency, build_lattice_tessellation,
                                   build_voronoi, zero_cell)


def poisson_setup(seed, side=20.0):
    """A Poisson-Voronoi tessellation of [0, side]^2 and its uniforms."""
    core = Window((0, 0), (side, side))
    cfg = sample_poisson(1.0, core.expand(5), stream(seed, 0, "tess"))
    tess = build_voronoi(cfg, core)
    return tess, color(tess, stream(seed, 0, "color"))


def crosses(tess, black, query, adjacency="face"):
    """crossing on the rect graph of the query's rect, built for this one call."""
    return crossing(rect_graph(tess, query.rect, adjacency), black, query)


def test_coloring_thresholds():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (100, 100)))
    uniforms = color(tess, stream(1, 0, "color"))
    assert not (uniforms < 0.0).any()
    assert (uniforms < 1.0).all()
    frac = (uniforms < 0.37).mean()
    assert abs(frac - 0.37) < 3 * np.sqrt(0.37 * 0.63 / 10_000)
    with pytest.raises(ParameterError):
        ExperimentSpec(process=ProcessSpec("poisson", {"gamma": 1.0}), window=tess.core_window,
                       ps=(1.5,))


def test_coupling_monotone():
    tess, uniforms = poisson_setup(3)
    assert ((uniforms < 0.3) <= (uniforms < 0.6)).all()


def csr_lists(n, edges):
    """Neighbour list of every vertex, read from its compressed rows."""
    ptr, nbr = neighbor_csr(n, edges)
    return [nbr[ptr[v]:ptr[v + 1]].tolist() for v in range(n)]


def bfs_labels(neighbors, active_ids):
    """Independent cluster labeling oracle."""
    active = set(active_ids)
    labels = {}
    next_label = 0
    for v in sorted(active):
        if v in labels:
            continue
        queue = deque([v])
        labels[v] = next_label
        while queue:
            u = queue.popleft()
            for w in neighbors[u]:
                if w in active and w not in labels:
                    labels[w] = next_label
                    queue.append(w)
        next_label += 1
    return labels


def test_black_clusters_trivial_and_checkerboard():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (8, 8)))
    edges = build_adjacency(tess, "face")
    labels = label_components(np.ones(len(tess), bool), edges)
    assert len(tess) == 64 and (labels == 0).all()
    # checkerboard: no face adjacency between same-color diagonal squares
    uniforms = np.ones(len(tess))
    for i, c in enumerate(tess.centers):
        ix, iy = int(np.floor(c[0])), int(np.floor(c[1]))
        if (ix + iy) % 2 == 0:
            uniforms[i] = 0.0
    checker = uniforms < 0.5
    black = np.nonzero(checker)[0]
    assert len(black) == 32
    labels = label_components(checker, edges)
    assert (labels[black] == black).all()
    # same coloring with star adjacency joins the diagonal
    star = build_adjacency(tess, "star")
    labels = label_components(checker, star)
    assert (labels[black] == black.min()).all()


def assert_same_partition(labels, oracle, ids):
    forward = {}
    for v in ids:
        a, b = labels[v], oracle[v]
        assert forward.setdefault(a, b) == b
    assert len(set(forward.values())) == len(forward)


def test_union_find_matches_bfs_oracle():
    # the kernel on random active masks over face and star edges
    rng = np.random.default_rng(8)
    for seed, mode in ((9, "face"), (10, "star"), (11, "star")):
        tess, _ = poisson_setup(seed, side=12.0)
        edges = build_adjacency(tess, mode)
        neighbors = csr_lists(len(tess), edges)
        for frac in (0.3, 0.55, 0.8):
            active = rng.random(len(tess)) < frac
            labels = label_components(active, edges)
            ids = np.nonzero(active)[0].tolist()
            oracle = bfs_labels(neighbors, ids)
            assert_same_partition(labels, oracle, ids)
            assert (labels[~active] == -1).all()
            for v in ids:
                assert labels[v] == min(w for w in ids if oracle[w] == oracle[v])
    # random graphs, edges listed in both orders and repeated
    for _ in range(50):
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        active = rng.random(n) < 0.7
        labels = label_components(active, edges)
        ids = np.nonzero(active)[0].tolist()
        assert_same_partition(labels, bfs_labels(csr_lists(n, edges), ids), ids)


def assert_least_id_labels(labels, edges, active):
    """labels[v] is the smallest id in v's component of the active vertices
    under the BFS oracle, and -1 for inactive v."""
    n = len(active)
    ids = np.nonzero(active)[0].tolist()
    oracle = bfs_labels(csr_lists(n, edges), ids)
    least = {}
    for v in ids:  # ids ascend, so each component's first id is its least
        least.setdefault(oracle[v], v)
    expected = np.full(n, -1)
    expected[ids] = [least[oracle[v]] for v in ids]
    assert np.array_equal(labels, expected)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), per_vertex=st.floats(0, 3), loops=st.floats(0, 1),
       frac=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_label_components_matches_bfs_oracle_on_random_graphs(n, per_vertex, loops, frac, seed):
    """Random multigraphs: repeated edges in both orders, self-loops, any mask."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, max(n, 1), size=(int(per_vertex * n), 2))
    selfloop = rng.random(len(edges)) < loops
    edges[selfloop, 1] = edges[selfloop, 0]
    edges = np.concatenate([edges, edges[rng.random(len(edges)) < 0.3, ::-1]])
    active = rng.random(n) < frac
    assert_least_id_labels(label_components(active, edges), edges, active)


def _comb(teeth, length):
    """A spine of teeth vertices, each with a path of length vertices
    hanging from it; the spine takes the largest ids."""
    n = teeth * (length + 1)
    spine = np.arange(n - teeth, n)
    tooth = np.arange(n - teeth).reshape(teeth, length)
    hang = np.column_stack([spine, tooth[:, 0]])
    down = np.column_stack([tooth[:, :-1].ravel(), tooth[:, 1:].ravel()])
    return n, np.concatenate([np.column_stack([spine[1:], spine[:-1]]), hang, down])


_PERM = np.random.default_rng(5).permutation(3000)
ADVERSARIAL_GRAPHS = {
    "no_vertices": (0, np.zeros((0, 2), int)),
    "no_edges": (40, np.zeros((0, 2), int)),
    "shuffled_path": (3000, np.column_stack([_PERM[:-1], _PERM[1:]])),
    "decreasing_path": (3000, np.column_stack([np.arange(2999, 0, -1), np.arange(2998, -1, -1)])),
    "star": (500, np.column_stack([np.full(499, 499), np.arange(499)])),
    "comb": _comb(60, 25),
}


@pytest.mark.parametrize("mask", ["all", "random"])
@pytest.mark.parametrize("name", list(ADVERSARIAL_GRAPHS))
def test_label_components_on_adversarial_graphs(name, mask):
    n, edges = ADVERSARIAL_GRAPHS[name]
    active = np.ones(n, bool) if mask == "all" else np.random.default_rng(6).random(n) < 0.8
    labels = label_components(active, edges)
    assert_least_id_labels(labels, edges, active)
    if mask == "all" and len(edges):
        assert (labels == 0).all()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_common_labels_is_intersect1d_without_negatives(data):
    """Label arrays with -1 entries, empty sides and repeated ids; the
    second side also as a mask."""
    n = data.draw(st.integers(0, 30))
    labels = np.array(data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)), int)
    side = st.lists(st.integers(0, n - 1), max_size=40) if n else st.just([])
    first, second = (np.array(data.draw(side), int) for _ in range(2))
    ref = np.intersect1d(labels[first], labels[second])
    got = common_labels(labels, first, second)
    assert np.array_equal(got, ref[ref >= 0])
    mask = np.zeros(n, bool)
    mask[second] = True
    assert np.array_equal(common_labels(labels, first, mask), got)


def test_crossing_trivials_and_errors():
    tess, uniforms = poisson_setup(9, side=10.0)
    rect = Window((1, 1), (9, 9))
    q = CrossingQuery(rect=rect, direction="horizontal", color="black")
    assert crosses(tess, uniforms < 1.0, q)
    assert not crosses(tess, uniforms < 0.0, q)
    qw = CrossingQuery(rect=rect, direction="vertical", color="white")
    assert crosses(tess, uniforms < 0.0, qw, "star")
    with pytest.raises(ParameterError):
        rect_graph(tess, Window((0, 0), (11, 11)), "face")


def test_planar_dichotomy_sampled_instances():
    for seed in range(40):
        tess, uniforms = poisson_setup(100 + seed, side=15.0)
        col = uniforms < 0.5
        rect = tess.core_window
        black_h = crosses(tess, col, CrossingQuery(rect, "horizontal", "black"), "face")
        white_v = crosses(tess, col, CrossingQuery(rect, "vertical", "white"), "star")
        assert black_h != white_v


def test_dichotomy_on_subrects():
    tess, uniforms = poisson_setup(250, side=20.0)
    col = uniforms < 0.5
    rects = [Window((1, 2), (12, 9)), Window((0.5, 0.5), (19, 19)), Window((5, 5), (9, 15))]
    for rect in rects:
        black_h = crosses(tess, col, CrossingQuery(rect, "horizontal", "black"), "face")
        white_v = crosses(tess, col, CrossingQuery(rect, "vertical", "white"), "star")
        assert black_h != white_v


def test_color_symmetry_at_half():
    # matched rects: P[black H crossing] should match P[white H crossing]
    hits_b = hits_w = 0
    n = 120
    rect = Window((0, 0), (12, 12))
    for seed in range(n):
        tess, uniforms = poisson_setup(300 + seed, side=12.0)
        col = uniforms < 0.5
        graph = rect_graph(tess, rect, "face")
        hits_b += crossing(graph, col, CrossingQuery(rect=rect, color="black"))
        hits_w += crossing(graph, col, CrossingQuery(rect=rect, color="white"))
    pb, pw = hits_b / n, hits_w / n
    se = np.sqrt(pb * (1 - pb) / n + pw * (1 - pw) / n) + 1e-9
    assert abs(pb - pw) < 3 * se


def test_fkg_nested_crossings_positively_associated():
    inner = Window((2, 2), (10, 10))
    outer = Window((0, 0), (12, 12))
    pairs = []
    for seed in range(100):
        tess, uniforms = poisson_setup(500 + seed, side=12.0)
        col = uniforms < 0.5
        a = crosses(tess, col, CrossingQuery(rect=inner, color="black"))
        b = crosses(tess, col, CrossingQuery(rect=outer, color="black"))
        pairs.append((int(a), int(b)))
    arr = np.array(pairs, float)
    cov = arr[:, 0] * arr[:, 1] - arr[:, 0].mean() * arr[:, 1].mean()
    se = cov.std(ddof=1) / np.sqrt(len(arr))
    assert cov.mean() >= -3 * se


def test_spanning_joining_trivials():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (6, 6)))
    uniforms = color(tess, stream(2, 0, "color"))
    graph = rect_graph(tess, tess.core_window, "face")
    assert len(joining(graph, uniforms < 1.0, "L", "R")) == 1
    assert len(joining(graph, uniforms < 0.0, "L", "R")) == 0


def test_spanning_two_disjoint_rows():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (5, 5)))
    uniforms = np.ones(len(tess))
    for i, c in enumerate(tess.centers):
        if int(np.floor(c[1])) in (0, 3):
            uniforms[i] = 0.0
    assert len(joining(rect_graph(tess, tess.core_window, "face"), uniforms < 0.5, "L", "R")) == 2


@pytest.mark.parametrize("adjacency", ["face", "star"])
def test_cells_touching_the_rect_only_along_a_side_do_not_cross(adjacency):
    # a black row of unit cells just above rect [0,4]^2 meets it only along
    # its top side, and the row one step lower lies inside it
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((-6, -6), (6, 6)))
    rect = Window((0, 0), (4, 4))
    x, y = tess.centers.T
    for y0, crossed in ((4, False), (3, True)):
        row = (y0 < y) & (y < y0 + 1) & (-1 < x) & (x < 5)
        col = np.where(row, 0.0, 1.0) < 0.5
        graph = rect_graph(tess, rect, adjacency)
        assert crossing(graph, col, CrossingQuery(rect)) == crossed
        assert len(joining(graph, col, "L", "R")) == int(crossed)


def test_spanning_rect_must_lie_in_core_window():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (5, 5)))
    for adjacency in ("face", "star"):
        with pytest.raises(ParameterError, match="inside the core window"):
            rect_graph(tess, Window((1, 1), (6, 4)), adjacency)


@pytest.mark.parametrize("call", [
    lambda tess, rect: rect_graph(tess, rect, "starr"),
], ids=["rect_graph"])
def test_unknown_adjacency_is_a_parameter_error(call):
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (5, 5)))
    with pytest.raises(ParameterError, match="adjacency must be face or star"):
        call(tess, Window((1, 1), (4, 4)))


def test_theta_terminals_reach_the_farthest_corner():
    tess = build_lattice_tessellation("square", 1.0, (-0.5, -0.5), Window((-5.5, -5.5), (5.5, 5.5)))
    uniforms = color(tess, stream(4, 0, "color"))
    # all white reaches nothing; all black reaches the farthest cell corner
    corner = np.sqrt(2) * 5.5
    radii = (0.5, corner * (1 - 1e-9), corner * (1 + 1e-9))
    graph = _theta_prepare("face", radii, tess)
    assert graph.terminals["root"].tolist() == [zero_cell(tess)]
    assert _theta_rep((0.0, 1.0), radii, graph, uniforms, 0) == ((0, 0, 0), (1, 1, 0))


# Reference: the rectangle graph built from the active cells only, one build
# per query, as percolation did before rect_graph took every cell.

def _ref_cells_in_rect(tess, active, rect):
    ids = tess.cells_meeting(rect)
    ids = ids[active[ids]]
    ext = tess.bboxes[ids]
    inside = ((ext[:, 0] >= rect.lo[0]) & (ext[:, 1] >= rect.lo[1])
              & (ext[:, 2] <= rect.hi[0]) & (ext[:, 3] <= rect.hi[1]))
    keep = inside.copy()
    cut = np.nonzero(~inside)[0]
    if len(cut):
        xy, ptr = clip_rings_to_window(*gather_rings(tess.poly_xy, tess.poly_ptr, ids[cut]),
                                       rect)
        part = ptr[:-1] < ptr[1:]
        cut, starts = cut[part], ptr[:-1][part]
        ext[cut] = np.column_stack([np.minimum.reduceat(xy, starts),
                                    np.maximum.reduceat(xy, starts)])
        keep[cut] = ((ext[cut, 2] - ext[cut, 0] > tess.tol)
                     & (ext[cut, 3] - ext[cut, 1] > tess.tol))
    in_rect = np.zeros(len(tess), bool)
    in_rect[ids[keep]] = True
    return in_rect, ext[keep]


def _ref_rect_edges(tess, in_rect, rect, adjacency):
    tol = tess.tol
    fp = tess.face_pairs
    both = in_rect[fp[:, 0]] & in_rect[fp[:, 1]]
    seg = tess.face_segments[both]
    ok, lengths = clip_segments_to_rect(seg[:, 0, :], seg[:, 1, :], rect)
    if adjacency == "face":
        return fp[both][ok & (lengths > tol)]
    sp = tess.star_pairs
    both_sp = in_rect[sp[:, 0]] & in_rect[sp[:, 1]]
    pts = tess.star_points[both_sp]
    inside = ((pts[:, 0] >= rect.lo[0] - tol) & (pts[:, 0] <= rect.hi[0] + tol)
              & (pts[:, 1] >= rect.lo[1] - tol) & (pts[:, 1] <= rect.hi[1] + tol))
    return np.concatenate([fp[both][ok], sp[both_sp][inside]])


def _ref_spanning_labels(tess, active, rect, adjacency, direction):
    if not tess.core_window.contains_window(rect, tol=tess.tol):
        raise ParameterError("rectangle must lie inside the core window")
    in_rect, ext = _ref_cells_in_rect(tess, active, rect)
    labels = label_components(in_rect, _ref_rect_edges(tess, in_rect, rect, adjacency))[in_rect]
    tol = tess.tol
    touches = np.column_stack([ext[:, 0] <= rect.lo[0] + tol, ext[:, 2] >= rect.hi[0] - tol,
                               ext[:, 1] <= rect.lo[1] + tol, ext[:, 3] >= rect.hi[1] - tol])
    start, end = (0, 1) if direction == "horizontal" else (2, 3)
    return np.intersect1d(labels[touches[:, start]], labels[touches[:, end]])


_KINDS = {
    "square": ProcessSpec("square_lattice", {"spacing": 1.0}),
    "square_shifted": ProcessSpec("square_lattice", {"spacing": 1.0, "random_shift": True}),
    "hexagonal": ProcessSpec("hexagonal_lattice", {"spacing": 1.0, "random_shift": True}),
    "voronoi": ProcessSpec("poisson", {"gamma": 1.0}),
}
_CORE = Window((-4.0, -4.0), (4.0, 4.0))


@st.composite
def _rects(draw):
    """A rect inside _CORE: integer corners (so lattice edges run along its
    sides) or float ones."""
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(-4, 3)), draw(st.integers(-4, 3))
        return Window((x0, y0), (draw(st.integers(x0 + 1, 4)), draw(st.integers(y0 + 1, 4))))
    x0, y0 = draw(st.floats(-4, 3.5)), draw(st.floats(-4, 3.5))
    return Window((x0, y0), (draw(st.floats(x0 + 0.25, 4)), draw(st.floats(y0 + 0.25, 4))))


@st.composite
def _instances(draw):
    """(tessellation, its uniforms, two rects inside its core)."""
    spec = ExperimentSpec(process=_KINDS[draw(st.sampled_from(sorted(_KINDS)))],
                          window=_CORE, ps=(0.5,), master_seed=draw(st.integers(0, 10_000)))
    try:
        tess = build_tessellation(spec, 0)
    except BUILD_ERRORS:
        assume(False)
    return tess, uniforms_for(spec, 0, tess), (draw(_rects()), draw(_rects()))


@settings(max_examples=40, deadline=None)
@given(_instances(), st.lists(st.floats(0, 1), min_size=2, max_size=3))
def test_rect_graph_labels_match_the_active_first_reference(instance, ps):
    tess, uniforms, rects = instance
    for rect in rects:
        for adjacency in ("face", "star"):
            graph = rect_graph(tess, rect, adjacency)
            for p in ps:
                col = uniforms < p
                for name, mask in (("black", col), ("white", ~col)):
                    for direction, (a, b) in (("horizontal", "LR"), ("vertical", "BT")):
                        want = _ref_spanning_labels(tess, mask, rect, adjacency, direction)
                        assert np.array_equal(joining(graph, mask, a, b), want)
                        query = CrossingQuery(rect, direction, name)
                        assert crossing(graph, col, query) == (len(want) > 0)


def _ref_cluster_reach(tess, edges, black, root):
    """Max Euclidean distance from the origin reached by the root's black
    cluster in the cell graph edges; 0.0 when the root cell is white."""
    if not black[root]:
        return 0.0
    labels = label_components(black, edges)
    corners = np.compress(np.repeat(labels == labels[root], np.diff(tess.poly_ptr)), tess.poly_xy,
                          axis=0)
    return float(np.sqrt((corners ** 2).sum(axis=1)).max())


# one spec of every process kind that builds cells, the lattices shifted or not
_EVERY_KIND = {
    **_KINDS,
    "matern_cluster": ProcessSpec("matern_cluster", {"gamma0": 0.5, "mu": 2.0, "radius": 1.0}),
    "thomas_cluster": ProcessSpec("thomas_cluster", {"gamma0": 0.5, "mu": 2.0, "sigma": 0.5}),
    "matern_hardcore_II": ProcessSpec("matern_hardcore_II",
                                      {"gamma_proposal": 3.0, "hardcore_radius": 0.3}),
    "perturbed_lattice": ProcessSpec("perturbed_lattice",
                                     {"spacing": 1.0, "perturbation_scale": 0.5}),
    "hexagonal_unshifted": ProcessSpec("hexagonal_lattice", {"spacing": 1.0}),
}


def test_every_cell_building_kind_has_a_theta_reference_case():
    built = {spec.kind for spec in _EVERY_KIND.values()}
    assert built == {name for name, kind in KINDS.items() if kind.sample or kind.lattice}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_EVERY_KIND)), seed=st.integers(0, 10_000),
       ps=st.lists(st.floats(0, 1), min_size=1, max_size=3), data=st.data())
def test_theta_terminals_match_the_cluster_reach_reference(name, seed, ps, data):
    """Radii, which estimate_theta takes positive, are drawn from the
    reference reaches too, so that a cluster reaching exactly r is tried."""
    spec = ExperimentSpec(process=_EVERY_KIND[name], window=_CORE, ps=(0.5,), master_seed=seed)
    try:
        tess = build_tessellation(spec, 0)
    except BUILD_ERRORS:
        assume(False)
    uniforms, root = uniforms_for(spec, 0, tess), zero_cell(tess)
    reach = {(adjacency, p): _ref_cluster_reach(tess, build_adjacency(tess, adjacency),
                                                uniforms < p, root)
             for adjacency in ("face", "star") for p in ps}
    exact = sorted({r for r in reach.values() if r > 0}) or [4.0]
    radii = tuple(sorted(data.draw(st.sets(st.sampled_from(exact) | st.floats(0.01, 4),
                                           min_size=1, max_size=4))))
    for adjacency in ("face", "star"):
        want = tuple(tuple(int(reach[adjacency, p] >= r) for r in radii) for p in ps)
        graph = _theta_prepare(adjacency, radii, tess)
        assert _theta_rep(tuple(ps), radii, graph, uniforms, 0) == want


def _ref_rect_graph(tess, rect, adjacency):
    """rect_graph's edges and sides by name, every contact of in-rect cells
    clipped."""
    in_rect, ext = _ref_cells_in_rect(tess, np.ones(len(tess), bool), rect)
    ids, tol = np.nonzero(in_rect)[0], tess.tol
    sides = {"L": ids[ext[:, 0] <= rect.lo[0] + tol], "R": ids[ext[:, 2] >= rect.hi[0] - tol],
             "B": ids[ext[:, 1] <= rect.lo[1] + tol], "T": ids[ext[:, 3] >= rect.hi[1] - tol]}
    return _ref_rect_edges(tess, in_rect, rect, adjacency), sides


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_rect_graph_equals_the_all_clip_reference(instance):
    tess, _, rects = instance
    for rect in rects + (tess.core_window,):
        for adjacency in ("face", "star"):
            graph = rect_graph(tess, rect, adjacency)
            want_edges, want_sides = _ref_rect_graph(tess, rect, adjacency)
            assert graph.edges.dtype == want_edges.dtype
            assert np.array_equal(graph.edges, want_edges)
            assert graph.terminals.keys() == want_sides.keys()
            for side, want in want_sides.items():
                assert np.array_equal(graph.terminals[side], want)


def _recording(monkeypatch):
    """Record the arguments of rect_graph's two clippers, which still run."""
    calls = {"segments": [], "rings": []}

    def segments(a, b, rect):
        calls["segments"].append(np.stack([a, b], axis=1))
        return clip_segments_to_rect(a, b, rect)

    def rings(xy, ptr, win, tol):
        calls["rings"].append((xy, ptr))
        return parts_with_area(xy, ptr, win, tol)

    monkeypatch.setattr(percolation, "clip_segments_to_rect", segments)
    monkeypatch.setattr(percolation, "parts_with_area", rings)
    return calls


@pytest.mark.parametrize("adjacency", ["face", "star"])
def test_rect_graph_clips_no_cell_of_an_aligned_lattice(adjacency, monkeypatch):
    calls = _recording(monkeypatch)
    tess = build_lattice_tessellation("square", 1.0, (0, 0), _CORE)
    graph = rect_graph(tess, tess.core_window, adjacency)
    assert calls == {"segments": [], "rings": []}
    assert len(graph.edges) == len(build_adjacency(tess, adjacency))


@pytest.mark.parametrize("rect", [_CORE, Window((-2.5, -3.0), (3.0, 2.25))], ids=["core", "sub"])
@pytest.mark.parametrize("adjacency", ["face", "star"])
def test_rect_graph_clips_only_contacts_of_boundary_crossing_cells(rect, adjacency,
                                                                    monkeypatch):
    calls = _recording(monkeypatch)
    tess = build_lattice_tessellation("square", 1.0, (0.3, 0.6), _CORE)
    rect_graph(tess, rect, adjacency)
    meeting = tess.cells_meeting(rect)
    bb = tess.bboxes
    crosses = ~((bb[:, 0] >= rect.lo[0]) & (bb[:, 1] >= rect.lo[1])
                & (bb[:, 2] <= rect.hi[0]) & (bb[:, 3] <= rect.hi[1]))
    ((xy, ptr),) = calls["rings"]
    want_xy, want_ptr = gather_rings(tess.poly_xy, tess.poly_ptr, meeting[crosses[meeting]])
    assert np.array_equal(xy, want_xy) and np.array_equal(ptr, want_ptr)
    in_rect, _ = _ref_cells_in_rect(tess, np.ones(len(tess), bool), rect)
    a, b = tess.face_pairs.T
    cut = in_rect[a] & in_rect[b] & (crosses[a] | crosses[b])
    (segments,) = calls["segments"]
    assert cut.any() and np.array_equal(segments, tess.face_segments[cut])


@pytest.mark.parametrize("adjacency", ["face", "star"])
def test_rect_graph_of_a_lone_aligned_lattice_cell_has_no_edge(adjacency):
    # the core window is one cell, which is inner: nothing is cut, nothing joins
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (1, 1)))
    graph = rect_graph(tess, tess.core_window, adjacency)
    assert graph.edges.shape == (0, 2) and graph.edges.dtype == np.dtype(int)
    sides = {side: ids.tolist() for side, ids in graph.terminals.items()}
    assert sides == dict.fromkeys("LRBT", [0])


@pytest.mark.parametrize("edges", [np.array([[0, 1], [1, 2], [2, 3]]), np.empty((0, 2), int)],
                         ids=["inactive_ends", "no_edges"])
def test_label_components_without_an_active_edge_labels_each_active_cell_alone(edges):
    active = np.array([True, False, True, False])
    labels = label_components(active, edges)
    assert labels.dtype == np.dtype(int) and labels.tolist() == [0, -1, 2, -1]
