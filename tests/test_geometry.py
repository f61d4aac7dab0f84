import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from tessperc.errors import ParameterError
from tessperc.geometry import (Window, _ring_next, clip_rings_to_window,
                               clip_segments_to_rect, gather_rings,
                               point_in_convex_polygon, ring_extents, rings_meet_boxes)
from tessperc.point_process import sample_poisson
from tessperc.streams import stream
from tessperc.tessellation import build_lattice_tessellation, build_voronoi


def clip_polygon_halfplane(poly, normal, offset):
    """Reference Sutherland-Hodgman clip of one polygon to
    {x : <normal, x> <= offset}, one vertex at a time."""
    if len(poly) == 0:
        return poly
    n = np.asarray(normal, float)
    dist = poly @ n - offset
    inside = dist <= 0.0
    if inside.all():
        return poly
    if not inside.any():
        return np.empty((0, 2))
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        pi, pj = poly[i], poly[j]
        di, dj = dist[i], dist[j]
        if di <= 0.0:
            out.append(pi)
            if dj > 0.0:
                t = di / (di - dj)
                out.append(pi + t * (pj - pi))
        elif dj <= 0.0:
            t = di / (di - dj)
            out.append(pi + t * (pj - pi))
    return np.array(out)


def clip_polygon_to_window(poly, win):
    out = poly
    out = clip_polygon_halfplane(out, (-1.0, 0.0), -win.lo[0])
    out = clip_polygon_halfplane(out, (1.0, 0.0), win.hi[0])
    out = clip_polygon_halfplane(out, (0.0, -1.0), -win.lo[1])
    out = clip_polygon_halfplane(out, (0.0, 1.0), win.hi[1])
    return out


def ragged(rings):
    ptr = np.concatenate([[0], np.cumsum([len(r) for r in rings])]).astype(int)
    xy = np.concatenate([np.reshape(r, (-1, 2)) for r in rings] + [np.empty((0, 2))])
    return xy.astype(float), ptr


def test_window_validation():
    with pytest.raises(ParameterError):
        Window((0, 0), (0, 1))
    with pytest.raises(ParameterError):
        Window((2, 0), (1, 1))
    w = Window((-1, -2), (3, 4))
    assert w.area == 24
    assert w.sides == (4, 6)


def test_window_scaled_about_origin():
    q = Window((1, 0), (2, 1))
    tq = q.scaled(3.0)
    assert tq.lo == (3.0, 0.0) and tq.hi == (6.0, 3.0)
    anchored = q.scaled(2.0, about=q.lo)
    assert anchored.lo == (1.0, 0.0) and anchored.hi == (3.0, 2.0)


def test_window_expand_contains_intersects():
    w = Window((0, 0), (10, 10))
    assert w.expand(2).lo == (-2, -2)
    assert w.contains_window(Window((1, 1), (9, 9)))
    assert not w.contains_window(Window((1, 1), (11, 9)))
    assert w.intersects(Window((9, 9), (12, 12)))
    assert not w.intersects(Window((11, 11), (12, 12)))


def ring_areas(xy: np.ndarray, ptr) -> np.ndarray:
    """Signed area of every ring xy[ptr[i]:ptr[i + 1]] (positive for CCW
    orientation, 0 for an empty ring). The tessellation and grid-field tests
    use it as an oracle; the library itself measures no area."""
    ptr = np.asarray(ptr)
    full = ptr[:-1] < ptr[1:]
    nxt = _ring_next(ptr, len(xy))
    x, y = xy[:, 0], xy[:, 1]
    area = np.zeros(len(ptr) - 1)
    area[full] = 0.5 * np.add.reduceat(x * y[nxt] - x[nxt] * y, ptr[:-1][full])
    return area


def test_polygon_area_orientation():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    assert ring_areas(sq, [0, 4])[0] == pytest.approx(1.0)
    assert ring_areas(sq[::-1], [0, 4])[0] == pytest.approx(-1.0)


def test_clip_rings_to_window():
    sq = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
    xy, ptr = clip_rings_to_window(*ragged([sq, sq]), Window((1, 1), (3, 3)))
    assert ptr.tolist() == [0, 4, 8]
    assert ring_areas(xy, ptr) == pytest.approx([1.0, 1.0])
    xy, ptr = clip_rings_to_window(*ragged([sq, sq]), Window((5, 5), (6, 6)))
    assert ptr.tolist() == [0, 0, 0] and len(xy) == 0


def test_gather_rings_and_ring_areas():
    tri = [[0, 0], [1, 0], [0, 1]]
    sq = [[0, 0], [2, 0], [2, 2], [0, 2]]
    xy, ptr = ragged([tri, [], sq])
    assert ring_areas(xy, ptr).tolist() == [0.5, 0.0, 4.0]
    got_xy, got_ptr = gather_rings(xy, ptr, [2, 1, 0, 2])
    assert got_ptr.tolist() == [0, 4, 4, 7, 11]
    assert got_xy.tolist() == sq + tri + sq


def _grid_ring(draw):
    """Convex ring with integer vertices on the boundary of a square, so
    vertices often lie exactly on a window line."""
    cx, cy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    r = draw(st.integers(1, 4))
    directions = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    chosen = draw(st.lists(st.sampled_from(range(8)), min_size=3, max_size=8, unique=True))
    return [(cx + r * directions[k][0], cy + r * directions[k][1]) for k in sorted(chosen)]


def _round_ring(draw):
    """Strictly convex ring: sorted angles on a circle."""
    floats = st.floats(-5, 5, allow_nan=False)
    cx, cy = draw(floats), draw(floats)
    r = draw(st.floats(0.01, 4))
    angles = np.sort(draw(st.lists(st.floats(0, 2 * np.pi, exclude_max=True),
                                   min_size=3, max_size=9, unique=True)))
    return np.column_stack([cx + r * np.cos(angles), cy + r * np.sin(angles)])


@st.composite
def rings_and_window(draw):
    rings = []
    for kind in draw(st.lists(st.sampled_from(["grid", "round", "empty"]), max_size=12)):
        rings.append([] if kind == "empty"
                     else _grid_ring(draw) if kind == "grid" else _round_ring(draw))
    if draw(st.booleans()):
        lo = (draw(st.integers(-6, 5)), draw(st.integers(-6, 5)))
        sides = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    else:
        lo = (draw(st.floats(-6, 5)), draw(st.floats(-6, 5)))
        sides = (draw(st.floats(0.01, 8)), draw(st.floats(0.01, 8)))
    return rings, Window(lo, (lo[0] + sides[0], lo[1] + sides[1]))


@settings(max_examples=300, deadline=None)
@given(rings_and_window())
def test_clip_rings_matches_the_per_polygon_clipper(case):
    rings, win = case
    xy, ptr = ragged(rings)
    got_xy, got_ptr = clip_rings_to_window(xy, ptr, win)
    want = [clip_polygon_to_window(xy[ptr[i]:ptr[i + 1]], win) for i in range(len(rings))]
    assert np.diff(got_ptr).tolist() == [len(w) for w in want]
    want_xy = np.concatenate([w.reshape(-1, 2) for w in want] + [np.empty((0, 2))])
    assert got_xy.tobytes() == want_xy.tobytes()


def test_clip_rings_edge_cases():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    win = Window((0, 0), (1, 1))
    # a ring on the window's boundary lines is inside; one outside vanishes
    xy, ptr = clip_rings_to_window(*ragged([sq, [], sq + 3, sq + 0.5]), win)
    assert np.diff(ptr).tolist() == [4, 0, 0, 4]
    assert xy[:4].tolist() == sq.tolist()
    assert ring_areas(xy, ptr)[3] == pytest.approx(0.25)
    # a ring touching the window along one side keeps a zero-area part
    xy, ptr = clip_rings_to_window(*ragged([sq + [1, 0]]), win)
    assert len(xy) > 0 and ring_areas(xy, ptr)[0] == 0.0


def edge_normals(poly):
    """(outward unit normals, offsets) of a CCW polygon's nondegenerate edges,
    as poly_box_overlaps takes them."""
    edges = np.roll(poly, -1, axis=0) - poly
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])  # outward for CCW
    lens = np.linalg.norm(normals, axis=1)
    good = lens > 0
    normals = normals[good] / lens[good][:, None]
    offsets = (normals * poly[good]).sum(axis=1)
    return normals, offsets


def poly_box_overlaps(poly, normals, offsets, lo, hi, tol):
    """Reference positive-area convex-polygon/axis-box test by separating
    axes, one polygon and one box at a time; boundary-only contact does not
    count."""
    if poly[:, 0].min() >= hi[0] - tol or poly[:, 0].max() <= lo[0] + tol:
        return False
    if poly[:, 1].min() >= hi[1] - tol or poly[:, 1].max() <= lo[1] + tol:
        return False
    mins = (np.where(normals[:, 0] > 0, lo[0], hi[0]) * normals[:, 0]
            + np.where(normals[:, 1] > 0, lo[1], hi[1]) * normals[:, 1])
    return bool(np.all(mins < offsets - tol))


def assert_kernel_matches_separating_axes(xy, ptr, delta, tol):
    """rings_meet_boxes against poly_box_overlaps for every ring and every
    box of its bbox's index range widened by one box."""
    ids, boxes, want = [], [], []
    for i, (x0, y0, x1, y1) in enumerate(ring_extents(xy, ptr)):
        poly = xy[ptr[i]:ptr[i + 1]]
        normals, offsets = edge_normals(poly)
        for a in range(int(np.floor(x0 / delta)) - 1, int(np.ceil(x1 / delta)) + 2):
            for b in range(int(np.floor(y0 / delta)) - 1, int(np.ceil(y1 / delta)) + 2):
                lo = ((a - 0.5) * delta, (b - 0.5) * delta)
                hi = ((a + 0.5) * delta, (b + 0.5) * delta)
                ids.append(i)
                boxes.append((a, b))
                want.append(poly_box_overlaps(poly, normals, offsets, lo, hi, tol))
    got = rings_meet_boxes(xy, ptr, np.array(ids, int), np.array(boxes, int), delta, tol)
    assert got.tolist() == want
    return sum(want)


@st.composite
def dyadic_cells(draw):
    """Convex cells with vertices on the 1/64 grid, and a dyadic delta.

    The kernel keeps a clipped part wider and taller than tol, the reference
    separates by axes with slack tol; the two can disagree only when a
    contact's depth lies within about tol of the threshold. Dyadic vertices
    and box sides make every contact either an exact touch (depth 0) or at
    least about 1e-5 deep, so the rules must agree on every pair. Hull cells
    come from random grid points; rectangle cells have corners on half
    multiples of delta, so they coincide with a box or share its edges.
    """
    delta = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    rings = []
    for kind in draw(st.lists(st.sampled_from(["hull", "rect"]), min_size=1, max_size=6)):
        if kind == "hull":
            pts = np.array(draw(st.lists(st.tuples(st.integers(-192, 192), st.integers(-192, 192)),
                                         min_size=3, max_size=8, unique=True)), float) / 64
            try:
                hull = ConvexHull(pts)
            except QhullError:
                assume(False)
            rings.append(pts[hull.vertices])
        else:
            a0, b0 = draw(st.integers(-6, 5)), draw(st.integers(-6, 5))
            a1, b1 = a0 + draw(st.integers(1, 4)), b0 + draw(st.integers(1, 4))
            lo, hi = np.array([a0, b0]) * delta / 2, np.array([a1, b1]) * delta / 2
            rings.append(np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]]))
    xy, ptr = ragged(rings)
    return xy, ptr, delta


@settings(max_examples=200, deadline=None)
@given(dyadic_cells())
def test_rings_meet_boxes_matches_separating_axes(case):
    xy, ptr, delta = case
    assert_kernel_matches_separating_axes(xy, ptr, delta, 1e-9)


@pytest.mark.parametrize("build", [
    lambda core: build_voronoi(sample_poisson(1.0, core.expand(4.0), stream(3, 0, "kernel")),
                               core),
    lambda core: build_lattice_tessellation("square", 1.0, (-0.5, -0.5), core),
    lambda core: build_lattice_tessellation("square", 1.0, (0.0, 0.0), core),
    lambda core: build_lattice_tessellation("hexagonal", 1.0, (0.3, 0.1), core),
], ids=["voronoi", "square_on_boxes", "square_on_box_edges", "hexagonal"])
@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_rings_meet_boxes_matches_separating_axes_on_tessellations(build, delta):
    tess = build(Window((-4.0, -4.0), (4.0, 4.0)))
    assert assert_kernel_matches_separating_axes(tess.poly_xy, tess.poly_ptr, delta, tess.tol) > 0


def test_rings_meet_boxes_keeps_only_positive_area():
    sq = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    xy, ptr = ragged([sq])
    # the unit cell is box (0, 0); its edge and corner neighbours touch it only
    boxes = [(0, 0), (1, 0), (1, 1), (0, -1), (2, 0)]
    assert rings_meet_boxes(xy, ptr, [0] * 5, boxes, 1.0, 1e-9).tolist() == [
        True, False, False, False, False]
    # at delta 1/2 the cell shifted by 1/4 is four boxes and shares edges with more
    boxes = [(0, 0), (1, 1), (2, 0), (-1, 0), (2, 2)]
    assert rings_meet_boxes(xy + 0.25, ptr, [0] * 5, boxes, 0.5, 1e-9).tolist() == [
        True, True, False, False, False]
    assert rings_meet_boxes(xy, ptr, [], np.empty((0, 2), int), 1.0, 1e-9).shape == (0,)


def test_point_in_convex_polygon():
    tri = np.array([[0, 0], [2, 0], [0, 2]], float)
    assert point_in_convex_polygon((0.5, 0.5), tri)
    assert not point_in_convex_polygon((2, 2), tri)
    assert point_in_convex_polygon((1, 1), tri, tol=1e-12)  # on the edge


def test_clip_segments_to_rect():
    rect = Window((0, 0), (10, 10))
    a = np.array([[-5, 5], [2, 2], [-1, 1], [0, 11]])
    b = np.array([[15, 5], [4, 2], [1, -1], [10, 11]])
    ok, lengths = clip_segments_to_rect(a, b, rect)
    assert ok.tolist() == [True, True, True, False]
    assert lengths[0] == pytest.approx(10.0)   # spans the rect fully
    assert lengths[1] == pytest.approx(2.0)    # interior segment
    assert lengths[2] == pytest.approx(0.0)    # touches only the corner
    assert lengths[3] == 0.0


def test_clip_segments_touching_boundary():
    rect = Window((0, 0), (1, 1))
    # vertical segment running along the right edge
    ok, lengths = clip_segments_to_rect(np.array([[1.0, -1.0]]), np.array([[1.0, 2.0]]), rect)
    assert ok[0] and lengths[0] == pytest.approx(1.0)
