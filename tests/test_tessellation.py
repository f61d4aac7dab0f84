import hashlib
import json
import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, QhullError, Voronoi

from tessperc import tessellation
from tessperc.errors import ConstructionError, EdgeEffectError, ParameterError
from tessperc.geometry import (Window, clip_rings_to_window, clip_segments_to_rect, gather_rings,
                               point_in_convex_polygon, ring_extents)
from tessperc.percolation import color, label_components, neighbor_csr
from tessperc.point_process import (KINDS, PointConfiguration, ProcessSpec, sample_poisson,
                                    sample_process)
from tessperc.streams import stream
from tessperc.tessellation import (Tessellation, build_adjacency, build_lattice_tessellation,
                                   build_voronoi, zero_cell)
from test_geometry import ring_areas


def grid_points(lo, hi):
    return np.array([[i, j] for i in range(lo, hi + 1) for j in range(lo, hi + 1)], float)


def poisson_tess(seed, core_side=30.0, gamma=1.0, buffer=5.0):
    core = Window((0, 0), (core_side, core_side))
    cfg = sample_poisson(gamma, core.expand(buffer), stream(seed, 0, "tess"))
    return build_voronoi(cfg, core), cfg


def test_unit_grid_voronoi_cells_are_unit_squares():
    pts = grid_points(-7, 7)
    cfg = PointConfiguration(pts, Window((-7.5, -7.5), (7.5, 7.5)))
    tess = build_voronoi(cfg, Window((-4, -4), (4, 4)))
    areas = ring_areas(tess.poly_xy, tess.poly_ptr)
    for k in range(len(tess)):
        if tess.boundary[k]:
            continue
        poly = tess.polygon(k)
        assert areas[k] == pytest.approx(1.0, abs=1e-9)
        lo = poly.min(axis=0)
        hi = poly.max(axis=0)
        assert np.allclose(tess.centers[k], (lo + hi) / 2, atol=1e-9)


def test_triangle_generators_nearest_property():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0]])
    cfg = PointConfiguration(pts, Window((-10, -10), (14, 13)))
    # three generators are the whole process: hull-clipped cells are exact
    tess = build_voronoi(cfg, Window((1, 0.5), (3, 2)), validate_buffer=False)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform([1, 0.5], [3, 2])
        found = tess.locate(x)
        nearest = int(np.argmin(np.linalg.norm(pts - x, axis=1)))
        assert found == nearest


def test_nearest_generator_invariant_poisson():
    tess, cfg = poisson_tess(11, core_side=20.0)
    pts = cfg.points
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.uniform(0, 20, 2)
        d = np.linalg.norm(pts - x, axis=1)
        order = np.argsort(d)
        if d[order[1]] - d[order[0]] < 1e-9:   # boundary tie, redraw
            continue
        assert tess.generators[tess.locate(x)] == order[0]


def test_coverage_and_disjointness():
    tess, _ = poisson_tess(13, core_side=15.0)
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(500):
        x = rng.uniform(0, 15, 2)
        hits = [i for i in tess.cells_meeting(Window(tuple(x - 1e-9), tuple(x + 1e-9)))
                if point_in_convex_polygon(x, tess.polygon(i), tol=-tess.tol)]
        if not hits:
            continue  # x within tolerance of a boundary; strict-interior test skipped it
        assert len(hits) == 1
        checked += 1
    assert checked > 450


def test_translation_covariance():
    core = Window((0, 0), (10, 10))
    cfg = sample_poisson(1.0, core.expand(4), stream(19, 0, "tess"))
    tess = build_voronoi(cfg, core)
    s = np.array([3.25, -1.5])
    def moved(w):
        return Window(tuple(w.lo + s), tuple(w.hi + s))

    shifted = build_voronoi(PointConfiguration(cfg.points + s, moved(cfg.window)), moved(core))
    scale = core.diagonal
    assert len(tess) == len(shifted)
    for i in range(len(tess)):
        a, b = tess.polygon(i), shifted.polygon(i)
        assert len(a) == len(b)
        # same vertex cycle up to rotation of the ring
        diffs = b - s
        k = int(np.argmin(np.linalg.norm(diffs - a[0], axis=1)))
        rolled = np.roll(diffs, -k, axis=0)
        assert np.allclose(rolled, a, atol=1e-9 * scale)


def test_mean_face_degree_is_six():
    core = Window((0, 0), (40, 40))
    cfg = sample_poisson(1.0, core.expand(5), stream(23, 0, "tess"))
    tess = build_voronoi(cfg, core)
    degs = np.diff(neighbor_csr(len(tess), build_adjacency(tess, "face"))[0])[~tess.boundary]
    assert len(degs) >= 1000
    assert abs(np.mean(degs) - 6.0) < 0.1


def test_face_and_star_coincide_in_general_position():
    tess, _ = poisson_tess(29, core_side=15.0)
    assert len(tess.star_pairs) == 0


def test_adjacency_symmetry_and_subset():
    tess, _ = poisson_tess(31, core_side=10.0)
    n = len(tess)
    (fp, face), (sp, star) = (neighbor_csr(n, build_adjacency(tess, mode))
                              for mode in ("face", "star"))
    for v in range(n):
        for w in face[fp[v]:fp[v + 1]]:
            assert v in face[fp[w]:fp[w + 1]]
        assert set(face[fp[v]:fp[v + 1]]) <= set(star[sp[v]:sp[v + 1]])


def test_square_lattice_cells_and_degrees():
    core = Window((0, 0), (5, 5))
    tess = build_lattice_tessellation("square", 1.0, (0, 0), core)
    assert len(tess) == 25
    poly = tess.polygon(tess.locate((2.5, 2.5)))
    assert np.allclose(sorted(map(tuple, poly)), [(2, 2), (2, 3), (3, 2), (3, 3)])
    inner = ~tess.boundary
    for mode, degree in (("face", 4), ("star", 8)):
        ptr, _ = neighbor_csr(len(tess), build_adjacency(tess, mode))
        assert set(np.diff(ptr)[inner]) == {degree}


def test_hexagonal_lattice_degree():
    tess = build_lattice_tessellation("hexagonal", 1.0, (0.05, 0.02), Window((0, 0), (10, 10)))
    ptr, _ = neighbor_csr(len(tess), build_adjacency(tess, "face"))
    inner = ~tess.boundary
    assert inner.sum() > 20
    assert set(np.diff(ptr)[inner]) == {6}
    assert len(tess.star_pairs) == 0


def test_lattice_covers_core():
    tess = build_lattice_tessellation("hexagonal", 1.3, (0.4, 0.7), Window((0, 0), (8, 8)))
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = rng.uniform(0, 8, 2)
        tess.locate(x)  # raises if uncovered


def test_zero_cell_tie_rule_square_lattice():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((-3, -3), (3, 3)))
    zc = zero_cell(tess)
    assert np.allclose(tess.centers[zc], (-0.5, -0.5))


def test_zero_cell_generic_and_shifted():
    tess, cfg = poisson_tess(37, core_side=10.0)
    # origin outside that core window ([0,10]^2 contains it on the corner)
    core = Window((-5, -5), (5, 5))
    cfg2 = sample_poisson(1.0, core.expand(5), stream(37, 1, "tess"))
    t2 = build_voronoi(cfg2, core)
    zc = zero_cell(t2)
    assert t2.generators[zc] == np.argmin(np.linalg.norm(cfg2.points, axis=1))
    shifted = build_lattice_tessellation("square", 1.0, (0.3, 0.3), Window((-2, -2), (2, 2)))
    zc2 = zero_cell(shifted)
    assert np.allclose(shifted.centers[zc2], (-0.2, -0.2))


def test_zero_cell_outside_window_errors():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((2, 2), (5, 5)))
    with pytest.raises(ParameterError):
        zero_cell(tess)


def test_construction_errors():
    with pytest.raises(ConstructionError):
        build_voronoi(PointConfiguration(np.array([[0.0, 0.0], [1.0, 1.0]]),
                                         Window((-1, -1), (2, 2))),
                      Window((-0.5, -0.5), (1.5, 1.5)))
    collinear = PointConfiguration(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                                             [3.0, 0.0]]),
                                   Window((-1, -1), (4, 1)))
    with pytest.raises(ConstructionError):
        build_voronoi(collinear, Window((0, -0.5), (3, 0.5)))


def test_qhull_failure_is_a_construction_error(monkeypatch):
    """build_voronoi reads scipy.spatial.Delaunay when it runs, so a Qhull
    failure on generators that pass the collinearity check still surfaces
    as a ConstructionError."""
    def fail(points):
        raise QhullError("QH6154 initial simplex is flat")

    monkeypatch.setattr("scipy.spatial.Delaunay", fail)
    cfg = PointConfiguration(grid_points(0, 3), Window((-1, -1), (4, 4)))
    with pytest.raises(ConstructionError, match="voronoi construction failed: QH6154"):
        build_voronoi(cfg, Window((0, 0), (3, 3)))


@pytest.mark.parametrize("core", [Window((1, 1), (10.5, 9)), Window((-0.5, 2), (4, 3))])
def test_sampling_window_must_contain_the_core_window(core):
    cfg = sample_poisson(1.0, Window((0, 0), (10, 10)), stream(41, 0, "tess"))
    for build in (build_voronoi, _list_build_voronoi):
        with pytest.raises(ParameterError, match="sampling window must contain the core window"):
            build(cfg, core)


def test_edge_effect_detection():
    # buffer zero: boundary cells meeting the core window touch the hull
    core = Window((0, 0), (10, 10))
    cfg = sample_poisson(1.0, core, stream(41, 0, "tess"))
    with pytest.raises(EdgeEffectError):
        build_voronoi(cfg, core)


def _tessellation_json(tess):
    """The core window, and per cell its center, ring and sorted face and
    star neighbours, as a JSON object."""
    n = len(tess)
    (fp, face), (sp, star) = (neighbor_csr(n, build_adjacency(tess, mode))
                              for mode in ("face", "star"))
    return {
        "core_window": [list(tess.core_window.lo), list(tess.core_window.hi)],
        "cells": [{
            "id": i,
            "center": tess.centers[i].tolist(),
            "polygon": tess.polygon(i).tolist(),
            "neighbors_face": face[fp[i]:fp[i + 1]].tolist(),
            "neighbors_star": star[sp[i]:sp[i + 1]].tolist(),
        } for i in range(n)],
    }


def test_tessellation_json_export():
    tess = build_lattice_tessellation("square", 1.0, (0, 0), Window((0, 0), (3, 3)))
    obj = _tessellation_json(tess)
    assert len(obj["cells"]) == 9
    center_cell = [c for c in obj["cells"] if c["center"] == [1.5, 1.5]][0]
    assert len(center_cell["neighbors_face"]) == 4
    assert len(center_cell["neighbors_star"]) == 8


def _geometry_digest(tess):
    """sha256 of the JSON export plus the star contact points in sorted pair order."""
    h = hashlib.sha256(json.dumps(_tessellation_json(tess)).encode())
    pairs = np.sort(tess.star_pairs, axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    h.update(np.ascontiguousarray(tess.star_points[order], dtype=float).tobytes())
    return h.hexdigest()


def _grid_voronoi():
    cfg = PointConfiguration(grid_points(-7, 7), Window((-7.5, -7.5), (7.5, 7.5)))
    return build_voronoi(cfg, Window((-4, -4), (4, 4)))


@pytest.mark.parametrize("name, build, digest", [
    # the Voronoi digests are those of the builds that kept every buffer cell
    # (d5f8954f… and 437806aa…), restricted to the cells that meet the core
    ("poisson_voronoi", lambda: poisson_tess(43, core_side=8.0)[0],
     "e06cddea2f7acdfba5bd2fcdd549eab4370765009ed62fed2ff9c64a6ba4e0de"),
    ("grid_voronoi", _grid_voronoi,
     "5c5f5e83573d0996468226fa75c98ecb025b4bf7e8fc8138a7f4627f3524e990"),
    # star points are ring corners x0 + s, up to 2.2e-16 from the grid points
    # shift + (i + 1) s of the per-kind builders (digest 68db0a82…)
    ("shifted_square", lambda: build_lattice_tessellation(
        "square", 1.0, (0.3, 0.7), Window((-3, -3), (4, 3))),
     "7d77a53240104554b21cdbc882f10358dee6188f047af142a399ef08a5231bdd"),
    ("shifted_hexagonal", lambda: build_lattice_tessellation(
        "hexagonal", 1.0, (0.05, 0.02), Window((-3, -3), (4, 4))),
     "b36f94f39782d0d7fa621ad8fe26e483b14feac7cd2f93f34e6732530e13113d"),
], ids=["poisson_voronoi", "grid_voronoi", "shifted_square", "shifted_hexagonal"])
def test_geometry_digest(name, build, digest):
    assert _geometry_digest(build()) == digest


# Reference: the corner-contact search over every (vertex, cell) incidence,
# as build_voronoi ran it before it searched only the vertices that can carry
# a corner contact. It reads the same Voronoi vertices as build_voronoi.

def _ref_star_contacts(points, sampling, tol, kept):
    """The reference's star pairs between the generators kept, as ids into
    kept, and their points."""
    n = len(points)
    tri = Delaunay(np.vstack([points, tessellation._mirror_ring(sampling)]))
    vertices, group = tessellation._voronoi_vertices(tri, tol)
    keys = np.unique(tri.simplices.ravel() * len(vertices) + np.repeat(group, 3))
    owner, cat = np.divmod(keys[keys < n * len(vertices)], len(vertices))
    t, u = np.repeat(np.arange(len(vertices)), 3), tri.neighbors.ravel()
    ends = np.column_stack([tri.simplices[:, [1, 2, 0]].ravel(),
                            tri.simplices[:, [2, 0, 1]].ravel()])
    ridge = np.nonzero((ends < n).all(axis=1) & (u > t))[0]
    ridge = ridge[group[t[ridge]] != group[u[ridge]]]
    pairs = ends[ridge]
    seg_a, seg_b = vertices[group[t[ridge]]], vertices[group[u[ridge]]]
    ok, seg_len = clip_segments_to_rect(seg_a, seg_b, sampling)
    face_mask = ok & (seg_len > tol)
    contact_mask = ok & ~face_mask

    _, first = np.unique(cat, return_index=True)
    rank = np.empty(len(vertices), int)
    rank[cat[first]] = first
    order = np.lexsort((owner, rank[cat]))
    r_inc, c_inc = rank[cat[order]], owner[order]
    cand = [np.empty((0, 3), int)]
    for d in range(1, int(np.bincount(r_inc).max())):
        same = r_inc[:-d] == r_inc[d:]
        cand.append(np.column_stack([r_inc[:-d], c_inc[:-d], c_inc[d:]])[same])
    cand = np.concatenate(cand)
    cand = cand[np.lexsort(cand.T[::-1])]
    vertex = vertices[cat[cand[:, 0]]]
    face_keys = np.sort(pairs[face_mask], axis=1) @ [n, 1]
    corner = (sampling.expand(tol).contains_points(vertex)
              & ~np.isin(cand[:, 1:] @ [n, 1], face_keys))

    star_all = np.concatenate([np.sort(pairs[contact_mask], axis=1), cand[corner, 1:]])
    points_all = np.concatenate([(seg_a[contact_mask] + seg_b[contact_mask]) / 2.0,
                                 vertex[corner]])
    _, first = np.unique(star_all @ [n, 1], return_index=True)
    pairs, points = star_all[first], points_all[first]
    both = np.isin(pairs, kept).all(axis=1)
    return np.searchsorted(kept, pairs[both]), points[both]


_GRIDS = {
    "integer": np.eye(2),
    "sheared": np.array([[1.0, 0.0], [0.5, 1.0]]),
    "rotated": np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]]),
    "perturbed": np.eye(2),
}


@st.composite
def _star_cases(draw):
    """(configuration, core window, validate_buffer). Grids get sampling
    window sides on a generator row, a vertex row or between, and core
    sides on vertex or generator rows; Poisson configurations get buffers
    from 0.5 to 5."""
    validate = draw(st.booleans())
    kind = draw(st.sampled_from(sorted(_GRIDS) + ["poisson"]))
    if kind == "poisson":
        side, buffer = draw(st.sampled_from([4.0, 8.0])), draw(st.sampled_from([0.5, 2.0, 5.0]))
        core = Window((0.0, 0.0), (side, side))
        rng = stream(draw(st.integers(0, 10_000)), 0, "tess")
        return sample_poisson(1.0, core.expand(buffer), rng), core, validate
    m = draw(st.integers(3, 6))
    pts = grid_points(-m, m) @ _GRIDS[kind]
    if kind == "perturbed":
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        pts = pts + rng.uniform(-1e-12, 1e-12, pts.shape)
    pad = [draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for _ in range(4)]
    lo, hi = pts.min(axis=0) - pad[:2], pts.max(axis=0) + pad[2:]
    inset = [draw(st.sampled_from([1.0, 1.5, 2.0])) for _ in range(4)]
    core = Window((-m + inset[0], -m + inset[1]), (m - inset[2], m - inset[3]))
    return PointConfiguration(pts, Window(tuple(lo), tuple(hi))), core, validate


@settings(max_examples=80, deadline=None)
@given(_star_cases())
def test_star_contacts_match_the_all_vertex_reference(case):
    cfg, core, validate = case
    try:
        tess = build_voronoi(cfg, core, validate_buffer=validate)
    except EdgeEffectError:  # the contacts do not depend on the validation
        tess = build_voronoi(cfg, core, validate_buffer=False)
    pairs, points = _ref_star_contacts(cfg.points, cfg.window, tess.tol, tess.generators)
    assert tess.star_pairs.dtype == pairs.dtype and tess.star_pairs.tobytes() == pairs.tobytes()
    assert tess.star_points.tobytes() == points.tobytes()


def _vertex_just_outside_case():
    # the generators' circumcenter (0, 0.75) lies 1e-12 above the window,
    # within tolerance; the ridge of generators 0 and 1 runs outward from it,
    # so those two cells touch the window only at that vertex
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -0.5]])
    cfg = PointConfiguration(pts, Window((-1.0, -0.5), (1.0, 0.75 - 1e-12)))
    return cfg, Window((-0.5, -0.25), (0.5, 0.25)), False


def test_corner_contact_at_a_vertex_just_outside_the_sampling_window():
    cfg, core, validate = _vertex_just_outside_case()
    tess = build_voronoi(cfg, core, validate_buffer=validate)
    assert tess.star_pairs.tolist() == [[0, 1]]
    assert tess.star_points == pytest.approx(np.array([[0.0, 0.75]]), abs=1e-12)
    pairs, points = _ref_star_contacts(cfg.points, cfg.window, tess.tol, tess.generators)
    assert tess.star_pairs.tobytes() == pairs.tobytes()
    assert tess.star_points.tobytes() == points.tobytes()


def test_repeated_generator_is_a_degenerate_region():
    # Qhull leaves a repeated point out of every triangle, so its cell has no
    # vertex. The list-based reference instead gave it a copy of its twin's
    # cell, with no face neighbour: two cells overlapped.
    pts = np.vstack([grid_points(-3, 3) + [0.3, 0.1], [[0.3, 0.1]]])
    cfg = PointConfiguration(pts, Window((-3.5, -3.5), (3.5, 3.5)))
    core = Window((-2, -2), (2, 2))
    with pytest.raises(ConstructionError, match="generator 49 has an unbounded or degenerate"):
        build_voronoi(cfg, core, validate_buffer=False)
    ref = _list_build_voronoi(cfg, core, validate_buffer=False)
    assert np.array_equal(ref.polygon(49), ref.polygon(24))
    assert 49 not in ref.face_pairs


# kind -> (a1, a2, the sites of one unit cell, ring length and star degree of
# an interior cell): Voronoi cells of kagome points are rhombi, and of
# honeycomb points triangles; nearest sites are 1 apart.
_LAVES_POINTS = {
    "kagome": ((2.0, 0.0), (1.0, math.sqrt(3.0)),
               [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2)], 4, 10),
    "honeycomb": ((math.sqrt(3.0), 0.0), (math.sqrt(3.0) / 2, 1.5),
                  [(0.0, 0.0), (0.0, 1.0)], 3, 12),
}


@pytest.mark.parametrize("kind", sorted(_LAVES_POINTS))
@pytest.mark.parametrize("degrees", [0, 30, 90])
def test_rings_of_lattice_point_voronoi_cells_do_not_interleave(kind, degrees):
    """The ring sort keeps each cell's vertices together when a vertex sits
    on its generator's +x axis, where rounding can put the angle key a few
    ULP under 4. The points are listed one sublattice after another, so
    consecutive ids have vertices on that axis."""
    a1, a2, sites, ring_length, star_degree = _LAVES_POINTS[kind]
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    ab = np.array([(a, b) for a in range(-20, 21) for b in range(-20, 21)], float)
    cells = ab @ np.array([a1, a2])
    points = np.concatenate([cells + site for site in sites]) @ np.array([[c, s], [-s, c]])
    core = Window((-8, -8), (8, 8))
    sampling = core.expand(5)
    for shift in np.random.default_rng(degrees).random((4, 2)):
        pts = points + shift
        tess = build_voronoi(PointConfiguration(pts[sampling.contains_points(pts)], sampling),
                             core, validate_buffer=False)
        inner = ~tess.boundary
        degree = np.bincount(build_adjacency(tess, "star").ravel(), minlength=len(tess))
        assert (tess.star_pairs[:, 0] != tess.star_pairs[:, 1]).all()
        assert (np.diff(tess.poly_ptr)[inner] == ring_length).all()
        assert (degree[inner] == star_degree).all()


# Reference: build_voronoi as it was built on scipy.spatial.Voronoi, reading
# Qhull's regions and ridges as Python lists.

def _list_build_voronoi(points, core_window, validate_buffer=True):
    pts = points.points
    n = len(pts)
    if n < 3:
        raise ConstructionError("voronoi construction needs at least 3 generators")
    sampling = points.window
    if not sampling.contains_window(core_window, tol=1e-9):
        raise ParameterError("sampling window must contain the core window")
    tol = tessellation.TOL_SCALE * core_window.diagonal

    d0 = pts - pts[0]
    far = int(np.argmax((d0 ** 2).sum(axis=1)))
    cross = np.abs(d0[:, 0] * d0[far, 1] - d0[:, 1] * d0[far, 0])
    if cross.max() <= tol * sampling.diagonal ** 2:
        raise ConstructionError("generators are collinear")

    try:
        vor = Voronoi(np.vstack([pts, tessellation._mirror_ring(sampling)]))
    except QhullError as exc:
        raise ConstructionError(f"voronoi construction failed: {exc}") from exc

    # merge the Voronoi vertices joined by a ridge no longer than tol, as
    # build_voronoi merges cocircular triangles: Qhull can leave such a pair
    # about 1e-12 apart on a jittered grid. Each vertex becomes the smallest
    # id of its group, and a ring keeps a merged vertex once.
    ridge_v = np.array(vor.ridge_vertices)
    short = (ridge_v >= 0).all(axis=1) & (np.linalg.norm(
        vor.vertices[ridge_v[:, 0]] - vor.vertices[ridge_v[:, 1]], axis=1) <= tol)
    group = label_components(np.ones(len(vor.vertices), bool), ridge_v[short])
    ridge_v = np.where(ridge_v >= 0, group[ridge_v], -1)

    # regions of the real generators, concatenated: cell owner[k] has vertex cat[k]
    regions = [list(dict.fromkeys(group[v] if v >= 0 else -1 for v in vor.regions[r]))
               for r in vor.point_region[:n]]
    lengths = np.fromiter(map(len, regions), int, count=n)
    cat = np.fromiter(chain.from_iterable(regions), int, count=int(lengths.sum()))
    owner = np.repeat(np.arange(n), lengths)
    bad = (lengths < 3) | (np.bincount(owner[cat < 0], minlength=n) > 0)
    if bad.any():
        raise ConstructionError(
            f"generator {int(np.argmax(bad))} has an unbounded or degenerate region")
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    starts = ptr[:-1]

    # orient every ring CCW by reversing the clockwise ones
    k = np.arange(len(cat))
    clockwise = ring_areas(vor.vertices[cat], ptr) < 0
    ring = np.where(clockwise[owner], starts[owner] + ptr[1:][owner] - 1 - k, k)
    poly_xy = vor.vertices[cat[ring]]

    # clip the cells that come within tol of the sampling window's boundary
    near_hull = ((poly_xy <= np.add(sampling.lo, tol))
                 | (poly_xy >= np.subtract(sampling.hi, tol))).any(axis=1)
    clipped = np.nonzero(np.logical_or.reduceat(near_hull, starts))[0]
    if len(clipped):
        cut_xy, cut_ptr = clip_rings_to_window(*gather_rings(poly_xy, ptr, clipped), sampling)
        short = np.diff(cut_ptr) < 3
        if short.any():
            raise ConstructionError(
                f"cell of generator {int(clipped[np.argmax(short)])} degenerated under clipping")
        ids = np.arange(n)
        ids[clipped] = n + np.arange(len(clipped))
        poly_xy, ptr = gather_rings(np.concatenate([poly_xy, cut_xy]),
                                    np.concatenate([ptr, ptr[-1] + cut_ptr[1:]]), ids)

    ridge_pts = vor.ridge_points
    real = (ridge_pts[:, 0] < n) & (ridge_pts[:, 1] < n)
    if (ridge_v[real] < 0).any():
        raise ConstructionError("unbounded ridge between real generators")
    real &= ridge_v[:, 0] != ridge_v[:, 1]
    pairs, ridge_v = ridge_pts[real].astype(int), ridge_v[real]
    seg_a = vor.vertices[ridge_v[:, 0]]
    seg_b = vor.vertices[ridge_v[:, 1]]
    ok, seg_len = clip_segments_to_rect(seg_a, seg_b, sampling)
    face_mask = ok & (seg_len > tol)
    contact_mask = ok & ~face_mask
    face_pairs = pairs[face_mask]

    # corner-only contacts: every pair of real cells at a Voronoi vertex
    # inside the sampling window that is not a face pair
    pairs_at = {}
    for cell, region in enumerate(regions):
        for v in region:
            pairs_at.setdefault(v, []).append(cell)
    faces = {tuple(sorted(p)) for p in face_pairs.tolist()}
    corner = {}
    inside = sampling.expand(tol).contains_points(vor.vertices)
    for v in sorted(pairs_at):
        if inside[v]:
            for pair in combinations(sorted(pairs_at[v]), 2):
                if pair not in faces:
                    corner.setdefault(pair, vor.vertices[v])

    star = {}
    for pair, a, b in zip(np.sort(pairs[contact_mask], axis=1).tolist(),
                          seg_a[contact_mask], seg_b[contact_mask]):
        star.setdefault(tuple(pair), (a + b) / 2.0)
    for pair, point in corner.items():
        star.setdefault(pair, point)
    star_pairs = sorted(star)

    tess = Tessellation(
        centers=pts, generators=np.arange(n), poly_xy=poly_xy, poly_ptr=ptr,
        core_window=core_window, face_pairs=face_pairs,
        face_segments=np.stack([seg_a, seg_b], axis=1)[face_mask],
        star_pairs=np.array(star_pairs, int).reshape(-1, 2),
        star_points=np.array([star[p] for p in star_pairs], float).reshape(-1, 2),
        tol=tol, bboxes=ring_extents(poly_xy, ptr))
    if validate_buffer:
        hit = np.isin(clipped, tess.cells_meeting(core_window))
        if hit.any():
            raise EdgeEffectError(
                f"cell {int(clipped[np.argmax(hit)])} meets the core window but touches "
                "the sampling hull; increase the buffer")
    return tess


def _restricted(tess, keep):
    """tess with only the cells of the mask keep, renumbered in order."""
    ids = np.cumsum(keep) - 1
    xy, ptr = gather_rings(tess.poly_xy, tess.poly_ptr, np.nonzero(keep)[0])
    face, star = keep[tess.face_pairs].all(axis=1), keep[tess.star_pairs].all(axis=1)
    return Tessellation(
        centers=tess.centers[keep], generators=tess.generators[keep], poly_xy=xy, poly_ptr=ptr,
        core_window=tess.core_window, face_pairs=ids[tess.face_pairs[face]],
        face_segments=tess.face_segments[face], star_pairs=ids[tess.star_pairs[star]],
        star_points=tess.star_points[star], tol=tess.tol, bboxes=tess.bboxes[keep])


def _core_list_build_voronoi(points, core_window, validate_buffer=True):
    """The list-based reference's cells that meet the core window, in generator order."""
    tess = _list_build_voronoi(points, core_window, validate_buffer)
    return _restricted(tess, np.isin(np.arange(len(tess)), tess.cells_meeting(core_window)))


def test_buffer_cells_no_longer_join_boundary_touching_clusters():
    """ggr and the trifurcation count label black clusters over a build's
    cells and read those that touch the core boundary. When a build kept
    every buffer cell, the three such clusters of this instance at p = 0.55
    were one, joined through black cells that miss the core window."""
    core = Window((-4, -4), (4, 4))
    cfg = sample_poisson(1.0, core.expand(3), stream(1, 0, "tess"))
    tess, full = build_voronoi(cfg, core), _list_build_voronoi(cfg, core)
    assert _pair_set(tess.face_pairs) == _pair_set(_core_list_build_voronoi(cfg, core).face_pairs)
    black = color(full, stream(1, 0, "color")) < 0.55
    assert np.array_equal(black[tess.generators], color(tess, stream(1, 0, "color")) < 0.55)
    touching = black[tess.generators] & tess.boundary
    joined = label_components(black, full.face_pairs)[tess.generators]
    apart = label_components(black[tess.generators], tess.face_pairs)
    assert (len(set(joined[touching])), len(set(apart[touching]))) == (1, 3)


# parameters of every planar process kind, and the exact lattice
_KIND_CASES = {
    "poisson": ("poisson", {"gamma": 1.0}),
    "matern_cluster": ("matern_cluster", {"gamma0": 0.3, "mu": 4.0, "radius": 0.6}),
    "thomas_cluster": ("thomas_cluster", {"gamma0": 0.3, "mu": 4.0, "sigma": 0.4}),
    "matern_hardcore_II": ("matern_hardcore_II",
                           {"gamma_proposal": 2.0, "hardcore_radius": 0.4}),
    "perturbed_lattice": ("perturbed_lattice", {"spacing": 1.0, "perturbation_scale": 0.5}),
    "exact_lattice": ("perturbed_lattice", {"spacing": 1.0, "perturbation_scale": 0.0}),
}


def test_kind_cases_cover_every_planar_kind():
    assert {kind for kind, _ in _KIND_CASES.values()} == {
        name for name, kind in KINDS.items() if kind.sample is not None}


@st.composite
def _kind_cases(draw):
    """(configuration, core window, validate_buffer) of a process kind, on
    core sides 4 or 8 at offsets 0, 0.25 or 0.5, with buffers from 0.5 to 5."""
    kind, params = _KIND_CASES[draw(st.sampled_from(sorted(_KIND_CASES)))]
    side, buffer = draw(st.sampled_from([4.0, 8.0])), draw(st.sampled_from([0.5, 2.0, 5.0]))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    core = Window((offset, offset), (offset + side, offset + side))
    rng = stream(draw(st.integers(0, 10_000)), 0, "tess")
    cfg = sample_process(ProcessSpec(kind, params), core.expand(buffer), rng)
    return cfg, core, draw(st.booleans())


def _build_or_error(build, cfg, core, validate):
    try:
        return build(cfg, core, validate_buffer=validate)
    except (ConstructionError, EdgeEffectError) as exc:
        return type(exc)


def _clipped(tess, sampling):
    """Cells with a ring vertex within tol of the sampling window's boundary."""
    bb, lo, hi = tess.bboxes, sampling.lo, sampling.hi
    return np.nonzero((bb[:, :2] <= np.add(lo, tess.tol)).any(axis=1)
                      | (bb[:, 2:] >= np.subtract(hi, tess.tol)).any(axis=1))[0]


def _pair_set(pairs):
    return {tuple(sorted(p)) for p in pairs.tolist()}


def _assert_same_cells(tess, ref):
    """Equal face and star pair sets and ring lengths, and rings that agree
    within tess.tol once each is rotated to a common start."""
    assert _pair_set(tess.face_pairs) == _pair_set(ref.face_pairs)
    assert _pair_set(tess.star_pairs) == _pair_set(ref.star_pairs)
    assert np.array_equal(np.diff(tess.poly_ptr), np.diff(ref.poly_ptr))
    for i in range(len(tess)):
        ring, ref_ring = tess.polygon(i), ref.polygon(i)
        start = int(np.argmin(np.abs(ref_ring - ring[0]).max(axis=1)))
        assert np.abs(np.roll(ref_ring, -start, axis=0) - ring).max() <= tess.tol


def _jittered_grid_case():
    # a 7×7 grid jittered by ±1e-12 on which Qhull's Voronoi output keeps
    # two vertices of one four-cell vertex about 3.6e-12 apart, joined by a
    # ridge between real generators; build_voronoi merges them at tol
    pts = grid_points(-3, 3) + np.random.default_rng(44).uniform(-1e-12, 1e-12, (49, 2))
    cfg = PointConfiguration(pts, Window(tuple(pts.min(axis=0)), tuple(pts.max(axis=0))))
    return cfg, Window((-2.0, -2.0), (2.0, 2.0)), False


def test_jittered_grid_case_has_a_ridge_shorter_than_tol():
    cfg, core, _ = _jittered_grid_case()
    n, tol = len(cfg.points), tessellation.TOL_SCALE * core.diagonal
    vor = Voronoi(np.vstack([cfg.points, tessellation._mirror_ring(cfg.window)]))
    ends = np.array(vor.ridge_vertices)
    real = (vor.ridge_points < n).all(axis=1) & (ends >= 0).all(axis=1)
    seg = vor.vertices[ends[real]]
    length = np.linalg.norm(seg[:, 0] - seg[:, 1], axis=1)
    assert ((length > 0) & (length <= tol)).any()


@settings(max_examples=80, deadline=None)
@given(st.one_of(_star_cases(), _kind_cases(), st.just(_vertex_just_outside_case())))
@example(_jittered_grid_case())
def test_build_matches_the_list_based_reference(case):
    """The build keeps the reference's cells that meet the core window, with
    the same rings, face pairs and star pairs."""
    cfg, core, validate = case
    tess = _build_or_error(build_voronoi, cfg, core, validate)
    ref = _build_or_error(_core_list_build_voronoi, cfg, core, validate)
    if tess is EdgeEffectError and ref is EdgeEffectError:  # compare the geometry anyway
        tess, ref = (_build_or_error(build, cfg, core, False)
                     for build in (build_voronoi, _core_list_build_voronoi))
    if isinstance(tess, type) or isinstance(ref, type):
        assert tess is ref
        return
    assert np.array_equal(tess.generators, ref.generators)
    _assert_same_cells(tess, ref)
    assert np.array_equal(_clipped(tess, cfg.window), _clipped(ref, cfg.window))


def _sixteen_point_ring(sampling):
    """The mirror ring build_voronoi used before its three far points: 16
    points evenly spaced on the circle of radius _MIRROR_RADIUS_FACTOR ×
    diagonal around the sampling window."""
    ang = 2 * np.pi * np.arange(16) / 16
    radius = tessellation._MIRROR_RADIUS_FACTOR * sampling.diagonal
    return sampling.center + radius * np.column_stack([np.cos(ang), np.sin(ang)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(_kind_cases(), _star_cases()))
def test_three_far_points_build_what_a_sixteen_point_ring_builds(case):
    cfg, core, validate = case
    tess = _build_or_error(build_voronoi, cfg, core, validate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tessellation, "_mirror_ring", _sixteen_point_ring)
        ref = _build_or_error(build_voronoi, cfg, core, validate)
    if isinstance(tess, type) or isinstance(ref, type):
        assert tess is ref
        return
    assert np.array_equal(tess.poly_ptr, ref.poly_ptr)
    _assert_same_cells(tess, ref)


@st.composite
def _three_generator_cases(draw):
    """Three generators that are the whole process, in a window of aspect
    ratio 1/3 to 4, built with validate_buffer=False."""
    w, h = draw(st.sampled_from([1.0, 2.0, 4.0])), draw(st.sampled_from([1.0, 3.0]))
    window = Window((0.0, 0.0), (w, h))
    pts = np.random.default_rng(draw(st.integers(0, 10_000))).uniform((0, 0), (w, h), (3, 2))
    return PointConfiguration(pts, window), window, False


@settings(max_examples=60, deadline=None)
@given(st.one_of(_star_cases(), _three_generator_cases()))
def test_kept_cells_cover_the_core_window(case):
    cfg, core, _ = case
    tess = build_voronoi(cfg, core, validate_buffer=False)
    sampling = cfg.window
    # the kept rings, clipped to the core window, tile it; vertex merging at
    # tol and rounding move the total by far less than 1e-9 of its area
    assert (ring_areas(tess.poly_xy, tess.poly_ptr) > 0).all()
    areas = ring_areas(*clip_rings_to_window(tess.poly_xy, tess.poly_ptr, core))
    assert abs(areas.sum() - core.area) <= 1e-9 * core.area
    # no far point is within 3.5 diagonals of the window, and the triangle
    # of far points holds the window
    mirror = tessellation._mirror_ring(sampling)
    corners = np.array([sampling.lo, (sampling.hi[0], sampling.lo[1]),
                        sampling.hi, (sampling.lo[0], sampling.hi[1])])
    dist = np.linalg.norm(mirror[:, None] - corners[None], axis=2)
    assert len(mirror) == 3 and dist.min() >= 3.5 * sampling.diagonal
    assert all(point_in_convex_polygon(c, mirror) for c in corners)


# Reference: build_lattice_tessellation as it was before one table of unit
# cells drove it, one builder per kind. The square builder took an exact
# index range from floor and ceil; the hexagonal one took a generous range,
# kept the hexagons inside the closed core whole and clipped the others,
# keeping a part of area above tol × spacing.

def _ref_lattice(centers, polys, core, tol, face_pairs, face_segments,
                 star_pairs=None, star_points=None):
    n, k = polys.shape[:2]
    poly_xy = polys.reshape(-1, 2)
    return Tessellation(
        centers=centers, generators=np.arange(n), poly_xy=poly_xy, poly_ptr=np.arange(n + 1) * k,
        core_window=core, face_pairs=face_pairs.reshape(-1, 2),
        face_segments=face_segments.reshape(-1, 2, 2),
        star_pairs=np.empty((0, 2), int) if star_pairs is None else star_pairs.reshape(-1, 2),
        star_points=np.empty((0, 2)) if star_points is None else star_points.reshape(-1, 2),
        tol=tol, bboxes=ring_extents(poly_xy, np.arange(n + 1) * k))


def _ref_square_lattice(s, shift, core, tol):
    i0 = math.floor((core.lo[0] - shift[0]) / s)
    i1 = math.ceil((core.hi[0] - shift[0]) / s) - 1
    j0 = math.floor((core.lo[1] - shift[1]) / s)
    j1 = math.ceil((core.hi[1] - shift[1]) / s) - 1
    X = shift[0] + np.arange(i0, i1 + 2) * s
    Y = shift[1] + np.arange(j0, j1 + 2) * s
    G = np.stack(np.meshgrid(X, Y, indexing="ij"), axis=-1)
    ni, nj = len(X) - 1, len(Y) - 1
    ids = np.arange(ni * nj).reshape(ni, nj)
    x0, y0 = G[:-1, :-1].reshape(-1, 2).T
    polys = np.stack([np.column_stack([x0, y0]), np.column_stack([x0 + s, y0]),
                      np.column_stack([x0 + s, y0 + s]), np.column_stack([x0, y0 + s])], axis=1)
    centers = np.column_stack([x0 + s / 2, y0 + s / 2])
    face_pairs = np.concatenate([
        np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])])
    face_segments = np.concatenate([
        np.stack([G[1:-1, :-1], G[1:-1, 1:]], axis=2).reshape(-1, 2, 2),
        np.stack([G[:-1, 1:-1], G[1:, 1:-1]], axis=2).reshape(-1, 2, 2)])
    star_pairs = np.concatenate([
        np.column_stack([ids[:-1, :-1].ravel(), ids[1:, 1:].ravel()]),
        np.column_stack([ids[:-1, 1:].ravel(), ids[1:, :-1].ravel()])])
    corners = G[1:-1, 1:-1].reshape(-1, 2)
    return _ref_lattice(centers, polys, core, tol, face_pairs, face_segments,
                        star_pairs, np.concatenate([corners, corners]))


_REF_HEX_NEIGHBOR_STEPS = (((1, 0), 5), ((0, 1), 0), ((-1, 1), 1))


def _ref_hex_lattice(s, shift, core, tol):
    r_circ = s / math.sqrt(3.0)
    angles = np.deg2rad(np.arange(30, 390, 60))
    hexagon = r_circ * np.column_stack([np.cos(angles), np.sin(angles)])
    u = np.array([s, 0.0])
    v = np.array([s / 2.0, s * math.sqrt(3.0) / 2.0])
    corners = np.array([core.lo, (core.lo[0], core.hi[1]), (core.hi[0], core.lo[1]), core.hi])
    ab = (corners - shift) @ np.linalg.inv(np.column_stack([u, v])).T
    a_min, b_min = np.floor(ab.min(axis=0)).astype(int) - 2
    a_max, b_max = np.ceil(ab.max(axis=0)).astype(int) + 2
    a, b = np.meshgrid(np.arange(a_min, a_max + 1), np.arange(b_min, b_max + 1), indexing="ij")
    a, b = a.ravel(), b.ravel()
    c = shift + a[:, None] * u + b[:, None] * v
    lo, hi = np.asarray(core.lo), np.asarray(core.hi)
    near = np.all((lo - r_circ < c) & (c < hi + r_circ), axis=1)
    a, b, c = a[near], b[near], c[near]
    polys = hexagon + c[:, None, :]
    keep = np.all((lo <= polys) & (polys <= hi), axis=(1, 2))
    edge = np.nonzero(~keep)[0]
    part_xy, part_ptr = clip_rings_to_window(polys[edge].reshape(-1, 2),
                                             np.arange(len(edge) + 1) * 6, core)
    keep[edge] = (np.diff(part_ptr) >= 3) & (ring_areas(part_xy, part_ptr) > tol * s)
    a, b, c, polys = a[keep], b[keep], c[keep], polys[keep]
    index = np.full((a_max - a_min + 2, b_max - b_min + 2), -1)
    index[a - a_min, b - b_min] = np.arange(len(a))
    face_pairs, face_segments = [], []
    for (da, db), edge in _REF_HEX_NEIGHBOR_STEPS:
        other = index[a - a_min + da, b - b_min + db]
        has = other >= 0
        face_pairs.append(np.column_stack([np.nonzero(has)[0], other[has]]))
        face_segments.append(polys[has][:, [edge, (edge + 1) % 6]])
    return _ref_lattice(c, polys, core, tol, np.concatenate(face_pairs),
                        np.concatenate(face_segments))


_REF_LATTICES = {"square": _ref_square_lattice, "hexagonal": _ref_hex_lattice}


def _without_near_ties(tess, spacing):
    """tess without the cells whose part inside the core window is no wider
    or no taller than tol, or of area at most 2 tol × spacing, renumbered in
    order. The builder keeps a cell whose ring overlaps the core by more
    than tol along every separating axis; the reference square builder kept
    whatever its index range held, and the hexagonal one a part of area
    above tol × spacing. Only such cells can tell the rules apart."""
    part_xy, part_ptr = clip_rings_to_window(tess.poly_xy, tess.poly_ptr, tess.core_window)
    ext, tol = ring_extents(part_xy, part_ptr), tess.tol
    tie = ((ext[:, 2] - ext[:, 0] <= tol) | (ext[:, 3] - ext[:, 1] <= tol)
           | (ring_areas(part_xy, part_ptr) <= 2 * tol * spacing))
    return _restricted(tess, ~tie) if tie.any() else tess


@st.composite
def _lattice_cases(draw):
    """(kind, spacing, shift, core window): spacings 0.1 to 2, a zero or a
    random shift, and window corners with 0 to 2 decimals."""
    kind = draw(st.sampled_from(sorted(_REF_LATTICES)))
    spacing = draw(st.sampled_from([0.1, 0.7, 1.0, 1.3, 2.0]))
    shift = (0.0, 0.0)
    if draw(st.booleans()):
        shift = tuple(np.random.default_rng(draw(st.integers(0, 10_000))).random(2) * spacing)
    scale = 10 ** draw(st.integers(0, 2))
    lo = [draw(st.integers(-5 * scale, 5 * scale)) for _ in range(2)]
    hi = [k + draw(st.integers(1, 8 * scale)) for k in lo]
    return kind, spacing, shift, Window((lo[0] / scale, lo[1] / scale), (hi[0] / scale, hi[1] / scale))


@settings(max_examples=150, deadline=None)
@given(_lattice_cases())
@example(("square", 0.1, (0.0, 0.0), Window((0.3, 0.3), (0.5, 0.5))))
@example(("hexagonal", 0.1, (0.08552803087512423, 0.07112645952610148),
          Window((-2.5, -4.9), (4.5, 0.09999999999999964))))
def test_lattice_matches_the_two_builder_reference(case):
    kind, spacing, shift, core = case
    got = build_lattice_tessellation(kind, spacing, shift, core)
    ref = _REF_LATTICES[kind](spacing, np.asarray(shift, float), core,
                              tessellation.TOL_SCALE * core.diagonal)
    got, ref = _without_near_ties(got, spacing), _without_near_ties(ref, spacing)
    for name in ("centers", "poly_xy", "poly_ptr", "face_pairs", "star_pairs", "bboxes",
                 "boundary"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.tol == ref.tol
    # a square's shared ends are its ring corners x0 + s; the reference's were
    # the grid points shift + (i + 1) s, a few roundings away
    ulp = 0.0 if kind == "hexagonal" else 3 * np.spacing(np.abs(ref.poly_xy).max() + spacing)
    for name in ("face_segments", "star_points"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and (np.abs(a - b) <= ulp).all(), name


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
@pytest.mark.parametrize("core", [Window((0, 0), (1e-12, 1)), Window((0, 0), (1, 1e-12))])
def test_lattice_on_a_window_thinner_than_tol_is_a_construction_error(kind, core):
    """No cell meets such a window in more than tol, so none is kept."""
    with pytest.raises(ConstructionError, match="no lattice cell"):
        build_lattice_tessellation(kind, 1.0, (0.0, 0.0), core)


def test_square_lattice_keeps_no_sliver_of_a_rounded_index_range():
    """0.3 / 0.1 rounds to 2.9999999999999996, so the reference's index
    range floor((lo - shift) / s) took in a column and a row of cells that
    meet [0.3, 0.5]^2 in a sliver 5.6e-17 wide. The builder keeps the four
    cells inside."""
    core = Window((0.3, 0.3), (0.5, 0.5))
    tess = build_lattice_tessellation("square", 0.1, (0.0, 0.0), core)
    ref = _ref_square_lattice(0.1, np.zeros(2), core, tess.tol)
    assert (len(tess), len(ref)) == (4, 9)
    assert np.array_equal(tess.centers, ref.centers[[4, 5, 7, 8]])
    hull = np.concatenate([tess.bboxes[:, :2].min(axis=0), tess.bboxes[:, 2:].max(axis=0)])
    assert np.allclose(hull, core.lo + core.hi)
    assert np.allclose(ref.bboxes[:, :2].min(axis=0), (0.2, 0.2))
