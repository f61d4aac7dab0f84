"""Tessellation construction: planar Voronoi and deterministic lattices.

A Tessellation stores its n convex cells, clipped to the sampling window, as
arrays: generator centers, and the CCW vertex rings of all cells concatenated
into one ragged array. It also stores the shared-boundary data needed for
both adjacency notions: face adjacency (positive-length shared segment) and
star adjacency (any contact, corner contacts included). A cell graph is an
(m, 2) array of cell pairs, which build_adjacency returns for either notion.

Voronoi cells are read off Qhull's Delaunay triangulation of the generators
plus a mirror ring of three far points, the corners of an equilateral
triangle around the sampling window. The triangle contains every generator,
so every real region is bounded. Each far point is at least 3.5 window
diagonals from every window point, and every generator is within one, so no
mirror region enters the window and the clipped cells are exact. Three is
the fewest far points that bound every region and the cheapest for Qhull:
four or more make a near-flat upper hull in its lifted space, which costs it
markedly more. The Voronoi vertices are the triangles' circumcentres,
cocircular triangles sharing one; a cell's ring is its vertices in angular
order around its generator, and the ridge between two generators runs
between the circumcentres on either side of their Delaunay edge.
build_voronoi imports scipy.spatial when it first runs, not at module
load, so a run that builds only lattices never pays that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConstructionError, EdgeEffectError, ParameterError
from .geometry import (Window, clip_rings_to_window, clip_segments_to_rect, gather_rings,
                       point_in_convex_polygon, ring_areas, ring_extents)
from .percolation import label_components
from .point_process import PointConfiguration

if TYPE_CHECKING:
    from scipy.spatial import Delaunay

TOL_SCALE = 1e-9  # geometric tolerance = TOL_SCALE * core window diagonal

_MIRROR_RADIUS_FACTOR = 4.0  # circumradius of the mirror triangle / window diagonal


@dataclass
class Tessellation:
    """Convex cells covering the core window, with shared-boundary data.

    Cell i has generator centers[i] and the CCW vertex ring
    poly_xy[poly_ptr[i]:poly_ptr[i + 1]], read through polygon(i). Cell ids
    are also the order in which colorings draw one uniform per cell, so every
    builder fixes that order. bboxes[i] = [xmin, ymin, xmax, ymax] of the
    ring and boundary[i] (the cell is not strictly inside the core window)
    are derived from the rings once, on construction.

    face_pairs[k] = (i, j) share the edge face_segments[k], unclipped, whose
    part inside the sampling window has positive length; star_pairs are the
    additional corner-only contacts at star_points.
    """

    centers: np.ndarray
    poly_xy: np.ndarray
    poly_ptr: np.ndarray
    core_window: Window
    sampling_window: Window
    face_pairs: np.ndarray
    face_segments: np.ndarray
    star_pairs: np.ndarray
    star_points: np.ndarray
    tol: float
    bboxes: np.ndarray = field(init=False, repr=False)
    boundary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.bboxes = ring_extents(self.poly_xy, self.poly_ptr)
        bb, lo, hi, tol = self.bboxes, self.core_window.lo, self.core_window.hi, self.tol
        self.boundary = ((bb[:, 0] <= lo[0] + tol) | (bb[:, 2] >= hi[0] - tol)
                         | (bb[:, 1] <= lo[1] + tol) | (bb[:, 3] >= hi[1] - tol))

    def __len__(self):
        return len(self.centers)

    def polygon(self, i: int) -> np.ndarray:
        """CCW vertex ring of cell i."""
        return self.poly_xy[self.poly_ptr[i]:self.poly_ptr[i + 1]]

    def cells_meeting(self, rect: Window) -> np.ndarray:
        """Ids of cells whose bbox meets rect (superset of exact hits)."""
        bb = self.bboxes
        mask = ((bb[:, 0] <= rect.hi[0] + self.tol) & (bb[:, 2] >= rect.lo[0] - self.tol)
                & (bb[:, 1] <= rect.hi[1] + self.tol) & (bb[:, 3] >= rect.lo[1] - self.tol))
        return np.nonzero(mask)[0]

    def locate(self, point) -> int:
        """Cell containing a point; boundary ties go to the lexicographically
        smallest (center.x, center.y)."""
        p = np.asarray(point, float)
        bb = self.bboxes
        cand = np.nonzero((bb[:, 0] <= p[0] + self.tol) & (bb[:, 2] >= p[0] - self.tol)
                          & (bb[:, 1] <= p[1] + self.tol) & (bb[:, 3] >= p[1] - self.tol))[0]
        hits = [int(i) for i in cand
                if point_in_convex_polygon(p, self.polygon(i), tol=self.tol)]
        if not hits:
            raise ConstructionError(f"point {p} is not covered by any cell")
        return min(hits, key=lambda i: (self.centers[i, 0], self.centers[i, 1]))


def _mirror_ring(sampling: Window) -> np.ndarray:
    """The three far points added to every Voronoi construction on a
    sampling window: the corners of an equilateral triangle centred on the
    window, with circumradius _MIRROR_RADIUS_FACTOR × diagonal.

    The triangle's inradius is 2 × diagonal, so it holds the window and every
    generator, and each generator's region is bounded. Each corner is at least
    3.5 × diagonal from every window point, and some generator is within one
    diagonal of it, so no corner's region enters the window. Qhull's cost
    grows with the number of far points (they form a near-flat upper hull in
    its lifted space), and three is the fewest that bound every region.
    """
    ang = 2 * np.pi * np.arange(3) / 3
    radius = _MIRROR_RADIUS_FACTOR * sampling.diagonal
    return sampling.center + radius * np.column_stack([np.cos(ang), np.sin(ang)])


def _voronoi_vertices(tri: Delaunay, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(centres, vertex): the circumcentre of every Delaunay triangle, and
    the Voronoi vertex each triangle belongs to.

    Triangles joined by a Voronoi ridge no longer than tol (cocircular
    generators) form one group, which is one Voronoi vertex, as a merged
    Qhull facet would be: vertex[t] is the smallest triangle id of t's group,
    and centres[vertex[t]] its position. The circumcentres use the
    arithmetic of Qhull's qh_voronoi_center.
    """
    corner = tri.points[tri.simplices]
    p0 = corner[:, 0]
    (x0, y0), (x1, y1) = (corner[:, 1] - p0).T, (corner[:, 2] - p0).T
    s0, s1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
    f = 0.5 / (x0 * y1 - x1 * y0)
    centres = np.column_stack([(s0 * y1 - s1 * y0) * f, (x0 * s1 - x1 * s0) * f]) + p0
    n_tri = len(centres)
    t, u = np.repeat(np.arange(n_tri), 3), tri.neighbors.ravel()
    inner = np.nonzero(u > t)[0]
    merge = inner[((centres[t[inner]] - centres[u[inner]]) ** 2).sum(axis=1) <= tol * tol]
    return centres, label_components(np.ones(n_tri, bool),
                                     np.column_stack([t[merge], u[merge]]))


def build_voronoi(points: PointConfiguration, core_window: Window,
                  validate_buffer: bool = True) -> Tessellation:
    """Voronoi tessellation of a sampled configuration, clipped to its window.

    The configuration window is the sampling window; it must contain the core
    window. After construction, any cell that meets the core window while
    touching the sampling hull raises EdgeEffectError (the buffer was too
    small to determine it). That check presumes the configuration restricts
    an infinite process; pass validate_buffer=False when the configuration is
    the whole process (a handful of explicit generators), where hull-clipped
    cells are exact.
    """
    from scipy.spatial import Delaunay, QhullError

    pts = points.points
    n = len(pts)
    if n < 3:
        raise ConstructionError("voronoi construction needs at least 3 generators")
    sampling = points.window
    if not sampling.contains_window(core_window, tol=1e-9):
        raise ParameterError("sampling window must contain the core window")
    tol = TOL_SCALE * core_window.diagonal

    d0 = pts - pts[0]
    far = int(np.argmax((d0 ** 2).sum(axis=1)))
    cross = np.abs(d0[:, 0] * d0[far, 1] - d0[:, 1] * d0[far, 0])
    if cross.max() <= tol * sampling.diagonal ** 2:
        raise ConstructionError("generators are collinear")

    try:
        tri = Delaunay(np.vstack([pts, _mirror_ring(sampling)]))
    except QhullError as exc:
        raise ConstructionError(f"voronoi construction failed: {exc}") from exc
    simplices = tri.simplices
    n_tri = len(simplices)
    centres, vertex = _voronoi_vertices(tri, tol)

    # each cell's ring: its distinct vertices in angular order around its
    # generator, so CCW. The pseudo-angle dx / (|dx| + |dy|), folded to
    # [0, 4), sorts as the polar angle does; the incidences of one vertex
    # (the triangles of a group) sort next to each other and are kept once.
    owner, cat = simplices.ravel(), np.repeat(vertex, 3)
    keep = owner < n
    owner, cat = owner[keep], cat[keep]
    dx, dy = (centres[cat] - pts[owner]).T
    r = dx / (np.abs(dx) + np.abs(dy))
    order = np.argsort(owner * 4.0 + np.where(dy >= 0, 1.0 - r, 3.0 + r))
    owner, cat = owner[order], cat[order]
    first = np.ones(len(cat), bool)
    first[1:] = (cat[1:] != cat[:-1]) | (owner[1:] != owner[:-1])
    owner, cat = owner[first], cat[first]
    lengths = np.bincount(owner, minlength=n)
    if (lengths < 3).any():
        raise ConstructionError(
            f"generator {int(np.argmax(lengths < 3))} has an unbounded or degenerate region")
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    starts = ptr[:-1]
    poly_xy = centres[cat]

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
        # rings n.. of the joined arrays are the clipped cells, in id order
        ids = np.arange(n)
        ids[clipped] = n + np.arange(len(clipped))
        poly_xy, ptr = gather_rings(np.concatenate([poly_xy, cut_xy]),
                                    np.concatenate([ptr, ptr[-1] + cut_ptr[1:]]), ids)

    # the Voronoi ridges of real generators: Delaunay edge k of triangle t
    # joins generators a and b, opposite corner k, and is shared with triangle
    # u (-1 on the hull). Each inner edge is one ridge, taken from its lower
    # triangle, unless both triangles are one vertex.
    t, u = np.repeat(np.arange(n_tri), 3), tri.neighbors.ravel()
    a, b = simplices[:, [1, 2, 0]].ravel(), simplices[:, [2, 0, 1]].ravel()
    real = (a < n) & (b < n)
    if (real & (u < 0)).any():
        raise ConstructionError("unbounded ridge between real generators")
    ridge = np.nonzero(real & (u > t))[0]
    ridge = ridge[vertex[t[ridge]] != vertex[u[ridge]]]
    pairs = np.column_stack([a[ridge], b[ridge]])
    ridge_v = np.column_stack([vertex[t[ridge]], vertex[u[ridge]]])
    seg_a = centres[ridge_v[:, 0]]
    seg_b = centres[ridge_v[:, 1]]
    ok, seg_len = clip_segments_to_rect(seg_a, seg_b, sampling)
    face_mask = ok & (seg_len > tol)
    contact_mask = ok & ~face_mask
    face_pairs = pairs[face_mask]

    # corner-only contacts: generators whose regions share a Voronoi vertex
    # inside the sampling window without sharing a face (cocircular
    # degeneracies, or a ridge that leaves the window at its vertex). At a
    # vertex of exactly three real cells each pair of them shares a ridge
    # ending there (mirror cells never reach the window), so only a vertex
    # with four or more real cells, or one that ends a real ridge that is not
    # a face, can carry such a contact. Each (vertex, cell) incidence of
    # those vertices is ranked by the vertex's first position in the rings,
    # then by cell; a vertex's cells are then consecutive and every pair of
    # them is a candidate contact.
    counts = np.bincount(cat, minlength=n_tri)
    search = counts >= 4
    search[ridge_v[~face_mask]] = True
    at = np.nonzero(search)[0]
    search[at] = sampling.expand(tol).contains_points(centres[at])
    k_inc = np.nonzero(search[cat])[0]
    v_inc = cat[k_inc]
    _, first = np.unique(v_inc, return_index=True)
    rank = np.empty(n_tri, int)
    rank[v_inc[first]] = k_inc[first]
    order = np.lexsort((owner[k_inc], rank[v_inc]))
    r_inc, c_inc = rank[v_inc[order]], owner[k_inc[order]]
    cand = [np.empty((0, 3), int)]  # (rank, a, b) rows, a < b
    for d in range(1, int(counts[search].max(initial=0))):
        same = r_inc[:-d] == r_inc[d:]
        cand.append(np.column_stack([r_inc[:-d], c_inc[:-d], c_inc[d:]])[same])
    cand = np.concatenate(cand)
    cand = cand[np.lexsort(cand.T[::-1])]
    if len(cand):  # general position leaves none; then skip the costly face lookup
        cand = cand[~np.isin(cand[:, 1:] @ [n, 1], np.sort(face_pairs, axis=1) @ [n, 1])]

    # ridge contacts come before corner contacts; keep the first point per pair
    star_all = np.concatenate([np.sort(pairs[contact_mask], axis=1), cand[:, 1:]])
    points_all = np.concatenate([(seg_a[contact_mask] + seg_b[contact_mask]) / 2.0,
                                 centres[cat[cand[:, 0]]]])
    _, first = np.unique(star_all @ [n, 1], return_index=True)

    tess = Tessellation(
        centers=pts, poly_xy=poly_xy, poly_ptr=ptr,
        core_window=core_window, sampling_window=sampling,
        face_pairs=face_pairs,
        face_segments=np.stack([seg_a, seg_b], axis=1)[face_mask],
        star_pairs=star_all[first], star_points=points_all[first],
        tol=tol)

    # a posteriori buffer validation: every clipped cell touches the sampling
    # hull, so one that meets the core window was not determined by the sample
    if validate_buffer:
        hit = np.isin(clipped, tess.cells_meeting(core_window))
        if hit.any():
            raise EdgeEffectError(
                f"cell {int(clipped[np.argmax(hit)])} meets the core window but touches "
                "the sampling hull; increase the buffer")
    return tess


def build_lattice_tessellation(kind: str, spacing: float, shift, core_window: Window) -> Tessellation:
    """Deterministic congruent-cell tessellation (square or hexagonal).

    Cells are those whose interior meets the core window interior; centers
    are barycenters. Face/star pair data is produced analytically.
    """
    if spacing <= 0:
        raise ParameterError("spacing must be positive")
    shift = np.asarray(shift, float)
    tol = TOL_SCALE * core_window.diagonal
    if kind == "square":
        return _square_lattice(spacing, shift, core_window, tol)
    if kind == "hexagonal":
        return _hex_lattice(spacing, shift, core_window, tol)
    raise ParameterError(f"unknown lattice kind {kind!r}")


def _lattice(centers, polys, core, tol, face_pairs, face_segments,
             star_pairs=None, star_points=None) -> Tessellation:
    """Tessellation of congruent k-gons polys (n, k, 2); the sampling window
    is the hull of the core window and the cells."""
    n, k = polys.shape[:2]
    poly_xy = polys.reshape(-1, 2)
    sampling = Window.hull([core, Window(tuple(poly_xy.min(axis=0)),
                                         tuple(poly_xy.max(axis=0)))])
    return Tessellation(
        centers=centers, poly_xy=poly_xy, poly_ptr=np.arange(n + 1) * k,
        core_window=core, sampling_window=sampling,
        face_pairs=face_pairs.reshape(-1, 2), face_segments=face_segments.reshape(-1, 2, 2),
        star_pairs=np.empty((0, 2), int) if star_pairs is None else star_pairs.reshape(-1, 2),
        star_points=np.empty((0, 2)) if star_points is None else star_points.reshape(-1, 2),
        tol=tol)


def _square_lattice(s: float, shift: np.ndarray, core: Window, tol: float) -> Tessellation:
    i0 = math.floor((core.lo[0] - shift[0]) / s)
    i1 = math.ceil((core.hi[0] - shift[0]) / s) - 1
    j0 = math.floor((core.lo[1] - shift[1]) / s)
    j1 = math.ceil((core.hi[1] - shift[1]) / s) - 1
    # grid points G[a, b] = (X[a], Y[b]); cell (i, j) has id (i - i0) * nj + (j - j0)
    # and lower-left corner G[i - i0, j - j0]
    X = shift[0] + np.arange(i0, i1 + 2) * s
    Y = shift[1] + np.arange(j0, j1 + 2) * s
    G = np.stack(np.meshgrid(X, Y, indexing="ij"), axis=-1)
    ni, nj = len(X) - 1, len(Y) - 1
    ids = np.arange(ni * nj).reshape(ni, nj)
    x0, y0 = G[:-1, :-1].reshape(-1, 2).T
    polys = np.stack([np.column_stack([x0, y0]), np.column_stack([x0 + s, y0]),
                      np.column_stack([x0 + s, y0 + s]), np.column_stack([x0, y0 + s])], axis=1)
    centers = np.column_stack([x0 + s / 2, y0 + s / 2])
    # face pairs: (i, j)-(i+1, j) across x = X[i+1], then (i, j)-(i, j+1) across y = Y[j+1]
    face_pairs = np.concatenate([
        np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),
        np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])])
    face_segments = np.concatenate([
        np.stack([G[1:-1, :-1], G[1:-1, 1:]], axis=2).reshape(-1, 2, 2),
        np.stack([G[:-1, 1:-1], G[1:, 1:-1]], axis=2).reshape(-1, 2, 2)])
    # star pairs: (i, j)-(i+1, j+1) and (i, j+1)-(i+1, j), both at G[i+1, j+1]
    star_pairs = np.concatenate([
        np.column_stack([ids[:-1, :-1].ravel(), ids[1:, 1:].ravel()]),
        np.column_stack([ids[:-1, 1:].ravel(), ids[1:, :-1].ravel()])])
    corners = G[1:-1, 1:-1].reshape(-1, 2)
    return _lattice(centers, polys, core, tol, face_pairs, face_segments,
                    star_pairs, np.concatenate([corners, corners]))


# one direction per unordered neighbor pair, and the hexagon edge it crosses
_HEX_NEIGHBOR_STEPS = (((1, 0), 5), ((0, 1), 0), ((-1, 1), 1))


def _hex_lattice(s: float, shift: np.ndarray, core: Window, tol: float) -> Tessellation:
    # pointy-top hexagons, across-flats width s, centers on a triangular
    # lattice generated by u = (s, 0) and v = (s/2, s*sqrt(3)/2)
    r_circ = s / math.sqrt(3.0)
    angles = np.deg2rad(np.arange(30, 390, 60))
    hexagon = r_circ * np.column_stack([np.cos(angles), np.sin(angles)])
    u = np.array([s, 0.0])
    v = np.array([s / 2.0, s * math.sqrt(3.0) / 2.0])
    # generous index ranges, filtered by cell/core overlap
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
    # hexagons inside the closed core are kept whole; the rest must meet the
    # core window in positive area
    keep = np.all((lo <= polys) & (polys <= hi), axis=(1, 2))
    edge = np.nonzero(~keep)[0]
    part_xy, part_ptr = clip_rings_to_window(polys[edge].reshape(-1, 2),
                                             np.arange(len(edge) + 1) * 6, core)
    keep[edge] = (np.diff(part_ptr) >= 3) & (ring_areas(part_xy, part_ptr) > tol * s)
    a, b, c, polys = a[keep], b[keep], c[keep], polys[keep]
    index = np.full((a_max - a_min + 2, b_max - b_min + 2), -1)
    index[a - a_min, b - b_min] = np.arange(len(a))
    face_pairs, face_segments = [], []
    for (da, db), edge in _HEX_NEIGHBOR_STEPS:
        other = index[a - a_min + da, b - b_min + db]  # -1 column/row pads the edges
        has = other >= 0
        face_pairs.append(np.column_stack([np.nonzero(has)[0], other[has]]))
        face_segments.append(polys[has][:, [edge, (edge + 1) % 6]])
    return _lattice(c, polys, core, tol, np.concatenate(face_pairs),
                    np.concatenate(face_segments))


def zero_cell(tess: Tessellation) -> int:
    """Id of the cell containing the origin (lexicographic tie rule)."""
    origin = (0.0, 0.0)
    cw = tess.core_window
    if not (cw.lo[0] <= 0.0 <= cw.hi[0] and cw.lo[1] <= 0.0 <= cw.hi[1]):
        raise ParameterError("origin lies outside the core window")
    return tess.locate(origin)


def build_adjacency(tess: Tessellation, mode: str) -> np.ndarray:
    """The (m, 2) cell pairs of face adjacency, or of star adjacency: the
    face pairs followed by the corner-only star pairs."""
    if mode not in ("face", "star"):
        raise ParameterError("adjacency mode must be 'face' or 'star'")
    if mode == "face":
        return tess.face_pairs
    return np.concatenate([tess.face_pairs, tess.star_pairs])
