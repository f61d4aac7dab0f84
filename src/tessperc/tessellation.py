"""Tessellation construction: planar Voronoi and deterministic lattices.

A Tessellation stores the n convex cells that meet its core window as
arrays: generator centers, and the CCW vertex rings of all cells concatenated
into one ragged array. It also stores the shared-boundary data needed for
both adjacency notions: face adjacency (positive-length shared segment) and
star adjacency (any contact, corner contacts included). A cell graph is an
(m, 2) array of cell pairs, which build_adjacency returns for either notion.

Voronoi cells are read off Qhull's Delaunay triangulation of the generators
plus the three far points of _mirror_ring, which bound every real region and
whose own regions never enter the window, so the cells are exact. A build
keeps the cells whose bbox meets the core window. The Voronoi vertices are
the triangles' circumcentres, cocircular triangles sharing one; a cell's
ring is its vertices in angular order around its generator, and the ridge
between two generators runs between the circumcentres on either side of
their Delaunay edge. build_voronoi imports
scipy.spatial when it first runs, not at module load, so a run that builds
only lattices never pays that import.

Lattice cells come from _LATTICES, one unit cell per kind, laid out at the
anchors shift + a u + b v of an index box in (a, b) order, the id order. A
cell is kept when its ring overlaps the core window by more than tol along
x, y and its other edge normals: these axes separate a convex ring from the
window, so nothing is clipped. Each step's neighbour pairs are one slice of
the grid of kept ids, and they share ring corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConstructionError, EdgeEffectError, ParameterError
from .geometry import (Window, clip_rings_to_window, clip_segments_to_rect, gather_rings,
                       point_in_convex_polygon, ring_extents)
from .percolation import label_components
from .point_process import PointConfiguration

if TYPE_CHECKING:
    from scipy.spatial import Delaunay

TOL_SCALE = 1e-9  # geometric tolerance = TOL_SCALE * core window diagonal

_MIRROR_RADIUS_FACTOR = 4.0  # circumradius of the mirror triangle / window diagonal


@dataclass
class Tessellation:
    """Convex cells covering the core window, with shared-boundary data.

    Cell i has generator centers[i], point generators[i] of the configuration
    it was built from (i for a lattice), and the CCW vertex ring
    poly_xy[poly_ptr[i]:poly_ptr[i + 1]], read through polygon(i). Cells are
    in generator order, and a colouring gives each the uniform of its
    generator, whatever other cells a build keeps. The builder passes
    bboxes[i] = [xmin, ymin, xmax, ymax] of the ring (a lattice as anchor +
    its unit ring's extremes, the same floats); boundary[i] (the cell is not
    strictly inside the core window) is derived from them on construction.

    face_pairs[k] = (i, j) share the edge face_segments[k], unclipped, whose
    part inside the sampling window has positive length; star_pairs are the
    additional corner-only contacts at star_points.
    """

    centers: np.ndarray
    generators: np.ndarray
    poly_xy: np.ndarray
    poly_ptr: np.ndarray
    core_window: Window
    face_pairs: np.ndarray
    face_segments: np.ndarray
    star_pairs: np.ndarray
    star_points: np.ndarray
    tol: float
    bboxes: np.ndarray = field(repr=False)
    boundary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
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
    corner = np.take(tri.points, tri.simplices, axis=0)
    p0 = corner[:, 0]
    (x0, y0), (x1, y1) = (corner[:, 1] - p0).T, (corner[:, 2] - p0).T
    s0, s1 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1
    f = 0.5 / (x0 * y1 - x1 * y0)
    centres = np.column_stack([(s0 * y1 - s1 * y0) * f, (x0 * s1 - x1 * s0) * f]) + p0
    n_tri = len(centres)
    t, u = np.repeat(np.arange(n_tri), 3), tri.neighbors.ravel()
    inner = np.nonzero(u > t)[0]
    step = np.take(centres, t[inner], axis=0) - np.take(centres, u[inner], axis=0)
    merge = inner[(step ** 2).sum(axis=1) <= tol * tol]
    return centres, label_components(np.ones(n_tri, bool),
                                     np.column_stack([t[merge], u[merge]]))


def build_voronoi(points: PointConfiguration, core_window: Window,
                  validate_buffer: bool = True) -> Tessellation:
    """The Voronoi cells of a sampled configuration whose bbox meets the
    core window, in generator order.

    The configuration window is the sampling window; it must contain the core
    window. A kept cell within tol of the sampling hull is clipped to it and
    dropped if it then misses the core window, else it raises EdgeEffectError
    (the buffer was too small to determine it). That check presumes the
    configuration restricts an infinite process; pass validate_buffer=False
    when the configuration is the whole process (a handful of explicit
    generators), where hull-clipped cells are exact.
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

    # a ring's bbox meets the core window grown by tol when each side of that
    # window has a ring vertex on its inner side: mark the passing triangles' corners
    vx, vy = np.take(centres, vertex, axis=0).T
    (x0, y0), (x1, y1) = np.subtract(core_window.lo, tol), np.add(core_window.hi, tol)
    keep = np.arange(len(tri.points)) < n
    for passes in (vx <= x1, vx >= x0, vy <= y1, vy >= y0):
        keep &= np.bincount(np.compress(passes, simplices, axis=0).ravel(), minlength=len(keep)) > 0

    # each kept cell's ring: its distinct vertices in angular order around
    # its generator, so CCW. The pseudo-angle dx / (|dx| + |dy|), folded to
    # [0, 4), sorts as the polar angle does; the incidences of one vertex
    # (the triangles of a group) sort next to each other and are kept once.
    # Owners' key blocks are 8 apart, so an angle rounded up to 4 stays in its block.
    owner, cat = simplices.ravel(), np.repeat(vertex, 3)
    kept = keep[owner]
    owner, cat = owner[kept], cat[kept]
    dx, dy = (np.take(centres, cat, axis=0) - np.take(pts, owner, axis=0)).T
    r = dx / (np.abs(dx) + np.abs(dy))
    order = np.argsort(owner * 8.0 + np.where(dy >= 0, 1.0 - r, 3.0 + r))
    owner, cat = owner[order], cat[order]
    first = np.ones(len(cat), bool)
    first[1:] = (cat[1:] != cat[:-1]) | (owner[1:] != owner[:-1])
    owner, cat = owner[first], cat[first]
    # every region needs 3 vertices (Qhull leaves a repeated generator out of every triangle)
    lengths = np.where(keep[:n], np.bincount(owner, minlength=n),
                       np.bincount(simplices.ravel(), minlength=n)[:n])
    if (lengths < 3).any():
        raise ConstructionError(
            f"generator {int(np.argmax(lengths < 3))} has an unbounded or degenerate region")
    gen = np.nonzero(keep)[0]
    ptr = np.concatenate([[0], np.cumsum(lengths[gen])])
    poly_xy = np.take(centres, cat, axis=0)

    # clip the kept cells within tol of the sampling hull (each keeps a disc around its generator)
    near_hull = ((poly_xy <= np.add(sampling.lo, tol))
                 | (poly_xy >= np.subtract(sampling.hi, tol))).any(axis=1)
    clipped = np.nonzero(np.logical_or.reduceat(near_hull, ptr[:-1]))[0]
    if len(clipped):
        cut_xy, cut_ptr = clip_rings_to_window(*gather_rings(poly_xy, ptr, clipped), sampling)
        ext = ring_extents(cut_xy, cut_ptr)
        meets = (ext[:, 0] <= x1) & (ext[:, 2] >= x0) & (ext[:, 1] <= y1) & (ext[:, 3] >= y0)
        if validate_buffer and meets.any():
            raise EdgeEffectError(
                f"cell of generator {int(gen[clipped[np.argmax(meets)]])} meets the core window "
                "but touches the sampling hull; increase the buffer")
        # rings len(gen).. of the joined arrays are the clipped cells
        rings = np.arange(len(gen))
        rings[clipped] = len(gen) + np.arange(len(clipped))
        keep[gen[clipped[~meets]]] = False
        poly_xy, ptr = gather_rings(np.concatenate([poly_xy, cut_xy]),
                                    np.concatenate([ptr, ptr[-1] + cut_ptr[1:]]), rings[keep[gen]])
        kept = keep[owner]
        owner, cat, gen = owner[kept], cat[kept], np.nonzero(keep)[0]
    m, ids = len(gen), np.cumsum(keep) - 1

    # the Voronoi ridges of kept cells: Delaunay edge k of triangle t joins
    # generators a and b, opposite corner k, and is shared with triangle u
    # (-1 on the hull, which the mirror points span). Each inner edge is one
    # ridge, taken from its lower triangle, unless both triangles are one
    # vertex; it leaves the sampling window only where a kept ring does.
    t, u = np.repeat(np.arange(n_tri), 3), tri.neighbors.ravel()
    a, b = simplices[:, [1, 2, 0]].ravel(), simplices[:, [2, 0, 1]].ravel()
    ridge = np.nonzero(keep[a] & keep[b] & (u > t))[0]
    ridge = ridge[vertex[t[ridge]] != vertex[u[ridge]]]
    pairs = ids[np.column_stack([a[ridge], b[ridge]])]
    ridge_v = np.column_stack([vertex[t[ridge]], vertex[u[ridge]]])
    seg_a = np.take(centres, ridge_v[:, 0], axis=0)
    seg_b = np.take(centres, ridge_v[:, 1], axis=0)
    ok, seg_len = (clip_segments_to_rect(seg_a, seg_b, sampling) if len(clipped)
                   else (np.ones(len(ridge), bool), np.linalg.norm(seg_b - seg_a, axis=1)))
    face_mask = ok & (seg_len > tol)
    contact_mask = ok & ~face_mask
    face_pairs = np.compress(face_mask, pairs, axis=0)

    # corner-only contacts: kept cells whose regions share a Voronoi vertex
    # inside the sampling window without sharing a face (cocircular
    # degeneracies, or a ridge that leaves the window at its vertex). The
    # three cells at a one-triangle vertex pairwise share a ridge ending there
    # (mirror cells never reach the window), so only a vertex of several
    # triangles, or one that ends a ridge that is not a face, is searched:
    # its (vertex, cell) incidences, sorted, give every candidate pair.
    search = np.bincount(vertex, minlength=n_tri) >= 2
    search[np.compress(~face_mask, ridge_v, axis=0)] = True
    at = np.nonzero(search)[0]
    search[at] = sampling.expand(tol).contains_points(np.take(centres, at, axis=0))
    counts = np.bincount(cat, minlength=n_tri)
    v_inc, c_inc = np.divmod(np.sort((cat * m + ids[owner])[search[cat]]), m)
    cand = [np.empty((0, 3), int)]  # (vertex, a, b) rows, a < b
    for d in range(1, int(counts[search].max(initial=0))):
        same = v_inc[:-d] == v_inc[d:]
        cand.append(np.compress(same, np.column_stack([v_inc[:-d], c_inc[:-d], c_inc[d:]]), axis=0))
    cand = np.concatenate(cand)
    if len(cand):  # general position leaves none; then skip the costly face lookup
        cand = np.compress(~np.isin(cand[:, 1:] @ [m, 1], np.sort(face_pairs, axis=1) @ [m, 1]),
                           cand, axis=0)

    # ridge contacts come before corner contacts; keep the first point per pair
    star_all = np.concatenate([np.sort(np.compress(contact_mask, pairs, axis=0), axis=1),
                               cand[:, 1:]])
    points_all = np.concatenate([np.compress(contact_mask, seg_a + seg_b, axis=0) / 2.0,
                                 np.take(centres, cand[:, 0], axis=0)])
    _, first = np.unique(star_all @ [m, 1], return_index=True)

    return Tessellation(
        centers=np.take(pts, gen, axis=0), generators=gen, poly_xy=poly_xy, poly_ptr=ptr,
        core_window=core_window, face_pairs=face_pairs,
        face_segments=np.compress(face_mask, np.stack([seg_a, seg_b], axis=1), axis=0),
        star_pairs=np.take(star_all, first, axis=0),
        star_points=np.take(points_all, first, axis=0),
        tol=tol, bboxes=ring_extents(poly_xy, ptr))


def _square(s: float):
    """Squares of side s, anchored at their lower-left corners."""
    ring = np.array([(0.0, 0.0), (s, 0.0), (s, s), (0.0, s)])
    return np.array([(s, 0.0), (0.0, s)]), ring, (s / 2, s / 2), ()


def _hexagonal(s: float):
    """Pointy-top hexagons s across the flats, anchored at their centres."""
    angles = np.deg2rad(np.arange(30, 390, 60))
    ring = s / math.sqrt(3.0) * np.column_stack([np.cos(angles), np.sin(angles)])
    basis = np.array([(s, 0.0), (s / 2.0, s * math.sqrt(3.0) / 2.0)])
    return basis, ring, (0.0, 0.0), ((0.5, math.sqrt(3.0) / 2), (-0.5, math.sqrt(3.0) / 2))


# kind -> (unit cell of spacing s: anchor basis (u, v), ring at anchor 0,
# centre offset, edge normals besides x and y; face steps; star steps). A
# step ((da, db), corners) per unordered neighbour pair joins the cells at
# anchors (a, b) and (a + da, b + db), which share those ring corners.
_LATTICES = {
    "square": (_square, (((1, 0), (1, 2)), ((0, 1), (3, 2))), (((1, 1), (2,)), ((1, -1), (1,)))),
    "hexagonal": (_hexagonal, (((1, 0), (5, 0)), ((0, 1), (0, 1)), ((-1, 1), (1, 2))), ()),
}


def _contacts(ids: np.ndarray, polys: np.ndarray, steps, k: int):
    """Per step, the pairs (ids[a, b], ids[a + da, b + db]) of kept cells and their k corners."""
    na, nb = ids.shape
    pairs = [np.empty((0, 2), int)]
    for (da, db), _ in steps:
        first = ids[max(-da, 0):na - max(da, 0), max(-db, 0):nb - max(db, 0)].ravel()
        second = ids[max(da, 0):na - max(-da, 0), max(db, 0):nb - max(-db, 0)].ravel()
        pairs.append(np.compress((first >= 0) & (second >= 0), np.column_stack([first, second]),
                                 axis=0))
    # corner c of cell i is row i * len(ring) + c of the stacked rings
    flat, ring = polys.reshape(-1, 2), polys.shape[1]
    corners = [np.take(flat, p[:, :1] * ring + c, axis=0) for p, (_, c) in zip(pairs[1:], steps)]
    return np.concatenate(pairs), np.concatenate([np.empty((0, k, 2))] + corners)


def build_lattice_tessellation(kind: str, spacing: float, shift, core_window: Window) -> Tessellation:
    """Square or hexagonal lattice cells that meet the core window (module docstring)."""
    if spacing <= 0:
        raise ParameterError("spacing must be positive")
    if kind not in _LATTICES:
        raise ParameterError(f"unknown lattice kind {kind!r}")
    unit, faces, stars = _LATTICES[kind]
    basis, ring, centre, normals = unit(spacing)
    shift = np.asarray(shift, float)
    tol = TOL_SCALE * core_window.diagonal
    (x0, y0), (x1, y1) = core_window.lo, core_window.hi
    window = np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    r_lo, r_hi = ring.min(axis=0), ring.max(axis=0)
    # every cell that meets the window has its anchor in the hull of corner - ring point;
    # einsum and a written-out inverse keep BLAS and LAPACK (0.6 MB of RSS) out of the run
    (u0, u1), (v0, v1) = basis
    inverse = np.array([(v1, -u1), (-v0, u0)]) / (u0 * v1 - u1 * v0)
    ab = np.einsum("...j,jk", (window[:, None] - ring).reshape(-1, 2) - shift, inverse)
    a = np.arange(math.floor(ab[:, 0].min()), math.ceil(ab[:, 0].max()) + 1)
    b = np.arange(math.floor(ab[:, 1].min()), math.ceil(ab[:, 1].max()) + 1)
    x, y = (np.add.outer(shift[i] + a * basis[0, i], b * basis[1, i]) for i in (0, 1))
    keep = ((np.minimum(x + r_hi[0], x1) - np.maximum(x + r_lo[0], x0) > tol)
            & (np.minimum(y + r_hi[1], y1) - np.maximum(y + r_lo[1], y0) > tol))
    for n in normals:
        sn, (un, vn), r, c = (np.einsum("...j,j", m, n) for m in (shift, basis, ring, window))
        at = np.add.outer(sn + a * un, b * vn)
        keep &= np.minimum(at + r.max(), c.max()) - np.maximum(at + r.min(), c.min()) > tol
    if not keep.any():
        raise ConstructionError("no lattice cell meets the core window in positive area")
    ids = np.where(keep, np.cumsum(keep).reshape(keep.shape) - 1, -1)
    x, y = x[keep], y[keep]
    polys = np.stack([np.add.outer(x, ring[:, 0]), np.add.outer(y, ring[:, 1])], axis=-1)
    face_pairs, face_segments = _contacts(ids, polys, faces, 2)
    star_pairs, star_points = _contacts(ids, polys, stars, 1)
    return Tessellation(
        centers=np.column_stack([x + centre[0], y + centre[1]]), generators=np.arange(len(x)),
        poly_xy=polys.reshape(-1, 2), poly_ptr=np.arange(len(x) + 1) * len(ring),
        core_window=core_window, face_pairs=face_pairs, face_segments=face_segments,
        star_pairs=star_pairs, star_points=star_points.reshape(-1, 2), tol=tol,
        bboxes=np.column_stack([x + r_lo[0], y + r_lo[1], x + r_hi[0], y + r_hi[1]]))


def zero_cell(tess: Tessellation) -> int:
    """Id of the cell containing the origin (lexicographic tie rule)."""
    if not tess.core_window.contains_points(np.zeros(2))[0]:
        raise ParameterError("origin lies outside the core window")
    return tess.locate((0.0, 0.0))


def build_adjacency(tess: Tessellation, mode: str) -> np.ndarray:
    """The (m, 2) cell pairs of face adjacency, or of star adjacency: the
    face pairs followed by the corner-only star pairs."""
    if mode not in ("face", "star"):
        raise ParameterError("adjacency mode must be 'face' or 'star'")
    if mode == "face":
        return tess.face_pairs
    return np.concatenate([tess.face_pairs, tess.star_pairs])
