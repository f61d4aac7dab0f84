"""Tessellation construction: planar Voronoi and deterministic lattices.

A Tessellation carries one convex cell per generator, clipped to the
sampling window, plus the exact shared-boundary data needed for both
adjacency notions: face adjacency (positive-length shared segment) and star
adjacency (any contact, corner contacts included).

Voronoi cells are computed with Qhull; a ring of distant mirror points makes
every real region bounded, and the mirrors sit far enough away that their
bisectors cannot enter the sampling window, so the clipped cells are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import QhullError, Voronoi

from .errors import ConstructionError, EdgeEffectError, ParameterError
from .geometry import (Window, clip_polygon_to_window, clip_segments_to_rect,
                       point_in_convex_polygon, polygon_area, polygon_diameter)
from .point_process import PointConfiguration

TOL_SCALE = 1e-9  # geometric tolerance = TOL_SCALE * core window diagonal

_MIRROR_COUNT = 16
_MIRROR_RADIUS_FACTOR = 4.0


@dataclass
class Cell:
    id: int
    center: np.ndarray
    polygon: np.ndarray
    diameter: float
    touches_core_boundary: bool


@dataclass
class Tessellation:
    """Convex cells covering the core window, with shared-boundary data.

    face_pairs[k] = (i, j) share face_segments[k] (a positive-length segment
    inside the sampling window); star_pairs are the additional corner-only
    contacts at star_points. touches_core_boundary marks cells that are not
    strictly interior to the core window.
    """

    cells: list
    core_window: Window
    sampling_window: Window
    buffer_width: float
    generator_config: PointConfiguration | None
    face_pairs: np.ndarray
    face_segments: np.ndarray
    star_pairs: np.ndarray
    star_points: np.ndarray
    tol: float
    _bboxes: np.ndarray = field(default=None, repr=False)

    def __len__(self):
        return len(self.cells)

    @property
    def centers(self) -> np.ndarray:
        return np.array([c.center for c in self.cells])

    @property
    def bboxes(self) -> np.ndarray:
        """Per-cell [xmin, ymin, xmax, ymax]."""
        if self._bboxes is None:
            arr = np.empty((len(self.cells), 4))
            for k, c in enumerate(self.cells):
                arr[k, :2] = c.polygon.min(axis=0)
                arr[k, 2:] = c.polygon.max(axis=0)
            self._bboxes = arr
        return self._bboxes

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
        hits = [i for i in cand
                if point_in_convex_polygon(p, self.cells[i].polygon, tol=self.tol)]
        if not hits:
            raise ConstructionError(f"point {p} is not covered by any cell")
        if len(hits) == 1:
            return hits[0]
        return min(hits, key=lambda i: (self.cells[i].center[0], self.cells[i].center[1]))

    def to_json(self) -> dict:
        face_sets = {i: [] for i in range(len(self.cells))}
        star_sets = {i: [] for i in range(len(self.cells))}
        for i, j in self.face_pairs:
            face_sets[int(i)].append(int(j))
            face_sets[int(j)].append(int(i))
            star_sets[int(i)].append(int(j))
            star_sets[int(j)].append(int(i))
        for i, j in self.star_pairs:
            star_sets[int(i)].append(int(j))
            star_sets[int(j)].append(int(i))
        return {
            "core_window": self.core_window.to_json(),
            "cells": [{
                "id": c.id,
                "center": [float(c.center[0]), float(c.center[1])],
                "polygon": [[float(x), float(y)] for x, y in c.polygon],
                "neighbors_face": sorted(face_sets[c.id]),
                "neighbors_star": sorted(star_sets[c.id]),
            } for c in self.cells],
        }


@dataclass
class AdjacencyGraph:
    """Symmetric loop-free neighbor lists over cell ids, rooted at the zero cell.

    edges holds the (i, j) cell pairs the lists are built from.
    """

    mode: str
    neighbors: list
    root: int
    boundary_flags: np.ndarray
    edges: np.ndarray

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def __len__(self):
        return len(self.neighbors)


def _not_strictly_inside(poly: np.ndarray, win: Window, tol: float) -> bool:
    return bool((poly[:, 0].min() <= win.lo[0] + tol) or (poly[:, 0].max() >= win.hi[0] - tol)
                or (poly[:, 1].min() <= win.lo[1] + tol) or (poly[:, 1].max() >= win.hi[1] - tol))


def _bbox_meets(poly: np.ndarray, win: Window, tol: float) -> bool:
    return bool((poly[:, 0].min() <= win.hi[0] + tol) and (poly[:, 0].max() >= win.lo[0] - tol)
                and (poly[:, 1].min() <= win.hi[1] + tol) and (poly[:, 1].max() >= win.lo[1] - tol))


def build_voronoi(points: PointConfiguration, core_window: Window,
                  buffer_width: float | None = None,
                  validate_buffer: bool = True) -> Tessellation:
    """Voronoi tessellation of a sampled configuration, clipped to its window.

    The configuration window is the sampling window; it must contain the core
    window plus the buffer on every side. After construction, any cell that
    meets the core window while touching the sampling hull raises
    EdgeEffectError (the buffer was too small to determine it). That check
    presumes the configuration restricts an infinite process; pass
    validate_buffer=False when the configuration is the whole process (a
    handful of explicit generators), where hull-clipped cells are exact.
    """
    pts = points.points
    n = len(pts)
    if n < 3:
        raise ConstructionError("voronoi construction needs at least 3 generators")
    sampling = points.window
    if buffer_width is None:
        buffer_width = min(core_window.lo[0] - sampling.lo[0],
                           core_window.lo[1] - sampling.lo[1],
                           sampling.hi[0] - core_window.hi[0],
                           sampling.hi[1] - core_window.hi[1])
    if buffer_width < 0 or not sampling.contains_window(core_window.expand(buffer_width), tol=1e-9):
        raise ParameterError("sampling window must contain core window + buffer")
    tol = TOL_SCALE * core_window.diagonal

    d0 = pts - pts[0]
    far = int(np.argmax((d0 ** 2).sum(axis=1)))
    cross = np.abs(d0[:, 0] * d0[far, 1] - d0[:, 1] * d0[far, 0])
    if cross.max() <= tol * sampling.diagonal ** 2:
        raise ConstructionError("generators are collinear")

    center = sampling.center
    radius = _MIRROR_RADIUS_FACTOR * sampling.diagonal
    ang = 2 * np.pi * np.arange(_MIRROR_COUNT) / _MIRROR_COUNT
    mirrors = center + radius * np.column_stack([np.cos(ang), np.sin(ang)])
    try:
        vor = Voronoi(np.vstack([pts, mirrors]))
    except QhullError as exc:
        raise ConstructionError(f"voronoi construction failed: {exc}") from exc

    # vectorized region extraction: orientation, bboxes and diameters are
    # computed over all cells at once (per-cell numpy calls dominate otherwise)
    regions = []
    for i in range(n):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) < 3:
            raise ConstructionError(f"generator {i} has an unbounded or degenerate region")
        regions.append(region)
    lengths = np.fromiter((len(r) for r in regions), int, count=n)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    cat = np.fromiter((v for r in regions for v in r), int, count=int(lengths.sum()))
    nxt = np.empty_like(cat)
    nxt[:-1] = cat[1:]
    nxt[np.cumsum(lengths) - 1] = cat[starts]
    vx, vy = vor.vertices[:, 0], vor.vertices[:, 1]
    cross = vx[cat] * vy[nxt] - vx[nxt] * vy[cat]
    signed_area = np.add.reduceat(cross, starts)
    xmin = np.minimum.reduceat(vx[cat], starts)
    xmax = np.maximum.reduceat(vx[cat], starts)
    ymin = np.minimum.reduceat(vy[cat], starts)
    ymax = np.maximum.reduceat(vy[cat], starts)

    polys = [None] * n
    by_len: dict[int, list[int]] = {}
    for i in range(n):
        region = regions[i] if signed_area[i] >= 0 else regions[i][::-1]
        polys[i] = vor.vertices[region]
        by_len.setdefault(len(region), []).append(i)
    diameters = np.zeros(n)
    for k, idxs in by_len.items():
        stack = np.stack([polys[i] for i in idxs])  # (m, k, 2)
        d = stack[:, :, None, :] - stack[:, None, :, :]
        diameters[idxs] = np.sqrt((d ** 2).sum(axis=3)).max(axis=(1, 2))

    outside_sampling = ((xmin <= sampling.lo[0] + tol) | (xmax >= sampling.hi[0] - tol)
                        | (ymin <= sampling.lo[1] + tol) | (ymax >= sampling.hi[1] - tol))
    touches_core = ((xmin <= core_window.lo[0] + tol) | (xmax >= core_window.hi[0] - tol)
                    | (ymin <= core_window.lo[1] + tol) | (ymax >= core_window.hi[1] - tol))
    for i in np.nonzero(outside_sampling)[0]:
        poly = clip_polygon_to_window(polys[i], sampling)
        if len(poly) < 3:
            raise ConstructionError(f"cell of generator {i} degenerated under clipping")
        polys[i] = poly
        diameters[i] = polygon_diameter(poly)
    cells = [Cell(id=i, center=pts[i].copy(), polygon=polys[i],
                  diameter=float(diameters[i]), touches_core_boundary=bool(touches_core[i]))
             for i in range(n)]

    # a posteriori buffer validation
    if validate_buffer:
        for i in np.nonzero(outside_sampling)[0]:
            c = cells[i]
            if (_not_strictly_inside(c.polygon, sampling, tol)
                    and _bbox_meets(c.polygon, core_window, tol)):
                raise EdgeEffectError(
                    f"cell {c.id} meets the core window but touches the sampling hull; "
                    "increase the buffer")

    ridge_pts = np.asarray(vor.ridge_points)
    real = (ridge_pts[:, 0] < n) & (ridge_pts[:, 1] < n)
    pairs = ridge_pts[real]
    ridge_v = np.asarray(vor.ridge_vertices)[real]
    if (ridge_v < 0).any():
        raise ConstructionError("unbounded ridge between real generators")
    seg_a = vor.vertices[ridge_v[:, 0]]
    seg_b = vor.vertices[ridge_v[:, 1]]
    ok, lengths = clip_segments_to_rect(seg_a, seg_b, sampling)
    face_mask = ok & (lengths > tol)
    contact_mask = ok & ~face_mask

    face_pairs = pairs[face_mask]
    fa, fb = seg_a[face_mask], seg_b[face_mask]
    face_segments = _clip_segments(fa, fb, sampling)

    star_pairs = [tuple(sorted(map(int, p))) for p in pairs[contact_mask]]
    star_points = list((seg_a[contact_mask] + seg_b[contact_mask]) / 2.0)

    # corner-only contacts: generators whose regions share a Voronoi vertex
    # without sharing a ridge (cocircular degeneracies)
    face_set = {tuple(sorted(map(int, p))) for p in face_pairs}
    vertex_cells: dict[int, list[int]] = {}
    for i in range(n):
        for v in vor.regions[vor.point_region[i]]:
            vertex_cells.setdefault(v, []).append(i)
    for v, owners in vertex_cells.items():
        if len(owners) < 2:
            continue
        vx = vor.vertices[v]
        if not (sampling.lo[0] - tol <= vx[0] <= sampling.hi[0] + tol
                and sampling.lo[1] - tol <= vx[1] <= sampling.hi[1] + tol):
            continue
        for a in range(len(owners)):
            for b in range(a + 1, len(owners)):
                key = (owners[a], owners[b]) if owners[a] < owners[b] else (owners[b], owners[a])
                if key not in face_set:
                    star_pairs.append(key)
                    star_points.append(vx)
    star_pairs_arr = np.array(sorted(set(star_pairs)), int).reshape(-1, 2)
    if len(star_pairs_arr):
        # deduplicate keeping first contact point per pair
        seen = {}
        for p, q in zip(star_pairs, star_points):
            seen.setdefault(p, q)
        star_points_arr = np.array([seen[tuple(p)] for p in star_pairs_arr])
    else:
        star_points_arr = np.empty((0, 2))

    return Tessellation(
        cells=cells,
        core_window=core_window,
        sampling_window=sampling,
        buffer_width=float(buffer_width),
        generator_config=points,
        face_pairs=face_pairs.astype(int),
        face_segments=face_segments,
        star_pairs=star_pairs_arr,
        star_points=star_points_arr,
        tol=tol,
    )


def _clip_segments(a: np.ndarray, b: np.ndarray, win: Window) -> np.ndarray:
    """Clip segments to a window, returning an (m, 2, 2) endpoint array."""
    if len(a) == 0:
        return np.empty((0, 2, 2))
    d = b - a
    t0 = np.zeros(len(a))
    t1 = np.ones(len(a))
    for axis, (lo, hi) in enumerate(((win.lo[0], win.hi[0]), (win.lo[1], win.hi[1]))):
        p = d[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = np.where(p != 0, (lo - a[:, axis]) / np.where(p != 0, p, 1.0), -np.inf)
            tb = np.where(p != 0, (hi - a[:, axis]) / np.where(p != 0, p, 1.0), np.inf)
        enter = np.minimum(ta, tb)
        exit_ = np.maximum(ta, tb)
        t0 = np.maximum(t0, np.where(np.isfinite(enter), enter, 0.0))
        t1 = np.minimum(t1, np.where(np.isfinite(exit_), exit_, 1.0))
    t1 = np.maximum(t1, t0)
    out = np.empty((len(a), 2, 2))
    out[:, 0, :] = a + t0[:, None] * d
    out[:, 1, :] = a + t1[:, None] * d
    return out


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


def _square_lattice(s: float, shift: np.ndarray, core: Window, tol: float) -> Tessellation:
    i0 = math.floor((core.lo[0] - shift[0]) / s)
    i1 = math.ceil((core.hi[0] - shift[0]) / s) - 1
    j0 = math.floor((core.lo[1] - shift[1]) / s)
    j1 = math.ceil((core.hi[1] - shift[1]) / s) - 1
    index = {}
    cells = []
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            x0, y0 = shift[0] + i * s, shift[1] + j * s
            poly = np.array([[x0, y0], [x0 + s, y0], [x0 + s, y0 + s], [x0, y0 + s]])
            cid = len(cells)
            index[(i, j)] = cid
            cells.append(Cell(
                id=cid, center=np.array([x0 + s / 2, y0 + s / 2]), polygon=poly,
                diameter=s * math.sqrt(2.0),
                touches_core_boundary=_not_strictly_inside(poly, core, tol)))
    face_pairs, face_segments = [], []
    star_pairs, star_points = [], []
    for (i, j), cid in index.items():
        if (i + 1, j) in index:
            x = shift[0] + (i + 1) * s
            face_pairs.append((cid, index[(i + 1, j)]))
            face_segments.append([[x, shift[1] + j * s], [x, shift[1] + (j + 1) * s]])
        if (i, j + 1) in index:
            y = shift[1] + (j + 1) * s
            face_pairs.append((cid, index[(i, j + 1)]))
            face_segments.append([[shift[0] + i * s, y], [shift[0] + (i + 1) * s, y]])
        for di, dj in ((1, 1), (1, -1)):
            if (i + di, j + dj) in index:
                corner = np.array([shift[0] + (i + 1) * s,
                                   shift[1] + (j + (1 if dj == 1 else 0)) * s])
                star_pairs.append((cid, index[(i + di, j + dj)]))
                star_points.append(corner)
    sampling = Window.hull([core] + [Window(tuple(c.polygon.min(axis=0)),
                                            tuple(c.polygon.max(axis=0))) for c in cells])
    return Tessellation(
        cells=cells, core_window=core, sampling_window=sampling, buffer_width=0.0,
        generator_config=None,
        face_pairs=np.array(face_pairs, int).reshape(-1, 2),
        face_segments=np.array(face_segments, float).reshape(-1, 2, 2),
        star_pairs=np.array(star_pairs, int).reshape(-1, 2),
        star_points=np.array(star_points, float).reshape(-1, 2),
        tol=tol)


_HEX_NEIGHBOR_STEPS = ((1, 0), (0, 1), (-1, 1))  # one direction per unordered pair


def _hex_lattice(s: float, shift: np.ndarray, core: Window, tol: float) -> Tessellation:
    # pointy-top hexagons, across-flats width s, centers on a triangular
    # lattice generated by u = (s, 0) and v = (s/2, s*sqrt(3)/2)
    r_circ = s / math.sqrt(3.0)
    angles = np.deg2rad(np.arange(30, 390, 60))
    hexagon = r_circ * np.column_stack([np.cos(angles), np.sin(angles)])
    u = np.array([s, 0.0])
    v = np.array([s / 2.0, s * math.sqrt(3.0) / 2.0])
    # generous index ranges, filtered by cell/core overlap
    corners = [np.array(c) for c in (core.lo, (core.lo[0], core.hi[1]),
                                     (core.hi[0], core.lo[1]), core.hi)]
    basis_inv = np.linalg.inv(np.column_stack([u, v]))
    ab = [basis_inv @ (c - shift) for c in corners]
    a_min = math.floor(min(p[0] for p in ab)) - 2
    a_max = math.ceil(max(p[0] for p in ab)) + 2
    b_min = math.floor(min(p[1] for p in ab)) - 2
    b_max = math.ceil(max(p[1] for p in ab)) + 2
    index = {}
    cells = []
    margin = r_circ
    for a in range(a_min, a_max + 1):
        for b in range(b_min, b_max + 1):
            c = shift + a * u + b * v
            if not (core.lo[0] - margin < c[0] < core.hi[0] + margin
                    and core.lo[1] - margin < c[1] < core.hi[1] + margin):
                continue
            poly = hexagon + c
            inter = clip_polygon_to_window(poly, core)
            if len(inter) < 3 or polygon_area(inter) <= tol * s:
                continue
            cid = len(cells)
            index[(a, b)] = cid
            cells.append(Cell(id=cid, center=c.copy(), polygon=poly,
                              diameter=2.0 * r_circ,
                              touches_core_boundary=_not_strictly_inside(poly, core, tol)))
    face_pairs, face_segments = [], []
    for (a, b), cid in index.items():
        cell_poly = cells[cid].polygon
        for da, db in _HEX_NEIGHBOR_STEPS:
            other = index.get((a + da, b + db))
            if other is None:
                continue
            midpoint = (cells[cid].center + cells[other].center) / 2.0
            edges = np.stack([cell_poly, np.roll(cell_poly, -1, axis=0)], axis=1)
            mids = edges.mean(axis=1)
            k = int(np.argmin(((mids - midpoint) ** 2).sum(axis=1)))
            face_pairs.append((cid, other))
            face_segments.append(edges[k])
    sampling = Window.hull([core] + [Window(tuple(c.polygon.min(axis=0)),
                                            tuple(c.polygon.max(axis=0))) for c in cells])
    return Tessellation(
        cells=cells, core_window=core, sampling_window=sampling, buffer_width=0.0,
        generator_config=None,
        face_pairs=np.array(face_pairs, int).reshape(-1, 2),
        face_segments=np.array(face_segments, float).reshape(-1, 2, 2),
        star_pairs=np.empty((0, 2), int),
        star_points=np.empty((0, 2)),
        tol=tol)


def zero_cell(tess: Tessellation) -> int:
    """Id of the cell containing the origin (lexicographic tie rule)."""
    origin = (0.0, 0.0)
    cw = tess.core_window
    if not (cw.lo[0] <= 0.0 <= cw.hi[0] and cw.lo[1] <= 0.0 <= cw.hi[1]):
        raise ParameterError("origin lies outside the core window")
    return tess.locate(origin)


def build_adjacency(tess: Tessellation, mode: str) -> AdjacencyGraph:
    """Neighbor lists in face or star mode, rooted at the zero cell.

    If the origin is outside the core window the root falls back to the cell
    containing the core window's center.
    """
    if mode not in ("face", "star"):
        raise ParameterError("adjacency mode must be 'face' or 'star'")
    edges = tess.face_pairs
    if mode == "star":
        edges = np.concatenate([edges, tess.star_pairs])
    neighbors = [set() for _ in range(len(tess.cells))]
    for i, j in edges.tolist():
        neighbors[i].add(j)
        neighbors[j].add(i)
    cw = tess.core_window
    if cw.lo[0] <= 0.0 <= cw.hi[0] and cw.lo[1] <= 0.0 <= cw.hi[1]:
        root = zero_cell(tess)
    else:
        root = tess.locate(cw.center)
    flags = np.array([c.touches_core_boundary for c in tess.cells], bool)
    return AdjacencyGraph(mode=mode, neighbors=[sorted(s) for s in neighbors],
                          root=root, boundary_flags=flags, edges=edges)
