"""Planar primitives: axis-aligned windows, ring and segment clipping, grid boxes.

Everything is 2-D and numpy-based. Polygons are (k, 2) float arrays with CCW
vertex order; windows are axis-aligned rectangles. Many polygons travel as
one ragged pair (xy, ptr): ring i is xy[ptr[i]:ptr[i + 1]]. Rings are
clipped to a window all at once by clip_rings_to_window, and measured by
ring_extents. Segments (Voronoi ridges, shared cell edges) have their own
Liang-Barsky clipper, clip_segments_to_rect: passing only the segments
that cross the window through clip_rings_to_window, as 2-vertex rings,
measured 2 to 2.6 times as slow per Voronoi build and per rect graph.

One rule decides whether a convex ring meets a window in positive area:
parts_with_area clips it and keeps a part wider and taller than tol. The
crossing layer applies it to a rectangle, and rings_meet_boxes to many
(ring, grid box) pairs at once. The lattice builder clips nothing: it keeps
a congruent cell whose ring overlaps the core window by more than tol along
each separating axis. All grid code uses one delta-grid, box (i, j) being
delta * ((i, j) + [-1/2, 1/2]^2); a region of boxes is a delta and a
Window, whose fully contained boxes region_index_range finds.

Across the package, rows of an array of two or more dimensions are gathered
by np.take(a, idx, axis=0) and masked by np.compress(mask, a, axis=0), not
by a[idx] or a[mask]. On numpy 2.4 the indexing forms go through the general
advanced-indexing machinery and measured 8 to 10 times as slow on (n, 2),
(n, 4) and (n, k, 2) arrays: 61 against 6 us to gather 5,400 rows of 900
points, 54 against 8 us to mask 5,400 pairs. Both give the same rows, so
results are bit-identical. A mask is always computed from the array it
masks: np.compress silently truncates a shorter mask, where indexing
raises. 1-D arrays are indexed directly, as both forms are fast there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle [lo, hi] with positive area."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        lo, hi = np.asarray(self.lo, float), np.asarray(self.hi, float)
        if lo.shape != (2,) or hi.shape != (2,):
            raise ParameterError("window corners must be 2-vectors")
        if not np.all(lo < hi):
            raise ParameterError(f"window must satisfy lo < hi componentwise, got {lo} .. {hi}")
        if not np.isfinite([lo, hi]).all():
            raise ParameterError(f"window corners must be finite, got {lo} .. {hi}")
        object.__setattr__(self, "lo", (float(lo[0]), float(lo[1])))
        object.__setattr__(self, "hi", (float(hi[0]), float(hi[1])))

    @property
    def sides(self) -> tuple[float, float]:
        return (self.hi[0] - self.lo[0], self.hi[1] - self.lo[1])

    @property
    def area(self) -> float:
        w, h = self.sides
        return w * h

    @property
    def diagonal(self) -> float:
        w, h = self.sides
        return float(np.hypot(w, h))

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    def expand(self, margin: float) -> "Window":
        return Window((self.lo[0] - margin, self.lo[1] - margin),
                      (self.hi[0] + margin, self.hi[1] + margin))

    def scaled(self, t: float, about=(0.0, 0.0)) -> "Window":
        """Scale by t about a point (default: the global origin)."""
        a = np.asarray(about, float)
        lo = a + t * (np.asarray(self.lo) - a)
        hi = a + t * (np.asarray(self.hi) - a)
        return Window(tuple(lo), tuple(hi))

    def contains_points(self, pts: np.ndarray, closed: bool = True) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if closed:
            return ((pts[:, 0] >= self.lo[0]) & (pts[:, 0] <= self.hi[0])
                    & (pts[:, 1] >= self.lo[1]) & (pts[:, 1] <= self.hi[1]))
        return ((pts[:, 0] >= self.lo[0]) & (pts[:, 0] < self.hi[0])
                & (pts[:, 1] >= self.lo[1]) & (pts[:, 1] < self.hi[1]))

    def contains_window(self, other: "Window", tol: float = 0.0) -> bool:
        return (other.lo[0] >= self.lo[0] - tol and other.lo[1] >= self.lo[1] - tol
                and other.hi[0] <= self.hi[0] + tol and other.hi[1] <= self.hi[1] + tol)

    def intersects(self, other: "Window") -> bool:
        return not (other.hi[0] < self.lo[0] or other.lo[0] > self.hi[0]
                    or other.hi[1] < self.lo[1] or other.lo[1] > self.hi[1])

    @staticmethod
    def from_json(obj) -> "Window":
        if not (isinstance(obj, list) and len(obj) == 2 and all(
                isinstance(c, list) and all(type(v) in (int, float) for v in c) for c in obj)):
            raise ParameterError(f"a window must be [[x0, y0], [x1, y1]] of numbers, got {obj!r}")
        return Window(tuple(obj[0]), tuple(obj[1]))


def _ring_next(ptr: np.ndarray, m: int) -> np.ndarray:
    """Index of the next vertex of every vertex of m ragged rings."""
    full = ptr[:-1] < ptr[1:]
    nxt = np.arange(1, m + 1)
    nxt[ptr[1:][full] - 1] = ptr[:-1][full]  # each ring closes on its first vertex
    return nxt


def gather_rings(xy: np.ndarray, ptr: np.ndarray, ids) -> tuple[np.ndarray, np.ndarray]:
    """The rings of the given ids, in that order, as one ragged (xy, ptr) pair."""
    ids = np.asarray(ids, int)
    starts = ptr[ids]
    lengths = ptr[ids + 1] - starts
    out_ptr = np.concatenate([[0], np.cumsum(lengths)])
    rows = np.repeat(starts - out_ptr[:-1], lengths) + np.arange(out_ptr[-1])
    return np.take(xy, rows, axis=0), out_ptr


def clip_rings_to_window(xy: np.ndarray, ptr: np.ndarray,
                         win: Window) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of every ring xy[ptr[i]:ptr[i + 1]] to a window.

    Each of the window's four half-planes {x : <normal, x> <= offset} is one
    pass over all rings at once. A pass walks each ring's edges (p_i, p_j),
    j the next vertex, and emits p_i when it is inside, then the crossing
    p_i + t (p_j - p_i), t = d_i / (d_i - d_j), when exactly one end is
    inside. Returns the clipped rings as (xy, ptr); a ring with nothing
    inside becomes empty.
    """
    xy = np.asarray(xy, float).reshape(-1, 2)
    ptr = np.asarray(ptr, int)
    for normal, offset in (((-1.0, 0.0), -win.lo[0]), ((1.0, 0.0), win.hi[0]),
                           ((0.0, -1.0), -win.lo[1]), ((0.0, 1.0), win.hi[1])):
        nxt = _ring_next(ptr, len(xy))
        dist = xy @ np.asarray(normal) - offset
        inside = dist <= 0.0
        cross = np.nonzero(inside != inside[nxt])[0]
        di, dj = dist[cross], dist[nxt[cross]]
        t = di / (di - dj)
        pi, pj = np.take(xy, cross, axis=0), np.take(xy, nxt[cross], axis=0)
        # slot 0 holds p_i, slot 1 the crossing on the edge leaving p_i
        emit = np.zeros((len(xy), 2), bool)
        emit[:, 0] = inside
        emit[cross, 1] = True
        slots = np.empty((len(xy), 2, 2))
        slots[:, 0] = xy
        slots[cross, 1] = pi + t[:, None] * (pj - pi)
        xy = np.compress(emit.ravel(), slots.reshape(-1, 2), axis=0)
        ptr = np.concatenate([[0], np.cumsum(emit.sum(axis=1))])[ptr]
    return xy, ptr


def ring_extents(xy: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """[xmin, ymin, xmax, ymax] of every ring xy[ptr[i]:ptr[i + 1]] (NaN for
    an empty ring)."""
    full = ptr[:-1] < ptr[1:]
    starts = ptr[:-1][full]
    ext = np.full((len(ptr) - 1, 4), np.nan)
    ext[full] = np.column_stack([np.minimum.reduceat(xy, starts),
                                 np.maximum.reduceat(xy, starts)])
    return ext


def parts_with_area(xy: np.ndarray, ptr: np.ndarray, win: Window, tol: float):
    """(mask, extents) of the parts of convex rings inside win: the mask
    keeps a part wider and taller than tol, so a ring touching win only
    along a side or at a corner does not meet it."""
    ext = ring_extents(*clip_rings_to_window(xy, ptr, win))
    return (ext[:, 2] - ext[:, 0] > tol) & (ext[:, 3] - ext[:, 1] > tol), ext


def region_index_range(region: Window, delta: float):
    """(i0, i1, j0, j1): the boxes (i, j), i0 <= i <= i1 and j0 <= j <= j1,
    of the delta-grid that lie fully inside region (with float slack)."""
    if delta <= 0:
        raise ParameterError("grid delta must be positive")
    eps = 1e-9 * delta
    i0 = math.ceil(region.lo[0] / delta + 0.5 - eps)
    i1 = math.floor(region.hi[0] / delta - 0.5 + eps)
    j0 = math.ceil(region.lo[1] / delta + 0.5 - eps)
    j1 = math.floor(region.hi[1] / delta - 0.5 + eps)
    if i1 < i0 or j1 < j0:
        raise ParameterError("region holds no complete grid box at this delta")
    return i0, i1, j0, j1


def boxes_window(delta: float, lo, hi) -> Window:
    """The window that the boxes (i, j), lo <= (i, j) <= hi, of the
    delta-grid cover."""
    return Window(tuple((np.asarray(lo) - 0.5) * delta), tuple((np.asarray(hi) + 0.5) * delta))


def rings_meet_boxes(xy: np.ndarray, ptr: np.ndarray, ids, boxes, delta: float,
                     tol: float) -> np.ndarray:
    """Mask of the pairs (ring ids[k], grid box boxes[k]) that meet in
    positive area, box (a, b) being delta * ((a, b) + [-1/2, 1/2]^2).

    Each pair's ring is shifted by its box's centre, so one clip to the
    origin box serves every pair.
    """
    ring_xy, ring_ptr = gather_rings(xy, ptr, ids)
    centres = np.asarray(boxes, float).reshape(-1, 2) * delta
    ring_xy = ring_xy - np.repeat(centres, np.diff(ring_ptr), axis=0)
    half = delta / 2.0
    return parts_with_area(ring_xy, ring_ptr, Window((-half, -half), (half, half)), tol)[0]


def point_in_convex_polygon(point, poly: np.ndarray, tol: float = 0.0) -> bool:
    """Membership test for a CCW convex polygon, boundary counts within tol."""
    p = np.asarray(point, float)
    a = poly
    b = np.roll(poly, -1, axis=0)
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
    return bool(np.all(cross >= -tol))


def clip_segments_to_rect(a: np.ndarray, b: np.ndarray, rect: Window):
    """Liang-Barsky clip of many segments a[i]->b[i] to a rectangle, vectorized.

    Returns (inside, lengths): a boolean mask of segments whose intersection
    with the rectangle is non-empty, and the clipped lengths (0 for point
    contacts and for segments entirely outside).
    """
    a = np.atleast_2d(a).astype(float)
    b = np.atleast_2d(b).astype(float)
    d = b - a
    t0 = np.zeros(len(a))
    t1 = np.ones(len(a))
    ok = np.ones(len(a), bool)
    for axis, (lo, hi) in enumerate(((rect.lo[0], rect.hi[0]), (rect.lo[1], rect.hi[1]))):
        p = d[:, axis]
        par = p == 0.0
        ok &= ~(par & ((a[:, axis] < lo) | (a[:, axis] > hi)))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = (lo - a[:, axis]) / p
            t_hi = (hi - a[:, axis]) / p
        enter = np.minimum(t_lo, t_hi)
        leave = np.maximum(t_lo, t_hi)
        t0 = np.where(par, t0, np.maximum(t0, enter))
        t1 = np.where(par, t1, np.minimum(t1, leave))
    ok &= t0 <= t1 + 1e-15
    seg_len = np.linalg.norm(d, axis=1) * np.clip(t1 - t0, 0.0, None)
    seg_len = np.where(ok, seg_len, 0.0)
    return ok, seg_len
