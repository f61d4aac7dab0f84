"""The two kernels on geometry's delta-grid, box fields over a tessellation
and greedy-animal maximization.

box_counts counts points per box: Y (cell centers per box) and the Laplace
count use it. cell_box_pairs lists the (cell, box) pairs that meet in
positive area: U (boxes from which a single cell reaches boxes at
l-infinity index distance >= 2) and the Peierls probe use it.
greedy_animal_max finds connected n-box sets maximizing the field average
by branch and bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .geometry import Window, boxes_window, region_index_range, rings_meet_boxes
from .tessellation import Tessellation


@dataclass
class GridField:
    """Per-box values on an origin-aligned integer index rectangle.

    Box (i, j) is delta * ((i, j) + [-1/2, 1/2]^2); values[i - i0, j - j0]
    holds its statistic.
    """

    delta: float
    i0: int
    j0: int
    values: np.ndarray

    def contains_index(self, i: int, j: int) -> bool:
        ni, nj = self.values.shape
        return self.i0 <= i < self.i0 + ni and self.j0 <= j < self.j0 + nj


def box_counts(pts: np.ndarray, delta: float, region: Window) -> GridField:
    """Number of points in each box of region. Boxes are half-open, so
    floor(x / delta + 1/2) puts each point in exactly one box."""
    i0, i1, j0, j1 = region_index_range(region, delta)
    values = np.zeros((i1 - i0 + 1, j1 - j0 + 1), int)
    idx = np.floor(np.reshape(pts, (-1, 2)) / delta + 0.5).astype(int) - (i0, j0)
    inside = ((idx >= 0) & (idx < values.shape)).all(axis=1)
    np.add.at(values, tuple(np.compress(inside, idx, axis=0).T), 1)
    return GridField(delta=delta, i0=i0, j0=j0, values=values)


def cell_box_pairs(tess: Tessellation, delta: float, cells) -> tuple[np.ndarray, np.ndarray]:
    """(ids, boxes): the pairs (cell ids[k], box boxes[k]) of the given
    cells and the delta-grid that meet in positive area, found by one
    rings_meet_boxes call over each cell's bbox index range."""
    cells = np.asarray(cells, int)
    bb = np.take(tess.bboxes, cells, axis=0)
    lo = np.ceil(bb[:, :2] / delta - 0.5 - 1e-12).astype(int)
    hi = np.floor(bb[:, 2:] / delta + 0.5 + 1e-12).astype(int)
    span = hi - lo + 1
    count = span[:, 0] * span[:, 1]
    cell = np.repeat(np.arange(len(cells)), count)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    cols = span[:, 1][cell]
    boxes = np.take(lo, cell, axis=0) + np.column_stack([k // cols, k % cols])
    hit = rings_meet_boxes(tess.poly_xy, tess.poly_ptr, cells[cell], boxes, delta, tess.tol)
    return cells[cell[hit]], np.compress(hit, boxes, axis=0)


def _check_region(tess: Tessellation, region: Window):
    """Refuse a field region that leaves the core window of tess."""
    if not tess.core_window.contains_window(region, tol=tess.tol):
        raise ParameterError("region must lie inside the core window")


def compute_Y_field(tess: Tessellation, delta: float, region: Window) -> GridField:
    """Per-box count of cell centers."""
    _check_region(tess, region)
    return box_counts(tess.centers, delta, region)


def compute_U_field(tess: Tessellation, delta: float, region: Window) -> GridField:
    """Indicator per box: some single cell meets it and a box at index
    distance >= 2 (in l-infinity)."""
    _check_region(tess, region)
    i0, i1, j0, j1 = region_index_range(region, delta)
    values = np.zeros((i1 - i0 + 1, j1 - j0 + 1), np.int8)
    # cells whose bbox meets the region's boxes are the only ones that can set U
    cells, boxes = cell_box_pairs(tess, delta,
                                  tess.cells_meeting(boxes_window(delta, (i0, j0), (i1, j1))))
    # index extents of the boxes each cell meets
    first = np.full((len(tess), 2), np.iinfo(int).max)
    last = np.full((len(tess), 2), np.iinfo(int).min)
    np.minimum.at(first, cells, boxes)
    np.maximum.at(last, cells, boxes)
    reach = np.maximum(np.take(last, cells, axis=0) - boxes,
                       boxes - np.take(first, cells, axis=0)).max(axis=1)
    inside = ((boxes >= (i0, j0)) & (boxes <= (i1, j1))).all(axis=1)
    ab = np.compress(inside & (reach >= 2), boxes, axis=0) - (i0, j0)
    values[ab[:, 0], ab[:, 1]] = 1
    return GridField(delta=delta, i0=i0, j0=j0, values=values)


@dataclass
class AnimalSearchResult:
    """The best animal found, its average, and an upper bound on the maximum
    average, which equals best_value when the search is exact."""
    n: int
    best_value: float
    best_animal: list
    bound: float


# Search nodes one greedy_animal_max call may expand. Past them it returns
# its best animal and the largest bound of the subtrees it left open.
ANIMAL_SEARCH_NODES = 2_000_000


def greedy_animal_max(field: GridField, n: int, anchor=None,
                      start: AnimalSearchResult | None = None) -> AnimalSearchResult:
    """Connected n-box set maximizing the field average, by branch and bound.

    Animals grow from a root box without duplicates, the most valuable
    candidate first; a branch is cut when its total, its best candidate and
    the top values of the boxes within l1 distance n - 1 of the root for the
    other boxes it lacks cannot beat the best total.
    anchor=(i, j) roots every animal at that box. anchor=None roots each
    animal at its first box in decreasing value order and tries the roots in
    that order until value(root) * n cannot win. start, a result on the same
    field and n whose animal this search also admits (an anchored one, for a
    free search), is the first incumbent and its bound a floor of the bound.
    """
    ni, nj = field.values.shape
    if n < 1 or n > ni * nj:
        raise ParameterError(f"animal size {n} does not fit the field")
    if anchor is not None and not field.contains_index(int(anchor[0]), int(anchor[1])):
        raise ParameterError(f"anchor box {anchor} outside the field range")
    flat = field.values.ravel().astype(float)
    order = np.argsort(-flat, kind="stable")
    rank = np.argsort(order)
    ii, jj = np.divmod(np.arange(len(flat)), nj)
    # on the grid padded by one blocked ring, box k has id pad[k] and the
    # neighbours of id v are v +- 1 and v +- w
    w = nj + 2
    pad = (ii + 1) * w + jj + 1
    value = np.pad(flat.reshape(ni, nj), 1).ravel().tolist()
    best = -math.inf if start is None else start.best_value * n
    animal, nodes = None, 0

    def grow(root: int) -> float:
        """Search the animals rooted at box root while the node budget lasts;
        the largest total bound of the branches left open, or -inf."""
        nonlocal best, animal, nodes
        after = rank > rank[root] if anchor is None else rank != rank[root]
        ball = after & (np.abs(ii - ii[root]) + np.abs(jj - jj[root]) <= n - 1)
        top = np.sort(flat[ball])[::-1][:n - 1]
        # the most that j more boxes add, j = 0, ..., n - 1 (-inf: fewer are left)
        tops = [0.0] + np.cumsum(top).tolist() + [-math.inf] * (n - 1 - len(top))
        blocked = np.ones(len(value), np.uint8)
        blocked[pad[after]] = 0
        seen = bytearray(blocked.tobytes())
        chosen = []
        frames = [([int(pad[root])], 0.0, ())]  # (candidates by value, total, ids it marked)
        while frames:
            cands, total, marks = frames[-1]
            d = len(frames) - 1
            if not cands or total + value[cands[-1]] + tops[n - 1 - d] <= best:
                frames.pop()
                for x in marks:
                    seen[x] = 0
                if frames:
                    chosen.pop()
                continue
            if nodes >= ANIMAL_SEARCH_NODES and best > -math.inf:
                return max(t + value[c[-1]] + tops[n - 1 - k]
                           for k, (c, t, _) in enumerate(frames) if c)
            nodes += 1
            v = cands.pop()
            if d + 1 == n:
                best, animal = total + value[v], chosen + [v]
                continue
            new = [x for x in (v - w, v - 1, v + 1, v + w) if not seen[x]]
            for x in new:
                seen[x] = 1
            chosen.append(v)
            frames.append((sorted(cands + new, key=value.__getitem__), total + value[v], new))
        return -math.inf

    open_total = -math.inf
    roots = order.tolist() if anchor is None else \
        [(int(anchor[0]) - field.i0) * nj + int(anchor[1]) - field.j0]
    for root in roots:
        if anchor is None and flat[root] * n <= best:
            break
        open_total = max(open_total, grow(root))
    if animal is None:
        return replace(start, bound=max(start.bound, open_total / n))
    floor = -math.inf if start is None else start.bound
    boxes = [(field.i0 + x // w - 1, field.j0 + x % w - 1) for x in sorted(animal)]
    return AnimalSearchResult(n, best / n, boxes, max(floor, max(best, open_total) / n))
