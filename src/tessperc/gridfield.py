"""The two kernels on geometry's delta-grid, box fields over a tessellation
and greedy-animal maximization.

box_counts counts points per box: Y (cell centers per box) and the Laplace
count use it. cell_box_pairs lists the (cell, box) pairs that meet in
positive area: U (boxes from which a single cell reaches boxes at
l-infinity index distance >= 2) and the Peierls probe use it.
greedy_animal_max finds connected n-box sets maximizing the field average
by randomized local search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    n: int
    best_value: float
    best_animal: list


def _grid_neighbors(ni: int, nj: int):
    def nbrs(k: int):
        i, j = divmod(k, nj)
        out = []
        if i > 0:
            out.append(k - nj)
        if i < ni - 1:
            out.append(k + nj)
        if j > 0:
            out.append(k - 1)
        if j < nj - 1:
            out.append(k + 1)
        return out
    return nbrs


def _connected_after_swap(animal: set, drop: int, add: int, nbrs) -> bool:
    new_set = (animal - {drop}) | {add}
    start = next(iter(new_set))
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        for w in nbrs(v):
            if w in new_set and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(new_set)


# Local search effort: random-restart count, connectivity rejections allowed
# per improvement round, and kick-and-regrow rounds per restart.
LOCAL_SEARCH_STARTS = 32
LOCAL_SEARCH_PATIENCE = 200
LOCAL_SEARCH_KICKS = 4


def _local_search_max(values: np.ndarray, n: int, anchor_id: int | None,
                      rng: np.random.Generator):
    ni, nj = values.shape
    flat = values.ravel().astype(float)
    nbrs = _grid_neighbors(ni, nj)
    n_boxes = ni * nj

    def boundary_of(animal):
        out = set()
        for v in animal:
            out.update(x for x in nbrs(v) if x not in animal)
        return out

    def grow(animal, eps):
        boundary = boundary_of(animal)
        while len(animal) < n:
            cand = list(boundary)
            if rng.random() < eps:
                pick = cand[int(rng.integers(len(cand)))]
            else:
                vals = flat[cand]
                top = np.nonzero(vals >= vals.max())[0]
                pick = cand[int(top[rng.integers(len(top))])]
            animal.add(pick)
            boundary.discard(pick)
            boundary.update(w for w in nbrs(pick) if w not in animal)
        return animal

    def descend(animal):
        # only value-improving (add u, drop w) swaps are proposed
        boundary = boundary_of(animal)
        while True:
            droppable = [v for v in animal if v != anchor_id]
            if not droppable:
                break
            a_min = min(flat[a] for a in droppable)
            u_cands = [b for b in boundary if flat[b] > a_min]
            if not u_cands:
                break
            improved = False
            for _ in range(LOCAL_SEARCH_PATIENCE):
                u = u_cands[int(rng.integers(len(u_cands)))]
                w_cands = [a for a in droppable if flat[a] < flat[u]]
                w = w_cands[int(rng.integers(len(w_cands)))]
                if _connected_after_swap(animal, w, u, nbrs):
                    animal.discard(w)
                    animal.add(u)
                    boundary = boundary_of(animal)
                    improved = True
                    break
            if not improved:
                break
        return animal

    def kick(animal):
        # keep a random connected half, regrow with moderate exploration
        keep_size = max(1, (n + 1) // 2)
        seed = anchor_id if anchor_id is not None else \
            sorted(animal)[int(rng.integers(len(animal)))]
        kept = {seed}
        frontier = [seed]
        while len(kept) < keep_size and frontier:
            v = frontier[int(rng.integers(len(frontier)))]
            nxt = [w for w in nbrs(v) if w in animal and w not in kept]
            if not nxt:
                frontier.remove(v)
                continue
            w = nxt[int(rng.integers(len(nxt)))]
            kept.add(w)
            frontier.append(w)
        return grow(kept, 0.3)

    best_total = -math.inf
    best_animal = None
    ranked = list(np.argsort(-flat, kind="stable"))
    starts = LOCAL_SEARCH_STARTS
    for s in range(starts):
        if anchor_id is not None:
            start = anchor_id
        elif s < max(1, starts // 2) and s < n_boxes:
            start = int(ranked[s])
        else:
            start = int(rng.integers(n_boxes))
        eps = 0.0 if s == 0 else s / starts
        animal = descend(grow({start}, eps))
        total = sum(flat[v] for v in animal)
        for _ in range(LOCAL_SEARCH_KICKS):
            trial = descend(kick(set(animal)))
            t_total = sum(flat[v] for v in trial)
            if t_total > total:
                animal, total = trial, t_total
        if total > best_total:
            best_total = total
            best_animal = sorted(animal)
    return best_total, best_animal


def greedy_animal_max(field: GridField, n: int, rng: np.random.Generator,
                      anchor=None) -> AnimalSearchResult:
    """Connected n-box set maximizing the field average, found by local
    search drawing from rng.

    anchor=None searches animals anywhere in the field; anchor=(i, j) pins
    the animal to contain that box (the per-site variant).
    """
    ni, nj = field.values.shape
    if n < 1 or n > ni * nj:
        raise ParameterError(f"animal size {n} does not fit the field")
    anchor_id = None
    if anchor is not None:
        ai, aj = int(anchor[0]), int(anchor[1])
        if not field.contains_index(ai, aj):
            raise ParameterError(f"anchor box {anchor} outside the field range")
        anchor_id = (ai - field.i0) * nj + (aj - field.j0)
    total, animal = _local_search_max(field.values, n, anchor_id, rng)
    abs_animal = [(field.i0 + k // nj, field.j0 + k % nj) for k in sorted(animal)]
    return AnimalSearchResult(n=n, best_value=float(total) / n, best_animal=abs_animal)
