"""Grid box fields over a tessellation and greedy-animal maximization.

Y counts cell centers per delta-box; U marks boxes from which a single cell
reaches boxes at l-infinity index distance >= 2 (the large-cell indicator).
Which boxes a cell meets in positive area is decided for all candidate
(cell, box) pairs at once by geometry.rings_meet_boxes. greedy_animal_max
finds connected n-box sets maximizing the field average by randomized local
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import Window, rings_meet_boxes
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


def region_index_range(region: Window, delta: float):
    """Indices of boxes fully contained in the region (with float slack)."""
    eps = 1e-9 * delta
    i0 = math.ceil(region.lo[0] / delta + 0.5 - eps)
    i1 = math.floor(region.hi[0] / delta - 0.5 + eps)
    j0 = math.ceil(region.lo[1] / delta + 0.5 - eps)
    j1 = math.floor(region.hi[1] / delta - 0.5 + eps)
    if i1 < i0 or j1 < j0:
        raise ParameterError("region holds no complete grid box at this delta")
    return i0, i1, j0, j1


def _field_range(tess: Tessellation, delta: float, region: Window):
    """region_index_range of a field over region, checked against tess."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if not tess.core_window.contains_window(region, tol=tess.tol):
        raise ParameterError("region must lie inside the core window")
    return region_index_range(region, delta)


def compute_Y_field(tess: Tessellation, delta: float, region: Window) -> GridField:
    """Per-box count of cell centers; boxes are half-open so no double counting."""
    i0, i1, j0, j1 = _field_range(tess, delta, region)
    values = np.zeros((i1 - i0 + 1, j1 - j0 + 1), int)
    idx = np.floor(tess.centers / delta + 0.5).astype(int) - (i0, j0)
    inside = ((idx >= 0) & (idx < values.shape)).all(axis=1)
    np.add.at(values, tuple(idx[inside].T), 1)
    return GridField(delta=delta, i0=i0, j0=j0, values=values)


def compute_U_field(tess: Tessellation, delta: float, region: Window) -> GridField:
    """Indicator per box: some single cell meets it and a box at index
    distance >= 2 (in l-infinity)."""
    i0, i1, j0, j1 = _field_range(tess, delta, region)
    values = np.zeros((i1 - i0 + 1, j1 - j0 + 1), np.int8)
    bb = tess.bboxes
    # cells whose bbox meets the region are the only ones that can set U
    cand = tess.cells_meeting(Window(((i0 - 0.5) * delta, (j0 - 0.5) * delta),
                                     ((i1 + 0.5) * delta, (j1 + 0.5) * delta)))
    # every candidate is paired with each box of its bbox's index range
    lo = np.ceil(bb[cand, :2] / delta - 0.5 - 1e-12).astype(int)
    hi = np.floor(bb[cand, 2:] / delta + 0.5 + 1e-12).astype(int)
    span = hi - lo + 1
    count = span[:, 0] * span[:, 1]
    cell = np.repeat(np.arange(len(cand)), count)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    boxes = lo[cell] + np.column_stack([k // span[cell, 1], k % span[cell, 1]])
    hit = rings_meet_boxes(tess.poly_xy, tess.poly_ptr, cand[cell], boxes, delta, tess.tol)
    cell, boxes = cell[hit], boxes[hit]
    # index extents of the boxes each cell meets
    first, last = hi.copy(), lo.copy()
    np.minimum.at(first, cell, boxes)
    np.maximum.at(last, cell, boxes)
    reach = np.maximum(last[cell] - boxes, boxes - first[cell]).max(axis=1)
    inside = ((boxes >= (i0, j0)) & (boxes <= (i1, j1))).all(axis=1)
    ab = boxes[inside & (reach >= 2)] - (i0, j0)
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
