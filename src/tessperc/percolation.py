"""Bernoulli cell coloring, cluster labeling and rectangle crossing events.

A colouring is one uniform per cell: the cells with uniforms < p are black at
p and the others white, so every p reads the same randomness (monotone
coupling across p), and a query takes the black mask, white being ~black.
A cell graph is an (m, 2) array of cell pairs, and two numpy kernels serve
it. Every cluster is found by label_components: each active cell is
labelled with the smallest cell id in its component, inactive cells with -1.
It re-reads every active edge each round (a hook can move a non-root and so
part a joined edge), and it ends as each round lowers the sum of the parents.
Every graph ball is grown by hop_balls, which takes the balls of many roots
at once, one gather per hop from the compressed neighbour lists that
neighbor_csr makes of the graph.
Crossing connectivity inside a rectangle is geometric: a cell takes part only
where it meets the rectangle in positive area, face edges count only where
the shared boundary segment clipped to the rectangle has positive length, and
star mode additionally accepts corner contacts inside the rectangle.

None of that geometry depends on the colours: rect_graph builds it once for
every cell of a tessellation, and it alone reads and checks the adjacency.
crossing and spanning_cluster_count take its graph and only label it under
a colour's active mask, so a caller builds each rect's graph once per
tessellation and asks it at every p and colour. A CrossingQuery names the
event (rect, direction, colour), not the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError
from .geometry import Window, clip_segments_to_rect, gather_rings, parts_with_area

if TYPE_CHECKING:  # tessellation builds on label_components
    from .tessellation import Tessellation


def color(tess: Tessellation, rng: np.random.Generator) -> np.ndarray:
    """Per cell, the uniform that rng draws for its generator, one per
    generator in generator order; the colouring at p is uniforms < p."""
    return rng.random(tess.generators[-1] + 1)[tess.generators]


def label_components(active: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Connected components of the active vertices of an edge list.

    labels[v] is the smallest vertex id in v's component for active v and -1
    for inactive v; edges with an inactive endpoint are ignored. Each round
    hooks the larger parent of each edge's ends under the least smaller one,
    then jumps every vertex to its great-grandparent (Shiloach and Vishkin,
    J. Algorithms 3 (1982) 57-67). Every edge is read each round: a hook can
    move a non-root and part an edge whose ends shared a parent. Parents
    never exceed their vertex and stay in its component, so a round that
    finds unequal parents lowers parent.sum() (a flat forest's hook moves a
    root, else the hook or the jump moves some vertex) and the loop ends,
    with each tree rooted at its smallest id.
    """
    parent = np.arange(len(active))
    edges = np.asarray(edges, int).reshape(-1, 2)
    a, b = edges[active[edges[:, 0]] & active[edges[:, 1]]].T
    while True:
        ra, rb = parent[a], parent[b]
        if (ra == rb).all():
            break
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        parent = parent[parent[parent]]
    while not ((jumped := parent[parent]) == parent).all():
        parent = jumped
    return np.where(active, parent, -1)


def neighbor_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, nbr): the sorted, duplicate-free neighbours of vertex v of an
    undirected edge list over 0..n-1 are nbr[ptr[v]:ptr[v + 1]]."""
    e = np.asarray(edges, int).reshape(-1, 2)
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique sorts far slower
    return np.searchsorted(keys // n, np.arange(n + 1)), keys % n


def hop_balls(edges: np.ndarray, n: int, roots, radius: int):
    """(owner, vertex, hops): every vertex within radius hops of each root of
    a graph on vertices 0..n-1, with its hop distance from roots[owner].

    One row per (root position, vertex) pair, ordered by owner, then hops,
    then vertex; a repeated root gets a ball per position. Each hop gathers
    the neighbours of every ball's shell at once, as keys owner * n + vertex,
    and keeps the keys in neither of the last two shells (in an undirected
    graph no neighbour of shell h lies further in).
    """
    if radius < 0:
        raise ParameterError("ball radius must be nonnegative")
    ptr, nbr = neighbor_csr(n, edges)
    roots = np.asarray(roots, int).reshape(-1)
    shells = [np.arange(len(roots)) * n + roots]  # sorted, duplicate-free keys
    for _ in range(radius):
        front = shells[-1]
        v = front % n
        deg = ptr[v + 1] - ptr[v]
        at = np.repeat(ptr[v] - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
        reached = np.repeat(front - v, deg) + nbr[at]
        # known keys get even codes and reached ones odd, so after one sort a
        # run of equal keys starts with an odd code iff its key is new
        code = np.sort(np.concatenate([2 * np.concatenate(shells[-2:]), 2 * reached + 1]))
        shells.append(code[(np.diff(code >> 1, prepend=-1) != 0) & (code % 2 == 1)] >> 1)
    keys = np.concatenate(shells)
    hops = np.repeat(np.arange(len(shells)), [len(k) for k in shells])
    rows = np.sort((keys // n * len(shells) + hops) * n + keys % n)  # owner, hops, vertex
    return rows // n // len(shells), rows % n, rows // n % len(shells)


@dataclass(frozen=True)
class CrossingQuery:
    rect: Window
    direction: str = "horizontal"
    color: str = "black"

    def __post_init__(self):
        if self.direction not in ("horizontal", "vertical"):
            raise ParameterError("direction must be horizontal or vertical")
        if self.color not in ("black", "white"):
            raise ParameterError("color must be black or white")


def _cells_in_rect(tess: Tessellation, rect: Window):
    """Cells that meet rect in positive area, as a mask, and the
    [xmin, ymin, xmax, ymax] extents of their parts inside rect in
    increasing id order.

    A cell whose bbox lies inside rect is its own part. The cells that cross
    the rectangle's boundary are clipped to it in one batch by
    parts_with_area, which drops a cell touching rect only along a side or
    at a corner.
    """
    ids = tess.cells_meeting(rect)
    ext = tess.bboxes[ids]
    keep = ((ext[:, 0] >= rect.lo[0]) & (ext[:, 1] >= rect.lo[1])
            & (ext[:, 2] <= rect.hi[0]) & (ext[:, 3] <= rect.hi[1]))
    cut = np.nonzero(~keep)[0]
    keep[cut], ext[cut] = parts_with_area(*gather_rings(tess.poly_xy, tess.poly_ptr, ids[cut]),
                                          rect, tess.tol)
    in_rect = np.zeros(len(tess), bool)
    in_rect[ids[keep]] = True
    return in_rect, ext[keep]


def _rect_edges(tess: Tessellation, in_rect: np.ndarray, rect: Window,
                adjacency: str) -> np.ndarray:
    """Pairs of in-rect cells whose shared boundary piece inside rect has
    positive length; star mode also takes point contacts inside rect."""
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


def rect_graph(tess: Tessellation, rect: Window, adjacency: str):
    """(edges, sides): the graph of all cells inside rect, whatever their
    colour. edges join in-rect cells; sides holds the ids of the in-rect
    cells that reach each side of rect, in the order L, R, B, T."""
    if adjacency not in ("face", "star"):
        raise ParameterError("adjacency must be face or star")
    if not tess.core_window.contains_window(rect, tol=tess.tol):
        raise ParameterError("rectangle must lie inside the core window")
    in_rect, ext = _cells_in_rect(tess, rect)
    ids, tol = np.nonzero(in_rect)[0], tess.tol
    sides = (ids[ext[:, 0] <= rect.lo[0] + tol], ids[ext[:, 2] >= rect.hi[0] - tol],
             ids[ext[:, 1] <= rect.lo[1] + tol], ids[ext[:, 3] >= rect.hi[1] - tol])
    return _rect_edges(tess, in_rect, rect, adjacency), sides


def common_labels(labels: np.ndarray, first, second) -> np.ndarray:
    """The sorted distinct labels >= 0 that cells of both first and second
    (id arrays or masks) carry under labels, a label_components output."""
    mark = np.zeros((2, len(labels) + 1), bool)  # the -1 of inactive cells: the last slot
    mark[0, labels[first]] = True
    mark[1, labels[second]] = mark[0, labels[second]]
    return np.nonzero(mark[1, :-1])[0]


def _spanning_labels(active: np.ndarray, graph, direction: str) -> np.ndarray:
    """Labels of the components of active cells of a rect_graph that join
    its start and end sides (left/right when horizontal, else bottom/top).

    An edge of the graph joins two in-rect cells, so an in-rect cell's
    component under label_components(active, edges) is its component among
    the active in-rect cells; inactive side cells carry -1 and are dropped.
    """
    edges, sides = graph
    start, end = (0, 1) if direction == "horizontal" else (2, 3)
    return common_labels(label_components(active, edges), sides[start], sides[end])


def crossing(graph, black: np.ndarray, query: CrossingQuery) -> bool:
    """True iff some component of the query's colour (black, or ~black for
    white) in graph, the rect_graph of query.rect, joins the rectangle's
    start and end sides through interiors and shared boundary pieces inside
    the rect."""
    active = black if query.color == "black" else ~black
    return len(_spanning_labels(active, graph, query.direction)) > 0


def spanning_cluster_count(graph, black: np.ndarray) -> int:
    """Number of distinct black components of a rect_graph joining its
    rect's left and right sides."""
    return len(_spanning_labels(black, graph, "horizontal"))


def cluster_reach(tess: Tessellation, edges: np.ndarray, black: np.ndarray,
                  root: int) -> float:
    """Max Euclidean distance from the origin reached by the root's black
    cluster in the cell graph edges.

    Returns 0.0 when the root cell is white (empty cluster).
    """
    if not black[root]:
        return 0.0
    labels = label_components(black, edges)
    corners = tess.poly_xy[np.repeat(labels == labels[root], np.diff(tess.poly_ptr))]
    return float(np.sqrt((corners ** 2).sum(axis=1)).max())
