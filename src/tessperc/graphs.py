"""Graph balls and outer boundaries on adjacency graphs."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ParameterError
from .tessellation import AdjacencyGraph


@dataclass
class BallResult:
    vertices: set
    distances: dict
    truncated: bool


def graph_ball(graph: AdjacencyGraph, root: int, n: int) -> BallResult:
    """BFS ball B_n(root); truncated if any member is not core-interior."""
    if n < 0:
        raise ParameterError("ball radius must be nonnegative")
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if dist[v] == n:
            continue
        for w in graph.neighbors[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    verts = set(dist)
    truncated = bool(any(graph.boundary_flags[v] for v in verts))
    return BallResult(vertices=verts, distances=dist, truncated=truncated)


def outer_boundary(graph: AdjacencyGraph, vertex_set) -> set:
    s = set(vertex_set)
    return {w for v in s for w in graph.neighbors[v]} - s
