from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tessperc.errors import ParameterError
from tessperc.estimators import ggr_diagnostics
from tessperc.experiment import ExperimentSpec
from tessperc.geometry import Window
from tessperc.percolation import hop_balls
from tessperc.point_process import ProcessSpec, sample_poisson
from tessperc.streams import stream
from tessperc.tessellation import (build_adjacency, build_lattice_tessellation,
                                   build_voronoi, zero_cell)


def square_graph(half=12):
    w = float(half) + 0.5
    tess = build_lattice_tessellation("square", 1.0, (-0.5, -0.5),
                                      Window((-w, -w), (w, w)))
    return build_adjacency(tess, "face"), tess


def test_ball_basics():
    edges, tess = square_graph(6)
    n, root = len(tess), zero_cell(tess)
    owner, vertex, hops = hop_balls(edges, n, [root], 0)
    assert (owner.tolist(), vertex.tolist(), hops.tolist()) == ([0], [root], [0])
    both = np.concatenate([edges, edges[:, ::-1]])
    for radius in (1, 2, 4):
        _, vertex, hops = hop_balls(edges, n, [root], radius + 1)
        ball = vertex[hops <= radius]
        assert len(ball) == 2 * radius * radius + 2 * radius + 1
        # the rim, hop radius + 1, is the outer boundary of the ball
        inside = np.isin(both, ball)
        outer = set(both[inside[:, 0] & ~inside[:, 1], 1].tolist())
        assert set(vertex[hops == radius + 1].tolist()) == outer
    with pytest.raises(ParameterError):
        hop_balls(edges, n, [root], -1)


def test_ball_truncation_flag():
    """ggr refuses a ball that reaches a cell on the window's boundary."""
    spec = ExperimentSpec(process=ProcessSpec("square_lattice", {"spacing": 1.0}),
                          window=Window((-3.5, -3.5), (3.5, 3.5)), ps=(0.5,), replicates=2,
                          master_seed=3)
    assert ggr_diagnostics(spec, 2, workers=1).ball_sizes == [1, 5, 13]
    with pytest.raises(ParameterError, match="n_max ball leaves the core window"):
        ggr_diagnostics(spec, 3, workers=1)


def bfs_ball(neighbors, root, radius) -> dict:
    """Reference: vertex -> hop distance within radius of root, by a deque BFS."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in neighbors[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@lru_cache(maxsize=None)
def reference_graph(name: str, mode: str):
    """(edges, n, neighbour lists) of a small tessellation."""
    core = Window((-4.0, -4.0), (4.0, 4.0))
    if name == "voronoi":
        tess = build_voronoi(sample_poisson(1.5, core.expand(3.0), stream(5, 0, "tess")), core)
    else:
        tess = build_lattice_tessellation(name, 1.0, (0.3, 0.1), core)
    edges = build_adjacency(tess, mode)
    neighbors = [[] for _ in range(len(tess))]
    for i, j in edges.tolist():
        neighbors[i].append(j)
        neighbors[j].append(i)
    return edges, len(tess), neighbors


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["voronoi", "square", "hexagonal"]),
       mode=st.sampled_from(["face", "star"]), radius=st.integers(0, 4), data=st.data())
def test_hop_balls_match_a_breadth_first_search(name, mode, radius, data):
    edges, n, neighbors = reference_graph(name, mode)
    roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    roots += data.draw(st.lists(st.sampled_from(roots), max_size=3))  # repeated roots
    owner, vertex, hops = hop_balls(edges, n, roots, radius)
    rows = list(zip(owner.tolist(), hops.tolist(), vertex.tolist()))
    assert rows == sorted(rows)
    for k, root in enumerate(roots):
        mine = owner == k
        got = dict(zip(vertex[mine].tolist(), hops[mine].tolist()))
        assert len(got) == mine.sum()
        assert got == bfs_ball(neighbors, root, radius)
