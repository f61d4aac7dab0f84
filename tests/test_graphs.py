import pytest

from tessperc.errors import ParameterError
from tessperc.geometry import Window
from tessperc.graphs import graph_ball, outer_boundary
from tessperc.tessellation import build_adjacency, build_lattice_tessellation


def square_graph(half=12):
    w = float(half) + 0.5
    tess = build_lattice_tessellation("square", 1.0, (-0.5, -0.5),
                                      Window((-w, -w), (w, w)))
    return build_adjacency(tess, "face"), tess


def test_ball_basics():
    g, _ = square_graph(6)
    b0 = graph_ball(g, g.root, 0)
    assert b0.vertices == {g.root}
    for n in (1, 2, 4):
        ball = graph_ball(g, g.root, n)
        assert len(ball.vertices) == 2 * n * n + 2 * n + 1
        nxt = graph_ball(g, g.root, n + 1).vertices
        outer = outer_boundary(g, ball.vertices)
        assert outer == nxt - ball.vertices
    with pytest.raises(ParameterError):
        graph_ball(g, g.root, -1)


def test_ball_truncation_flag():
    g, _ = square_graph(3)
    assert not graph_ball(g, g.root, 2).truncated
    assert graph_ball(g, g.root, 3).truncated  # reaches boundary cells
