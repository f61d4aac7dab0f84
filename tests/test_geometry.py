import numpy as np
import pytest

from tessperc.errors import ParameterError
from tessperc.geometry import (GridRegion, Window, clip_polygon_to_window,
                               clip_segments_to_rect, point_in_convex_polygon,
                               polygon_area)


def test_window_validation():
    with pytest.raises(ParameterError):
        Window((0, 0), (0, 1))
    with pytest.raises(ParameterError):
        Window((2, 0), (1, 1))
    w = Window((-1, -2), (3, 4))
    assert w.area == 24
    assert w.sides == (4, 6)


def test_window_scaled_about_origin():
    q = Window((1, 0), (2, 1))
    tq = q.scaled(3.0)
    assert tq.lo == (3.0, 0.0) and tq.hi == (6.0, 3.0)
    anchored = q.scaled(2.0, about=q.lo)
    assert anchored.lo == (1.0, 0.0) and anchored.hi == (3.0, 2.0)


def test_window_expand_contains_intersects():
    w = Window((0, 0), (10, 10))
    assert w.expand(2).lo == (-2, -2)
    assert w.contains_window(Window((1, 1), (9, 9)))
    assert not w.contains_window(Window((1, 1), (11, 9)))
    assert w.intersects(Window((9, 9), (12, 12)))
    assert not w.intersects(Window((11, 11), (12, 12)))


def test_polygon_area_orientation():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    assert polygon_area(sq) == pytest.approx(1.0)
    assert polygon_area(sq[::-1]) == pytest.approx(-1.0)


def test_clip_polygon_to_window():
    sq = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], float)
    clipped = clip_polygon_to_window(sq, Window((1, 1), (3, 3)))
    assert polygon_area(clipped) == pytest.approx(1.0)
    empty = clip_polygon_to_window(sq, Window((5, 5), (6, 6)))
    assert len(empty) == 0


def test_point_in_convex_polygon():
    tri = np.array([[0, 0], [2, 0], [0, 2]], float)
    assert point_in_convex_polygon((0.5, 0.5), tri)
    assert not point_in_convex_polygon((2, 2), tri)
    assert point_in_convex_polygon((1, 1), tri, tol=1e-12)  # on the edge


def test_clip_segments_to_rect():
    rect = Window((0, 0), (10, 10))
    a = np.array([[-5, 5], [2, 2], [-1, 1], [0, 11]])
    b = np.array([[15, 5], [4, 2], [1, -1], [10, 11]])
    ok, lengths = clip_segments_to_rect(a, b, rect)
    assert ok.tolist() == [True, True, True, False]
    assert lengths[0] == pytest.approx(10.0)   # spans the rect fully
    assert lengths[1] == pytest.approx(2.0)    # interior segment
    assert lengths[2] == pytest.approx(0.0)    # touches only the corner
    assert lengths[3] == 0.0


def test_clip_segments_touching_boundary():
    rect = Window((0, 0), (1, 1))
    # vertical segment running along the right edge
    ok, lengths = clip_segments_to_rect(np.array([[1.0, -1.0]]), np.array([[1.0, 2.0]]), rect)
    assert ok[0] and lengths[0] == pytest.approx(1.0)


def test_grid_region():
    reg = GridRegion.rectangle(0.5, 2, 2)
    assert reg.area == pytest.approx(1.0)
    w = reg.bounding_window()
    assert w.lo == (-0.25, -0.25) and w.hi == (0.75, 0.75)
    pts = np.array([[0.0, 0.0], [0.6, 0.6], [5.0, 5.0]])
    assert reg.count_points(pts) == 2
    with pytest.raises(ParameterError):
        GridRegion(0.0, ((0, 0),))
