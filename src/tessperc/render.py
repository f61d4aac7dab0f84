"""SVG rendering of colored tessellations (one polygon per cell)."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .geometry import Window, clip_rings_to_window, gather_rings
from .tessellation import Tessellation, build_adjacency

_BLACK = "#000000"
_WHITE = "#ffffff"
_EDGE = {"face": "#d62728", "star": "#1f77b4"}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_svg(tess: Tessellation, black: np.ndarray, out_path, show_graph: str = "none",
               core_only: bool = False) -> None:
    """Write an SVG 1.1 drawing: the cell polygons in id order, black where
    the mask black holds and white elsewhere, plus an optional
    center-to-center adjacency overlay. The full view frames every cell,
    the core-only view the core window.

    SVG y runs downward, so y coordinates are negated to keep the math
    orientation.
    """
    if show_graph not in ("none", "face", "star"):
        raise ParameterError("show_graph must be 'none', 'face' or 'star'")
    bb = tess.bboxes
    win = Window(tuple(bb[:, :2].min(axis=0)), tuple(bb[:, 2:].max(axis=0)))
    drawn = list(range(len(tess)))
    if core_only:
        win = tess.core_window
        ids = tess.cells_meeting(win)
        _, ptr = clip_rings_to_window(*gather_rings(tess.poly_xy, tess.poly_ptr, ids), win)
        drawn = ids[ptr[:-1] < ptr[1:]].tolist()
    stroke_w = 0.003 * min(win.sides)
    x0, y0 = win.lo
    x1, y1 = win.hi
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
    ]
    for i in drawn:
        pts = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in tess.polygon(i))
        fill = _BLACK if black[i] else _WHITE
        parts.append(f'<polygon id="cell{i}" points="{pts}" fill="{fill}" '
                     f'stroke="#777777" stroke-width="{_fmt(stroke_w)}"/>')
    if show_graph != "none":
        pairs = np.unique(np.sort(build_adjacency(tess, show_graph), axis=1), axis=0)
        shown = np.zeros(len(tess), bool)
        shown[drawn] = True
        color = _EDGE[show_graph]
        for i, j in pairs[shown[pairs].all(axis=1)]:
            a, b = tess.centers[i], tess.centers[j]
            parts.append(f'<line x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}" '
                         f'x2="{_fmt(b[0])}" y2="{_fmt(-b[1])}" '
                         f'stroke="{color}" stroke-width="{_fmt(stroke_w * 1.5)}"/>')
    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
