"""Deterministic hand-emitted SVG for policy grids and threshold curves.

No plotting dependency: markup is assembled from formatted strings, so the
same input always produces byte-identical output.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Action

CELL = 40
MARGIN = 60

#: fixed color per action, stable across runs
ACTION_COLORS = {
    int(Action.WAIT): "#4477aa",
    int(Action.TRANSPLANT): "#ee6677",
    int(Action.TRANSPLANT_LIVING): "#228833",
    int(Action.MEDICATION): "#ccbb44",
    int(Action.DIALYSIS): "#aa3377",
    int(Action.NONE): "#bbbbbb",
}
ACTION_LABELS = {
    int(Action.WAIT): "W",
    int(Action.TRANSPLANT): "T",
    int(Action.TRANSPLANT_LIVING): "T_LD",
    int(Action.MEDICATION): "M",
    int(Action.DIALYSIS): "D",
    int(Action.NONE): "-",
}


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _framed(width: int, height: int, parts: list[str]) -> str:
    """``parts`` as an SVG document of that size on a white canvas."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *parts, "</svg>"]) + "\n"


def render_region_svg(actions: np.ndarray) -> str:
    """Color-coded (patient x organ) action grid with a legend."""
    from .structure import _runs  # a curve plot needs no structure
    grid = np.asarray(actions)
    if grid.ndim != 2:
        raise ValueError("region plot needs a 2-D action grid")
    nh, nk = grid.shape
    width = MARGIN + nk * CELL + 140
    height = MARGIN + nh * CELL + 20
    # one rect and one centred label per maximal constant run of a row
    runs = _runs(grid.astype(np.int64))
    present = np.sort(runs.action)   # np.unique's plain form imports numpy.ma
    present = present[np.diff(present, prepend=present[:1] - 1) != 0].tolist()
    xs = (MARGIN + runs.start * CELL).tolist()
    ys = (MARGIN + runs.line * CELL).tolist()
    widths = ((runs.stop - runs.start) * CELL).tolist()
    parts = [f'<rect x="{x}" y="{y}" width="{w}" height="{CELL}" '
             f'fill="{ACTION_COLORS.get(a, "#000000")}" stroke="#333333"/>\n'
             f'<text x="{x + w // 2}" y="{y + CELL // 2 + 5}" '
             f'text-anchor="middle" font-size="12" fill="white">'
             f'{ACTION_LABELS.get(a, "?")}</text>'
             for x, y, w, a in zip(xs, ys, widths, runs.action.tolist())]
    # axis labels: patient index down the side, organ index along the top
    for i in range(nh):
        parts.append(f'<text x="{MARGIN - 10}" y="{MARGIN + i * CELL + CELL // 2 + 5}" '
                     f'text-anchor="end" font-size="12">h={i}</text>')
    for j in range(nk):
        parts.append(f'<text x="{MARGIN + j * CELL + CELL // 2}" y="{MARGIN - 10}" '
                     f'text-anchor="middle" font-size="12">k={j}</text>')
    legend_x = MARGIN + nk * CELL + 20
    for row, a in enumerate(present):
        y = MARGIN + row * 24
        parts.append(f'<rect x="{legend_x}" y="{y}" width="16" height="16" '
                     f'fill="{ACTION_COLORS.get(a, "#000000")}" stroke="#333333"/>')
        parts.append(f'<text x="{legend_x + 22}" y="{y + 13}" font-size="12">'
                     f'{ACTION_LABELS.get(a, "?")}</text>')
    return _framed(width, height, parts)


def render_curve_svg(times, values, critical_times=()) -> str:
    """Threshold curve as a polyline, with vertical critical-time markers."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    width, height = 640, 400
    pad = 50
    t_span = max(times[-1] - times[0], 1e-12)
    v_max = max(float(values.max()), 1e-12)

    def px(t):
        return pad + (t - times[0]) / t_span * (width - 2 * pad)

    def py(v):
        return height - pad - v / v_max * (height - 2 * pad)

    points = " ".join(f"{_fmt(px(t))},{_fmt(py(v))}"
                      for t, v in zip(times, values))
    parts = [
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#333333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="#333333"/>',
        f'<polyline points="{points}" fill="none" stroke="#4477aa" '
        f'stroke-width="2"/>',
    ]
    for t in critical_times:
        if not math.isfinite(t):
            continue
        x = _fmt(px(min(max(t, times[0]), times[-1])))
        parts.append(f'<line x1="{x}" y1="{pad}" x2="{x}" '
                     f'y2="{height - pad}" stroke="#ee6677" '
                     f'stroke-dasharray="4 3" class="critical-time"/>')
    parts.append(f'<text x="{width - pad}" y="{height - pad + 30}" '
                 f'text-anchor="end" font-size="12">t</text>')
    parts.append(f'<text x="{pad - 30}" y="{pad}" font-size="12">'
                 f'lambda(t)</text>')
    return _framed(width, height, parts)
