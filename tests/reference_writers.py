"""Reference writers: the per-element implementations the array-at-a-time
writers in ``organstop.docio`` and ``organstop.svgplot`` replaced.

A document is turned into plain Python one element at a time, every float
rounded to 12 significant digits, and written by ``json.dump(indent=2)``;
booleans are tested before integers, so they stay JSON booleans.  The region
CSV and SVG index the grid one cell at a time.  The tests hold the library's
output to these bytes.
"""

import csv
import io
import json
import math

import numpy as np

from organstop.svgplot import ACTION_COLORS, ACTION_LABELS, CELL, MARGIN


def round_sig(x: float) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def jsonable(obj):
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return round_sig(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def document_text(doc) -> str:
    return json.dumps(jsonable(doc), indent=2) + "\n"


def region_csv_text(regions) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["h", "k", "action", "region_id"])
    for rid, region in enumerate(regions):
        for h, k in region.cells:
            writer.writerow([h, k, region.action, rid])
    return fh.getvalue()


def region_svg_text(actions) -> str:
    grid = np.asarray(actions)
    nh, nk = grid.shape
    width = MARGIN + nk * CELL + 140
    height = MARGIN + nh * CELL + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(nh):
        for j in range(nk):
            a = int(grid[i, j])
            x, y = MARGIN + j * CELL, MARGIN + i * CELL
            color = ACTION_COLORS.get(a, "#000000")
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{color}" stroke="#333333"/>')
            parts.append(
                f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + 5}" '
                f'text-anchor="middle" font-size="12" fill="white">'
                f'{ACTION_LABELS.get(a, "?")}</text>')
    for i in range(nh):
        parts.append(f'<text x="{MARGIN - 10}" y="{MARGIN + i * CELL + CELL // 2 + 5}" '
                     f'text-anchor="end" font-size="12">h={i}</text>')
    for j in range(nk):
        parts.append(f'<text x="{MARGIN + j * CELL + CELL // 2}" y="{MARGIN - 10}" '
                     f'text-anchor="middle" font-size="12">k={j}</text>')
    legend_x = MARGIN + nk * CELL + 20
    present = sorted({int(a) for a in grid.ravel()})
    for row, a in enumerate(present):
        y = MARGIN + row * 24
        parts.append(f'<rect x="{legend_x}" y="{y}" width="16" height="16" '
                     f'fill="{ACTION_COLORS.get(a, "#000000")}" stroke="#333333"/>')
        parts.append(f'<text x="{legend_x + 22}" y="{y + 13}" font-size="12">'
                     f'{ACTION_LABELS.get(a, "?")}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
