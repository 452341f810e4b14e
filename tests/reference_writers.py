"""Reference writers: the per-element implementations the array-at-a-time
writers in ``organstop.docio`` replaced.

A document is turned into plain Python one element at a time, every float
rounded to 12 significant digits, and written by ``json.dump(indent=2)``;
booleans are tested before integers, so they stay JSON booleans.  The region
CSV is written one cell at a time.  The tests hold the library's
output to these bytes.
"""

import csv
import io
import json
import math

import numpy as np


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
