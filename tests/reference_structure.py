"""Reference structure analysis: the per-line and per-cell implementations
that the run table in ``organstop.structure`` replaced.

Runs come from a Python loop over each line, repeats from a dict scan, the
at-most-2/3-region checks from argmin prefix tests, and regions from a flood
fill that pushes one cell at a time.  The grid is read in input order, so the
reference holds only for canonical specs.  The tests hold the library's
reports to these, field for field.
"""

import numpy as np

from organstop.model import Action, Variant
from organstop.structure import (
    Am2roReport,
    Am3rReport,
    ControlLimitReport,
    LineRuns,
    Region,
    StructureReport,
)


def action_runs(line):
    """Maximal constant runs (action, start, stop) of a 1-D action line."""
    runs = []
    start = 0
    for i in range(1, len(line) + 1):
        if i == len(line) or line[i] != line[start]:
            runs.append((int(line[start]), start, i))
            start = i
    return runs


def _first_repeat(runs):
    seen = {}
    for run in runs:
        if run[0] in seen:
            return run[0], seen[run[0]], run
        seen[run[0]] = run
    return None


def _threshold_form(reports, axis):
    out = []
    for rep in reports:
        runs = rep.runs
        acts = [r[0] for r in runs]
        transplant = [a for a in acts if a in (Action.TRANSPLANT,
                                               Action.TRANSPLANT_LIVING)]
        if len(runs) == 1:
            if transplant:
                out.append(runs[0][1] if axis == "patient" else runs[0][2] - 1)
            else:
                out.append(runs[-1][2] if axis == "patient" else -1)
        elif len(runs) == 2 and len(transplant) == 1:
            if axis == "patient" and acts[0] == Action.WAIT and acts[1] in transplant:
                out.append(runs[1][1])
            elif axis == "organ" and acts[0] in transplant and acts[1] == Action.WAIT:
                out.append(runs[0][2] - 1)
            else:
                return None
        else:
            return None
    return np.array(out)


def _scan_axis(lines, axis):
    reports = []
    witness = None
    for idx, line in lines:
        runs = action_runs(line)
        reports.append(LineRuns(idx, tuple(runs)))
        if witness is None:
            rep = _first_repeat(runs)
            if rep is not None:
                witness = (idx, rep[0], rep[1][1:], rep[2][1:])
    thresholds = None
    if witness is None:
        thresholds = _threshold_form(reports, axis)
    return ControlLimitReport(axis=axis, is_control_limit=witness is None,
                              lines=tuple(reports), thresholds=thresholds,
                              witness=witness)


def _live_offered(spec):
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    offered = [k for k in range(spec.n_organ) if k != spec.no_offer_index]
    return live, offered


def _am2ro(grid):
    limits = np.empty(len(grid), dtype=int)
    tails = np.empty(len(grid), dtype=int)
    for i, row in enumerate(grid):
        accept = row == Action.TRANSPLANT
        kstar = int(np.argmin(accept)) - 1 if not accept.all() else len(row) - 1
        if accept[kstar + 1:].any():
            return Am2roReport(False, None, None, i)
        tail = row[kstar + 1:]
        if tail.size and not (tail == tail[0]).all():
            return Am2roReport(False, None, None, i)
        limits[i] = kstar
        tails[i] = tail[0] if tail.size else Action.TRANSPLANT
    return Am2roReport(True, limits, tails, None)


def _am3r(grid, am2, regions):
    limits = np.empty(grid.shape[1], dtype=int)
    witness = None
    for k in range(grid.shape[1]):
        waiting = grid[:, k] == Action.WAIT
        hstar = (int(np.argmin(waiting)) - 1 if not waiting.all()
                 else len(waiting) - 1)
        if waiting[hstar + 1:].any():
            witness = k
            break
        limits[k] = hstar
    n_actions = len({r.action for r in regions})
    return Am3rReport(
        holds=witness is None and am2.holds,
        limits=None if witness is not None else limits,
        am2ro=am2,
        region_count=len(regions),
        disconnected=len(regions) > n_actions,
        witness_column=witness,
    )


def flood_fill_regions(sub, live, offered):
    """4-neighbour components of equal-action cells, in row-major discovery
    order, with cells in input labels."""
    nh, nk = sub.shape
    seen = np.zeros(sub.shape, dtype=bool)
    regions = []
    for i in range(nh):
        for j in range(nk):
            if seen[i, j]:
                continue
            action = sub[i, j]
            stack = [(i, j)]
            seen[i, j] = True
            cells = []
            while stack:
                a, b = stack.pop()
                cells.append((live[a], offered[b]))
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < nh and 0 <= nb < nk and not seen[na, nb] \
                            and sub[na, nb] == action:
                        seen[na, nb] = True
                        stack.append((na, nb))
            regions.append(Region(int(action), tuple(sorted(cells))))
    return regions


def reference_analysis(spec, policy):
    """``analyze_policy`` of a canonical spec, by the reference code."""
    live, offered = _live_offered(spec)
    grid = np.asarray(policy.actions)[live, :]
    sub = grid[:, offered]
    regions = flood_fill_regions(sub, live, offered)
    am2 = am3 = None
    if spec.variant is Variant.COMBINED:
        am2 = _am2ro(grid)
        am3 = _am3r(grid, am2, regions)
    return StructureReport(
        patient_based=_scan_axis([(k, grid[:, k]) for k in offered], "patient"),
        organ_based=_scan_axis([(h, sub[i]) for i, h in enumerate(live)],
                               "organ"),
        regions=regions, am2ro=am2, am3r=am3,
    )
