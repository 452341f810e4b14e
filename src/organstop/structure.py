"""Control-limit structure extraction for solved policies.

All functions read the policy grid as runs in canonical orientation (larger
index = worse, death row last, no-offer column last); line indices, witness
lines and region cells keep input labels.  Death rows are always excluded
from analysis; no-offer columns are excluded except where a check explicitly
quantifies over them (the constant-tail clause of the at-most-2-region check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (Action, DiscreteModelSpec, ModelValidationError, Policy,
                    Variant, _canonical_permutations)

#: (action code, start, stop) -- one maximal constant run, stop exclusive
Run = tuple[int, int, int]

_TRANSPLANTS = np.array([Action.TRANSPLANT, Action.TRANSPLANT_LIVING])


class _Runs(NamedTuple):
    """Every maximal constant run along axis 1 of a 2-D grid, row-major."""
    line: np.ndarray     # the row of each run
    start: np.ndarray
    stop: np.ndarray     # exclusive
    action: np.ndarray
    bounds: np.ndarray   # the runs of row i are bounds[i]:bounds[i + 1]
    cell: np.ndarray     # the run id of every cell


def _runs(grid: np.ndarray) -> _Runs:
    n, m = grid.shape
    begins = np.ones((n, m), dtype=bool)
    begins[:, 1:] = grid[:, 1:] != grid[:, :-1]
    line, start = np.nonzero(begins)
    stop = np.nonzero(np.roll(begins, -1, axis=1))[1] + 1  # run ends precede begins
    return _Runs(line, start, stop, grid[line, start],
                 np.searchsorted(line, np.arange(n + 1)),
                 np.cumsum(begins).reshape(n, m) - 1)


def _run_tuples(runs: _Runs) -> list[Run]:
    return list(zip(runs.action.tolist(), runs.start.tolist(),
                    runs.stop.tolist()))


def action_runs(line: np.ndarray) -> list[Run]:
    """Maximal constant runs of a 1-D action line."""
    return _run_tuples(_runs(np.asarray(line)[None, :]))


@dataclass(frozen=True)
class LineRuns:
    index: int            # the fixed coordinate (organ k or patient h)
    runs: tuple[Run, ...]


@dataclass(frozen=True)
class ControlLimitReport:
    """Per-axis control-limit classification.

    ``thresholds`` is filled only when every line has the classic two-action
    threshold shape (wait block then one transplant block, either possibly
    empty): for the patient axis, H*(k) = first patient index where the
    transplant action starts; for the organ axis, K*(h) = last accepted
    organ index (-1 when none).
    """

    axis: str                      # "patient" or "organ"
    is_control_limit: bool
    lines: tuple[LineRuns, ...]
    thresholds: np.ndarray | None
    # smallest witness: (fixed index, action, first run, second run)
    witness: tuple | None


def _grid(spec: DiscreteModelSpec, policy: Policy):
    """Live rows x all columns in canonical order, with their input labels."""
    if spec.variant in (Variant.LIVING_DONOR, Variant.DIALYSIS):
        raise ModelValidationError(
            [f"structure analysis needs a 2-D policy, got {spec.variant.value}"])
    perm_h, cols = _canonical_permutations(spec)
    rows = perm_h[:-1]
    return np.asarray(policy.actions)[np.ix_(rows, cols)], rows, cols


def _scan_axis(lines: np.ndarray, labels: np.ndarray,
               axis: str) -> ControlLimitReport:
    """Control-limit scan of each row of ``lines``, named by ``labels``.

    A line is a control limit iff no action repeats among its runs; the
    witness is the first repeat, with the first run of its action.
    """
    runs = _runs(lines)
    tuples = _run_tuples(runs)
    bounds = runs.bounds.tolist()
    labels = labels.tolist()
    reports = tuple(LineRuns(idx, tuple(tuples[a:b]))
                    for idx, a, b in zip(labels, bounds, bounds[1:]))
    code = np.unique(runs.action, return_inverse=True)[1]
    _, first, group = np.unique(runs.line * (len(code) + 1) + code,
                                return_index=True, return_inverse=True)
    first = first[group]     # the first run of each run's line and action
    repeat = first != np.arange(len(first))
    witness = thresholds = None
    if repeat.any():
        r = int(np.argmax(repeat))
        witness = (labels[runs.line[r]], tuples[r][0], tuples[first[r]][1:],
                   tuples[r][1:])
    else:
        thresholds = _threshold_form(runs, lines.shape[1], axis)
    return ControlLimitReport(axis=axis, is_control_limit=witness is None,
                              lines=reports, thresholds=thresholds,
                              witness=witness)


def _threshold_form(runs: _Runs, length: int, axis: str):
    """Per-line thresholds, or None unless every line has the classic shape.

    Along the patient axis a line must be a wait block followed by a
    transplant block; along the organ axis, a transplant block followed by
    a wait block.  Either block may be empty.
    """
    count = np.diff(runs.bounds)
    if not np.isin(count, (1, 2)).all():
        return None
    last, first = runs.bounds[1:] - 1, runs.bounds[:-1]
    block, other = (last, first) if axis == "patient" else (first, last)
    transplant = np.isin(runs.action[block], _TRANSPLANTS)
    shaped = (count == 1) | (transplant & (runs.action[other] == Action.WAIT))
    if not shaped.all():
        return None
    if axis == "patient":
        return np.where(transplant, runs.start[block], length)
    return np.where(transplant, runs.stop[block] - 1, -1)


def extract_patient_control_limits(spec: DiscreteModelSpec,
                                   policy: Policy) -> ControlLimitReport:
    """Scan the patient axis at each offered organ state.

    The policy is patient-based control limit iff, for every organ state,
    each action occupies at most one maximal interval of patient states.
    """
    grid, _, cols = _grid(spec, policy)
    return _scan_axis(grid[:, :-1].T, cols[:-1], "patient")


def extract_organ_control_limits(spec: DiscreteModelSpec,
                                 policy: Policy) -> ControlLimitReport:
    """Mirror of :func:`extract_patient_control_limits` along the organ axis."""
    grid, rows, _ = _grid(spec, policy)
    return _scan_axis(grid[:, :-1], rows, "organ")


def reconstruct_policy(spec: DiscreteModelSpec,
                       report: ControlLimitReport) -> np.ndarray:
    """Rebuild the canonical live (patient x offered-organ) grid from runs."""
    perm_h, perm_k = _canonical_permutations(spec)
    grid = np.full((len(perm_h) - 1, len(perm_k) - 1), int(Action.NONE))
    lines, labels = (grid.T, perm_k) if report.axis == "patient" else (grid, perm_h)
    position = {label: i for i, label in enumerate(labels.tolist())}
    for rep in report.lines:
        for action, start, stop in rep.runs:
            lines[position[rep.index], start:stop] = action
    return grid


@dataclass(frozen=True)
class Am2roReport:
    """At-most-2-region organ-based structure of a combined-variant policy.

    Holds iff for each live patient state the deceased-donor accepts form a
    best-quality prefix k <= K*(h) and the remaining row (including the
    no-offer column) carries one constant action.
    """

    holds: bool
    limits: np.ndarray | None          # K*(h) per live h, -1 when no accept
    tail_actions: np.ndarray | None    # the constant action per live h
    witness_row: int | None


def check_am2ro(spec: DiscreteModelSpec, policy: Policy) -> Am2roReport:
    """A row holds iff it is one run, or two runs led by TRANSPLANT."""
    if spec.variant is not Variant.COMBINED:
        raise ModelValidationError(
            [f"at-most-2-region check requires the combined variant, got "
             f"{spec.variant.value}"])
    runs = _runs(_grid(spec, policy)[0])
    count, head = np.diff(runs.bounds), runs.bounds[:-1]
    accept = runs.action[head] == Action.TRANSPLANT
    holds = (count == 1) | ((count == 2) & accept)
    if not holds.all():
        return Am2roReport(False, None, None, int(np.argmin(holds)))
    limits = np.where(accept, runs.stop[head] - 1, -1)
    return Am2roReport(True, limits, runs.action[runs.bounds[1:] - 1], None)


@dataclass(frozen=True)
class Am3rReport:
    """At-most-3-region structure: wait occupies a healthy prefix along the
    patient axis for every organ column, and the 2-region organ check holds.

    ``region_count``/``disconnected`` expose the decision-region geometry so
    policies that pass both 1-D interval checks yet split an action across
    disconnected regions are still flagged.
    """

    holds: bool
    limits: np.ndarray | None      # H*(k) per organ column, -1 when never wait
    am2ro: Am2roReport
    region_count: int
    disconnected: bool
    witness_column: int | None


def check_am3r(spec: DiscreteModelSpec, policy: Policy) -> Am3rReport:
    return _am3r(spec, policy, region_connectivity(spec, policy))


def _am3r(spec, policy, regions) -> Am3rReport:
    """WAIT may occur only in a column's first run."""
    am2 = check_am2ro(spec, policy)
    grid = _grid(spec, policy)[0]
    runs = _runs(grid.T)
    wait = runs.action == Action.WAIT
    late = runs.line[wait & (runs.start > 0)]
    limits = np.full(grid.shape[1], -1)
    prefix = wait & (runs.start == 0)
    limits[runs.line[prefix]] = runs.stop[prefix] - 1
    n_actions = len({r.action for r in regions})
    return Am3rReport(
        holds=late.size == 0 and am2.holds,
        limits=None if late.size else limits,
        am2ro=am2,
        region_count=len(regions),
        disconnected=len(regions) > n_actions,
        witness_column=int(late[0]) if late.size else None,
    )


@dataclass(frozen=True)
class Region:
    action: int
    cells: tuple[tuple[int, int], ...]  # (patient, organ) indices, original labels


def region_connectivity(spec: DiscreteModelSpec, policy: Policy) -> list[Region]:
    """4-neighbor connected components of equal-action cells.

    The grid is restricted to live patient rows and offer-present columns;
    the regions partition it.  Row runs join where vertically adjacent cells
    are equal; regions are numbered by their first cell in canonical order.
    """
    grid, rows, cols = _grid(spec, policy)
    sub, cols = grid[:, :-1], cols[:-1]
    runs = _runs(sub)
    n = len(runs.action)
    same = sub[1:] == sub[:-1]
    links = np.unique(runs.cell[:-1][same] * n + runs.cell[1:][same])
    parent = list(range(n))

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for a, b in zip((links // n).tolist(), (links % n).tolist()):
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)   # every root is its smallest run id
    roots, label = np.unique(np.fromiter(map(find, range(n)), np.int64, n),
                             return_inverse=True)

    cells = [[] for _ in roots]     # row-major within each region
    row_labels, col_labels = rows.tolist(), cols.tolist()
    for region, line, start, stop in zip(label.tolist(), runs.line.tolist(),
                                         runs.start.tolist(), runs.stop.tolist()):
        h = row_labels[line]
        cells[region] += [(h, k) for k in col_labels[start:stop]]
    return [Region(action, tuple(sorted(c)))
            for action, c in zip(runs.action[roots].tolist(), cells)]


@dataclass(frozen=True)
class StructureReport:
    patient_based: ControlLimitReport
    organ_based: ControlLimitReport
    regions: list[Region]
    am2ro: Am2roReport | None = None
    am3r: Am3rReport | None = None


def analyze_policy(spec: DiscreteModelSpec, policy: Policy) -> StructureReport:
    """Full structure classification of a 2-D policy."""
    regions = region_connectivity(spec, policy)
    am3 = _am3r(spec, policy, regions) if spec.variant is Variant.COMBINED else None
    return StructureReport(
        patient_based=extract_patient_control_limits(spec, policy),
        organ_based=extract_organ_control_limits(spec, policy),
        regions=regions, am2ro=am3 and am3.am2ro, am3r=am3,
    )


def policy_from_organ_limits(spec: DiscreteModelSpec,
                             limits: np.ndarray) -> Policy:
    """Threshold policy accepting organ k at patient h iff k <= limits[h].

    ``limits`` is indexed by live patient state (canonical order); -1 means
    never accept.  Useful for round-trip tests and perturbation sweeps.
    """
    perm_h, perm_k = _canonical_permutations(spec)
    accept = np.arange(spec.n_organ - 1) <= np.asarray(limits)[:, None]
    actions = np.full((spec.n_patient, spec.n_organ), int(Action.WAIT))
    actions[np.ix_(perm_h[:-1], perm_k[:-1])] = np.where(
        accept, Action.TRANSPLANT, Action.WAIT)
    actions[spec.death_index, :] = Action.NONE
    return Policy(spec.variant, actions)


def threshold_1d(actions: np.ndarray, death_index: int,
                 transplant_action: Action = Action.TRANSPLANT_LIVING):
    """Constant control limit of a 1-D policy, or None.

    Returns the smallest live index at which the transplant action starts,
    provided the transplant set is a contiguous suffix of the live states
    (len(live) when the policy never transplants).
    """
    line = np.delete(np.asarray(actions), death_index)
    runs = _runs(line[None, :])
    transplant = runs.action == transplant_action
    if not transplant.any():
        return len(line)
    if transplant.sum() == 1 and transplant[-1]:   # one run, the last
        return int(runs.start[-1])
    return None
