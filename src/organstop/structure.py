"""Control-limit structure extraction for solved policies.

All functions interpret the policy grid in canonical orientation (larger
index = worse, death row last, no-offer column last).  Death rows are always
excluded from analysis; no-offer columns are excluded except where a check
explicitly quantifies over them (the constant-tail clause of the
at-most-2-region check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Action, DiscreteModelSpec, ModelValidationError, Policy, Variant

#: (action code, start, stop) -- one maximal constant run, stop exclusive
Run = tuple[int, int, int]


def action_runs(line: np.ndarray) -> list[Run]:
    """Maximal constant runs of a 1-D action line."""
    runs: list[Run] = []
    start = 0
    for i in range(1, len(line) + 1):
        if i == len(line) or line[i] != line[start]:
            runs.append((int(line[start]), start, i))
            start = i
    return runs


def _first_repeat(runs: list[Run]):
    seen: dict[int, Run] = {}
    for run in runs:
        if run[0] in seen:
            return run[0], seen[run[0]], run
        seen[run[0]] = run
    return None


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


def _grid(spec: DiscreteModelSpec, policy: Policy) -> np.ndarray:
    if spec.variant in (Variant.LIVING_DONOR, Variant.DIALYSIS):
        raise ModelValidationError(
            [f"structure analysis needs a 2-D policy, got {spec.variant.value}"])
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    return np.asarray(policy.actions)[live, :]


def _offered(spec: DiscreteModelSpec) -> list[int]:
    return [k for k in range(spec.n_organ) if k != spec.no_offer_index]


def _scan_axis(lines, axis: str) -> ControlLimitReport:
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


def _threshold_form(reports, axis):
    """Per-line thresholds, or None unless every line has the classic shape.

    Along the patient axis a line must be a wait block followed by a
    transplant block; along the organ axis, a transplant block followed by
    a wait block.  Either block may be empty.
    """
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


def extract_patient_control_limits(spec: DiscreteModelSpec,
                                   policy: Policy) -> ControlLimitReport:
    """Scan the patient axis at each offered organ state.

    The policy is patient-based control limit iff, for every organ state,
    each action occupies at most one maximal interval of patient states.
    """
    grid = _grid(spec, policy)
    lines = [(k, grid[:, k]) for k in _offered(spec)]
    return _scan_axis(lines, "patient")


def extract_organ_control_limits(spec: DiscreteModelSpec,
                                 policy: Policy) -> ControlLimitReport:
    """Mirror of :func:`extract_patient_control_limits` along the organ axis."""
    grid = _grid(spec, policy)
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    offered = _offered(spec)
    lines = [(h, grid[i, offered]) for i, h in enumerate(live)]
    return _scan_axis(lines, "organ")


def reconstruct_policy(spec: DiscreteModelSpec,
                       report: ControlLimitReport) -> np.ndarray:
    """Rebuild the live (patient x offered-organ) action grid from runs."""
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    offered = _offered(spec)
    grid = np.full((len(live), len(offered)), int(Action.NONE))
    k_pos = {k: j for j, k in enumerate(offered)}
    for rep in report.lines:
        for action, start, stop in rep.runs:
            if report.axis == "patient":
                grid[start:stop, k_pos[rep.index]] = action
            else:
                grid[live.index(rep.index), start:stop] = action
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
    if spec.variant is not Variant.COMBINED:
        raise ModelValidationError(
            [f"at-most-2-region check requires the combined variant, got "
             f"{spec.variant.value}"])
    grid = _grid(spec, policy)
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    limits = np.empty(len(live), dtype=int)
    tails = np.empty(len(live), dtype=int)
    for i in range(len(live)):
        row = grid[i, :]  # offered organs in quality order, then no-offer
        accept = row == Action.TRANSPLANT
        kstar = int(np.argmin(accept)) - 1 if not accept.all() else len(row) - 1
        if accept[kstar + 1:].any():       # accept set is not a prefix
            return Am2roReport(False, None, None, i)
        tail = row[kstar + 1:]
        if tail.size and not (tail == tail[0]).all():
            return Am2roReport(False, None, None, i)
        limits[i] = kstar
        tails[i] = tail[0] if tail.size else Action.TRANSPLANT
    return Am2roReport(True, limits, tails, None)


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
    am2 = check_am2ro(spec, policy)
    grid = _grid(spec, policy)
    limits = np.empty(grid.shape[1], dtype=int)
    witness = None
    for k in range(grid.shape[1]):
        col = grid[:, k]
        waiting = col == Action.WAIT
        hstar = int(np.argmin(waiting)) - 1 if not waiting.all() else len(col) - 1
        if waiting[hstar + 1:].any():
            witness = k
            break
        limits[k] = hstar
    regions = region_connectivity(spec, policy)
    n_actions = len({r.action for r in regions})
    return Am3rReport(
        holds=witness is None and am2.holds,
        limits=None if witness is not None else limits,
        am2ro=am2,
        region_count=len(regions),
        disconnected=len(regions) > n_actions,
        witness_column=witness,
    )


@dataclass(frozen=True)
class Region:
    action: int
    cells: tuple[tuple[int, int], ...]  # (patient, organ) indices, original labels


def region_connectivity(spec: DiscreteModelSpec, policy: Policy) -> list[Region]:
    """4-neighbor connected components of equal-action cells.

    The grid is restricted to live patient rows and offer-present columns;
    the regions partition it.
    """
    grid = _grid(spec, policy)
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    offered = _offered(spec)
    sub = grid[:, offered]
    nh, nk = sub.shape
    seen = np.zeros(sub.shape, dtype=bool)
    regions: list[Region] = []
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


@dataclass(frozen=True)
class StructureReport:
    patient_based: ControlLimitReport
    organ_based: ControlLimitReport
    regions: list[Region]
    am2ro: Am2roReport | None = None
    am3r: Am3rReport | None = None


def analyze_policy(spec: DiscreteModelSpec, policy: Policy) -> StructureReport:
    """Full structure classification of a 2-D policy."""
    am2 = am3 = None
    if spec.variant is Variant.COMBINED:
        am2 = check_am2ro(spec, policy)
        am3 = check_am3r(spec, policy)
    return StructureReport(
        patient_based=extract_patient_control_limits(spec, policy),
        organ_based=extract_organ_control_limits(spec, policy),
        regions=region_connectivity(spec, policy),
        am2ro=am2, am3r=am3,
    )


def policy_from_organ_limits(spec: DiscreteModelSpec,
                             limits: np.ndarray) -> Policy:
    """Threshold policy accepting organ k at patient h iff k <= limits[h].

    ``limits`` is indexed by live patient state (canonical order); -1 means
    never accept.  Useful for round-trip tests and perturbation sweeps.
    """
    actions = np.full((spec.n_patient, spec.n_organ), int(Action.WAIT))
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    offered = _offered(spec)
    for i, h in enumerate(live):
        for j, k in enumerate(offered):
            if j <= limits[i]:
                actions[h, k] = Action.TRANSPLANT
    actions[spec.death_index, :] = Action.NONE
    actions[:, spec.no_offer_index] = np.where(
        actions[:, spec.no_offer_index] == Action.NONE, Action.NONE, Action.WAIT)
    return Policy(spec.variant, actions)


def threshold_1d(actions: np.ndarray, death_index: int,
                 transplant_action: Action = Action.TRANSPLANT_LIVING):
    """Constant control limit of a 1-D policy, or None.

    Returns the smallest live index at which the transplant action starts,
    provided the transplant set is a contiguous suffix of the live states
    (len(live) when the policy never transplants).
    """
    live = [h for h in range(len(actions)) if h != death_index]
    line = np.asarray(actions)[live]
    accepts = line == transplant_action
    if not accepts.any():
        return len(live)
    first = int(np.argmax(accepts))
    if accepts[first:].all():
        return first
    return None
