"""Reference brute force: the per-policy fill that the mixed-radix gather in
``organstop.simulate.brute_force_optimal`` replaced.

Policies come from ``itertools.product`` over each cell's legal action
slots, ``batch`` at a time, and every policy's system ``I - P_pi`` and
reward vector are filled one cell row at a time before one stacked solve.
The tests hold the library's values and policies to this, bit for bit.
"""

import itertools

import numpy as np

from organstop.model import VARIANT_RULES, Action
from organstop.simulate import _cell_dynamics


def brute_force_reference(spec, batch=2048):
    """(values, actions) with the library's shapes."""
    cells, acts_per_cell, rewards, rows = _cell_dynamics(spec)
    n = len(cells)
    eye = np.eye(n)
    best_vals = np.full(n, -np.inf)
    combos = itertools.product(*(range(len(a)) for a in acts_per_cell))
    while chunk := list(itertools.islice(combos, batch)):
        mats = np.empty((len(chunk), n, n))
        rhs = np.empty((len(chunk), n))
        for j, assign in enumerate(chunk):
            for i, slot in enumerate(assign):
                mats[j, i] = -rows[i, slot]
                rhs[j, i] = rewards[i, slot]
            mats[j] += eye
        vals = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
        best_vals = np.maximum(best_vals, vals.max(axis=0))

    assign = []
    for i, acts in enumerate(acts_per_cell):
        qs = [rewards[i, j] + rows[i, j] @ best_vals for j in range(len(acts))]
        assign.append(acts[int(np.argmax(qs))])

    rule = VARIANT_RULES[spec.variant]
    at = tuple(np.array(cells).T)
    values = np.zeros(rule.grid(spec))
    values[at] = best_vals
    actions = np.full(rule.grid(spec), int(Action.NONE), dtype=np.int64)
    actions[at] = [int(a) for a in assign]
    shape = rule.value_shape(spec)
    return values.reshape(shape), actions.reshape(shape)
