"""Reference brute force: every stationary policy, one system each, on
dynamics of its own.

``organstop.simulate.brute_force_optimal`` solves one system per wait
pattern, merging a cell's terminals into one class that pays the best of
them; this reference does not merge anything.  Each live cell's legal
actions, rewards and next-cell rows are written here per variant from the
spec's raw fields, apart from the library's variant table and stacked wait
arrays.  Policies come from ``itertools.product`` over each cell's legal
action slots, ``batch`` at a time, and every policy's system ``I - P_pi``
and reward vector are filled one cell row at a time before one stacked
solve.  The tests hold the library's values and policies to this, bit for
bit.
"""

import itertools

import numpy as np

from organstop.model import Action, Variant


def _cell_dynamics(spec):
    """(cells, legal actions per cell, rewards (cell, slot), rows (cell,
    slot, cell)): cells are (regime, patient, offer column) triples, regime
    by regime, and slot j is the j-th legal action in prefer-wait order;
    terminal actions and unused slots have zero rows."""
    variant, beta = spec.variant, spec.discount
    dialysis = variant is Variant.DIALYSIS
    live = [h for h in range(spec.n_patient) if h != spec.death_index]
    if variant is Variant.LIVING_DONOR:
        columns, offer = [0], np.ones((spec.n_patient, 1))
    else:
        columns, offer = list(range(spec.n_organ)), spec.offer_prob
    regimes = (0, 1) if dialysis else (0,)
    cells = [(g, h, k) for g in regimes for h in live for k in columns]
    index = {cell: i for i, cell in enumerate(cells)}

    def wait_into(g, h):
        """Reward and next-cell row of waiting into regime g from state h."""
        trans = spec.transition[g] if dialysis else spec.transition
        reward = spec.wait_reward[g, h] if dialysis else spec.wait_reward[h]
        row = np.zeros(len(cells))
        for h_next in live:
            for k in columns:
                row[index[g, h_next, k]] = \
                    beta * trans[h, h_next] * offer[h_next, k]
        return reward, row

    def transplant(h, k):
        if variant is Variant.CONTINUOUS_ANALOG:  # epoch reward, then success
            return spec.wait_reward[h] + beta * spec.transplant_reward[h, k]
        return spec.transplant_reward[h, k]

    legal, moves = [], []
    for g, h, k in cells:
        if dialysis:
            waits = [(Action.MEDICATION, 0), (Action.DIALYSIS, 1)][g:]
        else:
            waits = [(Action.WAIT, 0)]
        acts = [(a, *wait_into(into, h)) for a, into in waits]
        offered = variant is not Variant.LIVING_DONOR \
            and k != spec.no_offer_index
        if offered:
            acts.append((Action.TRANSPLANT, transplant(h, k), None))
        if variant in (Variant.LIVING_DONOR, Variant.COMBINED):
            acts.append((Action.TRANSPLANT_LIVING,
                         spec.transplant_reward[h, spec.living_donor_state],
                         None))
        legal.append(tuple(a for a, _, _ in acts))
        moves.append(acts)

    n, m = len(cells), max(map(len, legal))
    rewards, rows = np.zeros((n, m)), np.zeros((n, m, n))
    for i, acts in enumerate(moves):
        for j, (_, reward, row) in enumerate(acts):
            rewards[i, j] = reward
            if row is not None:
                rows[i, j] = row
    return cells, legal, rewards, rows


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

    H, K = spec.n_patient, spec.n_organ
    grid, shape = {Variant.LIVING_DONOR: ((1, H, 1), (H,)),
                   Variant.DIALYSIS: ((2, H, K), (2, H, K))
                   }.get(spec.variant, ((1, H, K), (H, K)))
    at = tuple(np.array(cells).T)
    values = np.zeros(grid)
    values[at] = best_vals
    actions = np.full(grid, int(Action.NONE), dtype=np.int64)
    actions[at] = [int(a) for a in assign]
    return values.reshape(shape), actions.reshape(shape)
