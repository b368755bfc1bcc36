"""Reference pair LP: every point-pair variable and every triangle row.

``metricvote.lp.build_metric_lp`` merges identical ballots, keeps only the
covering ordering rows, drops implied triangle rows and, without alpha,
keeps voter rows only for the candidate pairs containing b, which
``lp.solve_pair`` certifies against the rows left out, and substitutes the
distances that its module docstring proves dominated.  This module keeps
the unreduced program, with one variable per pair of points (voters
0..n-1, candidates n..n+m-1) and the three triangle rows of every point
triple, so the tests can check the reduced program against it.  It is
small-instance code: the program has O((n + m)^3) rows.

``extract_pseudometric`` turns a certified solution of the reduced program
into a full witness, as the **Witnesses** paragraph of ``metricvote.lp``
describes, so the tests can check that it is a consistent metric.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy import sparse

from conftest import second_of, top_of

from metricvote.core import Election, MetricWitness, _shortest_paths
from metricvote.errors import ConfigError
from metricvote.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpOutcome, solve_lp


def from_rows(var_names, objective: dict, ub_rows=(), eq_rows=(), meta=None) -> LinearProgram:
    """LinearProgram from dict-keyed rows (small programs)."""
    index = {v: i for i, v in enumerate(var_names)}
    obj = np.zeros(len(var_names))
    for v, coef in objective.items():
        obj[index[v]] = coef

    def pack(rows):
        if not rows:
            return None, None
        data, ri, ci, rhs = [], [], [], []
        for r, (row, b) in enumerate(rows):
            rhs.append(b)
            for v, coef in row.items():
                ri.append(r)
                ci.append(index[v])
                data.append(coef)
        mat = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), len(var_names)))
        return mat, np.array(rhs, dtype=float)

    a_ub, b_ub = pack(list(ub_rows))
    a_eq, b_eq = pack(list(eq_rows))
    return LinearProgram(obj, a_ub, b_ub, a_eq, b_eq, meta or {})


def _pair_index(m: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(itertools.combinations(range(m), 2))}


def build_full(e: Election, a: int, b: int, alpha=None) -> LinearProgram:
    """Reference builder with every pair variable and every triangle row."""
    n, m = e.n, e.m
    size = n + m
    pidx = _pair_index(size)  # points: voters 0..n-1, candidates n..n+m-1
    var_names = [("pp", p, q) for p, q in itertools.combinations(range(size), 2)]

    def vi(p: int, q: int) -> int:
        return pidx[(p, q) if p < q else (q, p)]

    objective = {}
    for i in range(n):
        objective[var_names[vi(i, n + a)]] = 1.0
    ub_rows = []
    for i in range(n):
        for p, q in e.prefs[i]:
            ub_rows.append(({var_names[vi(i, n + p)]: 1.0, var_names[vi(i, n + q)]: -1.0}, 0.0))
    if alpha is not None:
        for i in range(n):
            t, s = top_of(e, i), second_of(e, i)
            ub_rows.append(({var_names[vi(i, n + t)]: 1.0, var_names[vi(i, n + s)]: -float(alpha)}, 0.0))
    for p, q, r in itertools.combinations(range(size), 3):
        for x, y, z in ((p, q, r), (p, r, q), (q, r, p)):
            row = {var_names[vi(x, y)]: 1.0}
            row[var_names[vi(x, z)]] = row.get(var_names[vi(x, z)], 0.0) - 1.0
            row[var_names[vi(z, y)]] = row.get(var_names[vi(z, y)], 0.0) - 1.0
            ub_rows.append((row, 0.0))
    eq_rows = [({var_names[vi(i, n + b)]: 1.0 for i in range(n)}, 1.0)]
    meta = {"kind": "reference", "n": n, "m": m, "a": a, "b": b, "alpha": alpha}
    return from_rows(var_names, objective, ub_rows, eq_rows, meta)


def solve_full(e: Election, a: int, b: int, alpha=None) -> LpOutcome:
    """Solve the reference pair LP with the infeasibility re-check of
    ``lp.distortion_pair``: an infeasible report on a feasible program is unbounded."""
    lp = build_full(e, a, b, alpha)
    out = solve_lp(lp)
    if out.status == INFEASIBLE:
        probe = dataclasses.replace(lp, objective=np.zeros_like(lp.objective))
        if solve_lp(probe).status == OPTIMAL:
            return LpOutcome(UNBOUNDED, math.inf, None, lp)
    return out


def extract_pseudometric(e: Election, outcome: LpOutcome) -> MetricWitness:
    """Turn an optimal solution of ``e``'s reduced pair LP into a full pseudo-metric witness.

    The first nb * m entries of ``outcome.x`` are the per-ballot blocks of
    voter-candidate distances, and the rest the candidate pairs p < q that
    the program's ``meta["pairs"]`` names, in ``np.triu_indices`` order.
    Negative solver noise is clipped to 0.  A merged ballot's distances are
    copied to every voter casting it, and those voters are placed at one
    point.  The other voter-voter distances and the candidate pairs left
    out are completed by all-pairs shortest paths, which preserves every
    solved distance of a certified solution and repairs solver-tolerance
    triangle slack.  The witness is a float table.
    """
    if outcome.status != OPTIMAL:
        raise ConfigError(f"cannot extract a witness from a {outcome.status} outcome")
    n, m, ballot_of = e.n, e.m, e.ballot_of
    nbm = len(e.levels) * m
    x = np.maximum(outcome.x, 0.0)
    d = np.full((n + m, n + m), np.inf)
    np.fill_diagonal(d, 0.0)
    d[:n, n:] = x[:nbm].reshape(-1, m)[ballot_of]
    d[n:, :n] = d[:n, n:].T
    pa, pb = (k[outcome.program.meta["pairs"]] for k in np.triu_indices(m, 1))
    d[n:, n:][pa, pb] = d[n:, n:][pb, pa] = x[nbm:]
    d[:n, :n][ballot_of[:, None] == ballot_of[None, :]] = 0.0
    _shortest_paths(d)
    return MetricWitness(n, m, d)
