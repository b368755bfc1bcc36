"""Worst-case cost-ratio LPs and the instance-optimal Minimax rule.

For candidates a, b the program maximises SC(a) subject to SC(b) = 1 over
all pseudo-metrics consistent with the stated preferences.  Variables are
unordered point pairs: symmetry is folded away structurally and the
diagonal is implicit.

The program has one block of m voter-candidate distances per distinct
ballot, a row of ``Election.levels``, in the election's ballot order, and
one distance y_pq per kept candidate pair, in ``np.triu_indices`` order.
The pairs kept are the b-star, the m - 1 pairs that contain b, and any
pairs the certificate below adds.  With ``alpha`` set they are every pair
from the start: the alpha rows make the b-star's certificate fail on
nearly every pair, which would solve each pair twice.  It emits these
rows:

* ``SC(b) = 1`` and the objective ``SC(a)``, each block weighted by
  ``Election.multiplicity``, the number of voters casting its ballot.
  Exact: the feasible set is convex and symmetric under swapping voters
  with equal ballots, so averaging an optimum over each such group loses
  nothing.
* ``d(u,p) <= d(u,q)`` for the covering pairs only: stated pairs p > q with
  no r such that p > r > q.  Exact: every other stated pair is a chain of
  covering pairs, so transitivity implies its row.
* ``y_pq <= d(u,p) + d(u,q)`` for every ballot and kept pair, and
  ``d(u,p) <= d(u,q) + y_pq`` in each direction the ballot does not state.
  Exact: when p > q is stated, ``d(u,p) <= d(u,q)`` and ``y_pq >= 0``
  already imply the dropped row.
* the alpha-decisive rows ``d(u,top) <= alpha * d(u,second)``, if asked.

No row touches two voters: voter-voter distances appear in no objective
or ordering row and can always be completed by shortest paths afterwards.
The full program adds the voter rows of every other candidate pair and the
three triangle rows of every candidate triple.  A program over some of the
pairs keeps a subset of its rows, so it is a relaxation and its value is at
least the full value.  The reference program, with one variable per point
pair and every triangle row over all point triples, lives in the test suite
(``tests/reference_lp.py``), which checks that both agree on status, value
and witness soundness.

**Certificate.**  ``solve_pair`` accepts an optimal solution only when,
for every left-out pair {p, q}, its distances satisfy

    max_u |d(u,p) - d(u,q)| <= min_u (d(u,p) + d(u,q)) + TAU_LP / n

over the ballot blocks u.  The pairs that fail get their rows and column
and the program is solved again, in one loop; once every pair is in, none
is left to fail.

* **A passing certificate proves the value.**  Give each left-out pair a
  y_pq between the two sides, so every voter row holds for every pair.
  Replace y by its shortest-path closure y' over the candidates.  Since
  y' <= y, the rows ``y <= d(u,p) + d(u,q)`` still hold; along a path
  p = r_0, ..., r_k = q the triangle inequality on |.| gives
  ``sum y >= sum |d(u,r_i) - d(u,r_i+1)| >= |d(u,p) - d(u,q)|``, so the
  other rows hold too, and y' satisfies every candidate triangle.  So the
  optimum with y' is feasible for the full program, with the same
  objective, and the two values are equal.  The same closure shows that
  the triangle rows are implied once every pair is in, so the loop's last
  program is exact without them.
* **The tolerance is TAU_LP / n.**  SC(b) = 1 over n voters, so 1/n is the
  mean voter distance to b.  A certificate failing by delta <= TAU_LP / n is
  repaired by adding delta/2 to every voter-candidate distance: ordering
  rows and each |d(u,p) - d(u,q)| stay as they are, each d(u,p) + d(u,q)
  gains delta.  Without alpha the repaired point, rescaled, is feasible for
  the full program with ratio (V + n delta/2)/(1 + n delta/2) >=
  V - (V - 1) TAU_LP / 2 for the solved value V, so V is within TAU_LP of
  the full value.  The shift can break alpha rows; with alpha set the
  tolerance is the same, below the 1e-7 feasibility tolerance HiGHS allows
  on the rows it did solve.
* **Unboundedness agrees.**  ``ratio_bound``'s proof uses only rows of the
  pair {a, b}, which the b-star keeps, so it bounds every program solved.
  If the full program is unbounded, so is each relaxation.  If a solved
  program is unbounded, some feasible point of its homogeneous rows has
  SC(b) = 0 < SC(a).  Every weight is positive, so d(u,b) = 0 on every
  block, and the rows of each pair {b, q}, all of which the b-star keeps,
  read ``d(u,q) <= y_bq <= d(u,q)`` (when q > b is stated and the row is
  dropped, d(u,q) <= d(u,b) = 0): every voter is at y_bq from q.  The star
  metric centred on b, with the voters and b at one point and each q at
  y_bq from it, has these distances, so it is consistent, and adding
  multiples of it to a feasible point of the full program raises SC(a)
  without bound.
* **Witnesses.**  ``extract_pseudometric`` fills the pairs it did not solve
  by shortest paths.  A path p - u - q through a voter is at least
  min_u (d(u,p) + d(u,q)), the largest y_pq the certificate allows, so the
  closure keeps every solved voter-candidate distance, up to the tolerance.

One path builds and solves a pair LP: ``solve_pair`` calls
``build_metric_lp``, then ``solve_lp`` (through this module's ``linprog``),
re-checks a reported infeasibility before reading it as +inf, and runs the
certificate.  ``distortion_pair`` returns its value, and raises witness
floors (below) when given a floor array; callers that need the solution
vector, as ``extract_pseudometric`` does, call ``solve_pair``.

Two outputs share one set of rules.  ``distortion_table`` solves every
pair LP that the closed form below does not settle; ``minimax`` returns
only the winner, its value and its worst opponent, and solves only the
pair LPs that certified bounds cannot rule out:

* **Bound.** Let c voters state a > b.  Each of them gives
  d(a,b) <= 2 d(i,b) and d(i,a) <= d(i,b); every other voter j has
  d(j,a) <= d(j,b) + d(a,b).  So the pair LP value is at most
  B(a,b) = 1 + 2(n - c)/c, where n counts silent voters too (inf when
  c = 0).  Closing B under products along paths keeps it a bound
  (``ratio_bound``).  B is attained, e.g. 3 on one voter each way.
* **Floor.** Put a set X of candidates containing a but not b at point 0
  and the rest at point 2, each voter stating some p in X above some q
  outside X at 1, and every other voter at 2.  A voter at 1 is equally far
  from every candidate.  A voter at 2 is at distance 2 from X and 0 from
  the rest, and states no X candidate above a non-X one, so each pair it
  states is at equal distance or puts the nearer candidate first.  So
  this line pseudo-metric is consistent, and with ``far`` voters at 2 and
  ``mid`` voters at 1 it gives SC(a)/SC(b) = 1 + 2 far/mid.  Let s_a count
  the voters stating a above anything, and t_b those stating nothing above
  b, silent voters included.  X = {a} has the s_a voters as ``mid`` and
  gives 1 + 2(n - s_a)/s_a against every b; X = V - {b} has the t_b voters
  as ``far`` and gives 1 + 2 t_b/(n - t_b) for every a.  Their larger is
  the pair floor F(a, b) (``pair_floor``), and its row maximum bounds each
  candidate's value (``value_floor``).  With ``alpha`` set the floor is 1:
  a voter at 1 is as far from its top as from its second choice, which the
  alpha rows forbid once alpha < 1.
* **Closed form.**  F(a, b) <= V(a, b) <= B*(a, b) for the pair value V
  and ``ratio_bound``'s B*.  So where F(a, b) >= B*(a, b) (1 - TAU_LP), V
  lies in [F, F / (1 - TAU_LP)], and F(a, b) is taken as the pair's value
  with no LP (``_settled``), by ``minimax``, ``distortion_of`` and
  ``distortion_table`` alike, so all three read the same number.  Let c
  voters state a > b.  If c = s_a then F >= 1 + 2(n - c)/c = B(a, b), and
  if c = n - t_b likewise, so the pair is settled.  On top-1
  ballots every voter stating anything states its top above every other
  candidate, so c = s_a on every pair: no LP is solved, and the value of
  a is 2n/n_a - 1 for the n_a voters topping a.  Off with ``alpha``.
* **Witness floors.**  An optimal pair LP's solution is certified, so its
  voter-candidate distances d extend to a consistent pseudo-metric (see
  the certificate).  Its social costs sc = ``multiplicity`` @ d give
  SC(c)/SC(d) <= V(c, d) for every c and d, so max_d sc(c)/sc(d) is a floor
  on each candidate's value.  ``minimax`` passes its floors to
  ``distortion_pair``, which raises them in place after each LP.
  SC(b) = 1 sets the scale, and denominators below TAU_LP are skipped, so
  rounding in a near-zero cost cannot inflate a ratio.  The witness
  satisfies the alpha rows, so these floors hold with ``alpha`` set too.
* **Drop.**  A candidate is dropped, before or during its scan, as soon as
  the larger of its floor and its running maximum, times (1 - TAU_LP), is
  strictly above the least value found so far.
* **Search.** Candidates are visited by ascending largest bound, and each
  candidate's opponents by descending bound, ties by index: a settled pair
  is read from its closed form, any other solved.  The scan of a candidate
  stops once its running maximum is inf, or once the next bound times
  (1 + TAU_LP), which covers solver noise, is strictly below
  (``_strictly_less``) the running maximum.
* **Candidate value.** Read the candidate itself (value 1) and then its
  opponents by index; the value is the first of these entries that is not
  strictly below the largest, and the worst opponent is that entry's
  opponent (the candidate itself when the entry is its own).  In the
  usual float-noise ties, where several opponents attain one bound, this
  is the smallest such opponent and its solved value, as a running
  maximum updated only on strict increases would give.
* **Winner.** The smallest candidate c such that the least value is not
  strictly below c's value.

Both rules are functions of the values, not of the visiting order, and a
settled pair has one value wherever it is read.  A skipped opponent is
strictly below its row's largest.  A dropped candidate, whether by its
running maximum, its two-cluster floor or a witness floor, is strictly
above the least value, since its value is at least each floor up to solver
noise.  So neither can change a value, a worst opponent or the winner:
``minimax`` agrees with ``distortion_table`` exactly, not only within
``TAU_LP``.

SciPy is imported on the first LP, not with this module: ``build_metric_lp``
imports ``scipy.sparse`` and ``linprog`` imports the solver when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .core import Election, MetricWitness, _relation, _shortest_paths
from .errors import ConfigError, SolverFailureError

if TYPE_CHECKING:
    from scipy import sparse

#: Relative tolerance on LP objective values.
TAU_LP = 1e-7

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LinearProgram:
    """Sparse LP in maximisation form: max c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""

    objective: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix | None
    b_eq: np.ndarray | None
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass
class LpOutcome:
    """A solved LP: its status and value, and ``x``, the optimal solution
    vector in the program's column order (None unless optimal)."""

    status: str
    value: float
    x: np.ndarray | None = None
    program: LinearProgram | None = None


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Importing SciPy's optimiser takes more time and memory than importing
    the rest of the package, NumPy included, and only the LPs need it, so
    it is not imported with this module.  ``solve_lp`` calls this module
    attribute rather than SciPy's function, so a wrapper bound to
    ``lp.linprog`` sees every solve.
    """
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve via HiGHS; unboundedness is detected and reported as +inf."""
    res = linprog(
        -lp.objective,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq,
        b_eq=lp.b_eq,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 0:
        return LpOutcome(OPTIMAL, -float(res.fun), res.x, lp)
    if res.status == 3:
        return LpOutcome(UNBOUNDED, math.inf, None, lp)
    if res.status == 2:
        return LpOutcome(INFEASIBLE, math.nan, None, lp)
    raise SolverFailureError(f"LP solver failed (status {res.status}): {res.message}")


# -- metric LP construction --------------------------------------------------


def _alpha_rows(e: Election, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Per ballot, (top, second), for the rows d(i, top) <= alpha * d(i, second)."""
    if not 0 <= alpha <= 1:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    lacking = np.flatnonzero(e._second < 0)  # a ballot without a top has no second either
    if len(lacking):
        # ballots are numbered by first appearance: the first such ballot's first voter comes first
        voter = int(np.argmax(e.ballot_of == lacking[0]))
        raise ConfigError(f"voter {voter} has no identified top and second choice")
    return e._top, e._second


def build_metric_lp(e: Election, a: int, b: int, alpha=None, *, pairs=None) -> LinearProgram:
    """The reduced program of the pair (a, b): its value is the worst
    consistent cost ratio of a against b once ``solve_pair`` has certified it.

    ``pairs`` is a bool mask over the candidate pairs p < q in
    ``np.triu_indices`` order, naming the pairs that get voter rows and a
    y column; None gives the b-star, the m - 1 pairs that contain b, or
    every pair when ``alpha`` is set.  It is kept as ``meta["pairs"]``.
    """
    from scipy import sparse

    if a == b:
        raise ConfigError("build_metric_lp needs distinct candidates")
    n, m = e.n, e.m

    # one block of m distances per distinct ballot
    stated = _relation(e.levels)
    nb = len(stated)
    weight = e.multiplicity.astype(float)
    covering = stated & ~np.matmul(stated, stated)

    nbm = nb * m
    pa, pb = np.triu_indices(m, 1)
    if pairs is None:
        pairs = np.full(len(pa), True) if alpha is not None else (pa == b) | (pb == b)
    pa, pb = pa[pairs], pb[pairs]  # the candidate pairs kept, one column each
    ncp = len(pa)
    nvars = nbm + ncp

    obj = np.zeros(nvars)
    obj[np.arange(nb) * m + a] = weight

    row_parts, col_parts, val_parts = [], [], []
    nrows = 0

    def emit(*terms):
        """Append one row per index of the column arrays; each term is (cols, coefficient)."""
        nonlocal nrows
        r = len(terms[0][0])
        ids = np.arange(nrows, nrows + r)
        for cols, val in terms:
            row_parts.append(ids)
            col_parts.append(cols)
            val_parts.append(np.broadcast_to(np.asarray(val, dtype=float), (r,)))
        nrows += r

    u, p, q = np.nonzero(covering)
    emit((u * m + p, 1.0), (u * m + q, -1.0))
    if alpha is not None:
        top, second = _alpha_rows(e, alpha)
        base = np.arange(nb) * m
        emit((base + top, 1.0), (base + second, -float(alpha)))

    # voter/candidate-pair triangle rows; d(u,p) <= d(u,q) + y_pq is implied when p > q is stated
    triangle = (
        (~stated[:, pa, pb], (1.0, -1.0, -1.0)),
        (~stated[:, pb, pa], (-1.0, 1.0, -1.0)),
        (np.ones((nb, ncp), dtype=bool), (-1.0, -1.0, 1.0)),
    )
    for keep, (sp, sq, sy) in triangle:
        u, k = np.nonzero(keep)
        emit((u * m + pa[k], sp), (u * m + pb[k], sq), (nbm + k, sy))

    a_ub = sparse.csr_matrix(
        (np.concatenate(val_parts), (np.concatenate(row_parts), np.concatenate(col_parts))),
        shape=(nrows, nvars),
    )
    b_ub = np.zeros(nrows)

    a_eq = sparse.csr_matrix(
        (weight, (np.zeros(nb, dtype=np.int64), np.arange(nb) * m + b)), shape=(1, nvars)
    )
    b_eq = np.ones(1)

    meta = {
        "kind": "metric", "n": n, "m": m, "a": a, "b": b, "alpha": alpha,
        "ballots": nb, "ballot_of": e.ballot_of, "pairs": pairs,
    }
    return LinearProgram(obj, a_ub, b_ub, a_eq, b_eq, meta)


def _uncertified(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """The left-out pairs whose certificate fails, as a mask like ``meta["pairs"]``.

    A pair {p, q} passes when max_u |d(u,p) - d(u,q)| <= min_u (d(u,p) +
    d(u,q)) + TAU_LP / n over the ballot blocks of ``x``.
    """
    meta = lp.meta
    m = meta["m"]
    d = x[: meta["ballots"] * m].reshape(-1, m)
    pa, pb = np.triu_indices(m, 1)
    gap = np.abs(d[:, pa] - d[:, pb]).max(axis=0) - (d[:, pa] + d[:, pb]).min(axis=0)
    return ~meta["pairs"] & (gap > TAU_LP / meta["n"])


def solve_pair(e: Election, a: int, b: int, alpha=None) -> LpOutcome:
    """The pair LP of (a, b), solved over the b-star and certified.

    An optimal answer is returned only once ``_uncertified`` finds no
    failing pair; otherwise the failing pairs' rows are added and the
    program solved again.  Consistent metrics always exist, so a reported
    infeasibility is re-checked with a zero objective and read as
    unbounded; if the re-check finds no feasible point either, the solver
    has failed.
    """
    lp = build_metric_lp(e, a, b, alpha=alpha)
    while True:
        out = solve_lp(lp)
        if out.status == INFEASIBLE:
            probe = LinearProgram(np.zeros_like(lp.objective), lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq, lp.meta)
            if solve_lp(probe).status == OPTIMAL:
                return LpOutcome(UNBOUNDED, math.inf, None, lp)
            raise SolverFailureError(f"metric LP reported infeasible for pair ({a}, {b})")
        if out.status != OPTIMAL:
            return out
        left = _uncertified(lp, out.x)
        if not left.any():
            return out
        lp = build_metric_lp(e, a, b, alpha=alpha, pairs=lp.meta["pairs"] | left)


def distortion_pair(e: Election, a: int, b: int, alpha=None, *, floor: np.ndarray | None = None) -> float:
    """Worst-case SC(a)/SC(b) over consistent metrics; +inf when unbounded.

    ``floor``, an (m,) array of lower bounds on the candidates' values, is
    raised in place to an optimal solution's witness ratios, max over d of
    SC(c)/SC(d) for each c, skipping SC(d) < TAU_LP (module docstring).
    """
    if a == b:
        return 1.0
    out = solve_pair(e, a, b, alpha=alpha)
    if floor is not None and out.status == OPTIMAL:
        sc = e.multiplicity @ np.maximum(out.x[: len(e.levels) * e.m].reshape(-1, e.m), 0.0)
        np.maximum(floor, sc / sc[sc >= TAU_LP].min(), out=floor)
    return out.value


def ratio_bound(e: Election) -> np.ndarray:
    """Certified upper bounds B*(a, b) on every pair LP value, as an (m, m) array.

    Let the set S of c voters state a > b.  Each i in S has
    d(a,b) <= d(i,a) + d(i,b) <= 2 d(i,b), so d(a,b) <= 2 SC(b) / c, and
    d(i,a) <= d(i,b); every other voter j has d(j,a) <= d(j,b) + d(a,b).
    Hence SC(a) <= SC(b) + (n - c) d(a,b) <= (1 + 2(n - c)/c) SC(b), with n
    counting silent voters too; the bound is inf where c = 0.  Ratios
    multiply along paths, so the min-product closure (a Floyd-Warshall over
    log B) is a bound as well.  The diagonal is 1.
    """
    counts = e.pair_counts
    stated = counts > 0
    bound = np.where(stated, 1 + 2 * (e.n - counts) / np.where(stated, counts, 1), np.inf)
    np.fill_diagonal(bound, 1.0)
    for k in range(e.m):
        np.minimum(bound, bound[:, k : k + 1] * bound[k : k + 1, :], out=bound)
    return bound


def _cluster_ratio(far: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """1 + 2 far/mid, the two-cluster SC(a)/SC(b); inf when mid = 0 < far, 1 when far = 0."""
    return np.where(mid > 0, 1 + 2 * far / np.where(mid > 0, mid, 1), np.where(far > 0, np.inf, 1.0))


def pair_floor(e: Election) -> np.ndarray:
    """Certified lower bounds F(a, b) on every pair LP value without alpha, as an (m, m) array.

    F(a, b) = max(1 + 2(n - s_a)/s_a, 1 + 2 t_b/(n - t_b)), the two
    two-cluster metrics of the module docstring: s_a counts the voters
    stating a above anything, and t_b those stating nothing above b,
    silent voters included.  The diagonal is 1.
    """
    levels, weight = e.levels, e.multiplicity
    # a ballot states a above something iff a's level is below its highest, and nothing above level 0
    s = weight @ (levels < levels.max(axis=1, keepdims=True))
    t = weight @ (levels == 0)
    floor = np.maximum(_cluster_ratio(e.n - s, s)[:, None], _cluster_ratio(t, e.n - t))
    np.fill_diagonal(floor, 1.0)
    return floor


def value_floor(e: Election) -> np.ndarray:
    """Certified lower bounds on every candidate's value, as an (m,) array:
    the row maxima of ``pair_floor``, 1 with one candidate."""
    return pair_floor(e).max(axis=1)


def _settled(e: Election, bound: np.ndarray, alpha) -> np.ndarray:
    """The pair values known without an LP, as an (m, m) array: ``pair_floor``
    where it is at least ``bound`` narrowed by TAU_LP and ``alpha`` is None
    (module docstring), NaN elsewhere."""
    if alpha is not None:
        return np.full(bound.shape, np.nan)
    floor = pair_floor(e)
    return np.where(floor >= bound * (1 - TAU_LP), floor, np.nan)


def _strictly_less(x: float, y: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x < y
    return x < y - TAU_LP * max(1.0, abs(x), abs(y))


def _row_value(a: int, solved: dict[int, float]) -> tuple[float, int]:
    """A candidate's value and worst opponent: the first entry of its row not
    strictly below the row's largest, reading the candidate itself (value 1)
    first and then its solved opponents by index."""
    row = [(a, 1.0), *sorted(solved.items())]
    top = max(v for _, v in row)
    worst, value = next((b, v) for b, v in row if not _strictly_less(v, top))
    return value, worst


def _winner(values: dict[int, float]) -> int:
    """Smallest candidate whose value is not strictly above the least value."""
    low = min(values.values())
    return min(c for c, v in values.items() if not _strictly_less(low, v))


def _scan(
    e: Election, a: int, bound: np.ndarray, settled: np.ndarray, floor: np.ndarray, alpha, cutoff: float = math.inf
) -> tuple[float, int] | None:
    """``_row_value`` of ``a`` from the pairs its bounds cannot rule out.

    Opponents are read by descending bound (then index): from ``settled``
    where it has a value, else by their LP, which raises ``floor`` in
    place.  The scan stops once the running maximum
    is inf, or once the next bound, widened by ``TAU_LP`` for solver noise,
    is strictly below the running maximum: no remaining pair can then come
    within ``TAU_LP`` of the row's largest.  Returns None, before an LP,
    once the larger of the running maximum and ``floor[a]``, narrowed by
    ``TAU_LP``, is strictly above ``cutoff``: the value of ``a`` is then
    strictly above it.
    """
    solved, top = {}, 1.0
    for b in np.argsort(-bound[a], kind="stable").tolist():
        if b == a:
            continue
        if math.isinf(top) or _strictly_less(bound[a, b] * (1 + TAU_LP), top):
            break
        solved[b] = float(settled[a, b])
        if math.isnan(solved[b]):
            if _strictly_less(cutoff, max(top, floor[a]) * (1 - TAU_LP)):
                return None
            solved[b] = distortion_pair(e, a, b, alpha=alpha, floor=floor)
        top = max(top, solved[b])
    return _row_value(a, solved)


def distortion_of(e: Election, a: int, alpha=None) -> tuple[float, int]:
    """Candidate a's worst-case ratio over all opponents, with the attaining opponent."""
    bound = ratio_bound(e)
    return _scan(e, a, bound, _settled(e, bound, alpha), np.ones(e.m), alpha)


@dataclass(frozen=True)
class MinimaxResult:
    """The instance-optimal winner, its worst-case ratio and the opponent attaining it."""

    winner: int
    value: float
    worst_opponent: int


def minimax(e: Election, alpha=None) -> MinimaxResult:
    """Instance-optimal rule: the candidate whose worst-case ratio is least.

    Branch and bound over ``ratio_bound``, the settled pairs and the
    floors, as the module docstring sets out: candidates are visited by
    ascending largest bound, and one is dropped, before or during its
    scan, as soon as its value must be strictly above the least value found
    so far.  The floors start at ``value_floor`` and each solved LP's
    witness raises them.  The result equals the winner and its entries in
    ``distortion_table``.  With ``alpha`` set this is the alpha-decisive
    variant, searched with witness floors only; ``alpha = 1`` coincides
    with the plain rule.
    """
    if e.m < 1:
        raise ConfigError("minimax needs at least one candidate")
    bound = ratio_bound(e)
    settled = _settled(e, bound, alpha)
    floor = value_floor(e) if alpha is None else np.ones(e.m)
    rows, incumbent = {}, math.inf
    for a in np.argsort(bound.max(axis=1), kind="stable").tolist():
        row = _scan(e, a, bound, settled, floor, alpha, cutoff=incumbent)
        if row is not None:
            rows[a] = row
            incumbent = min(incumbent, row[0])
    winner = _winner({a: value for a, (value, _) in rows.items()})
    value, worst = rows[winner]
    return MinimaxResult(winner, value, worst)


@dataclass
class DistortionReport:
    """Full pairwise table of worst-case ratios with the minimax winner."""

    values: tuple[tuple[float, ...], ...]
    per_candidate: tuple[float, ...]
    worst_opponent: tuple[int, ...]
    winner: int

    def to_json_dict(self) -> dict:
        def enc(x):
            return "inf" if math.isinf(x) else x

        return {
            "values": [[enc(v) for v in row] for row in self.values],
            "per_candidate": [enc(v) for v in self.per_candidate],
            "worst_opponent": list(self.worst_opponent),
            "winner": self.winner,
        }


def distortion_table(e: Election, alpha=None) -> DistortionReport:
    """Every pair value, each candidate's value and worst opponent, and the
    winner, under the same rules as ``minimax``: settled pairs take their
    closed form, and every other pair its LP."""
    m = e.m
    if m < 1:
        raise ConfigError("distortion_table needs at least one candidate")
    settled = _settled(e, ratio_bound(e), alpha)
    values = [[1.0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            if a != b:
                v = float(settled[a, b])
                values[a][b] = distortion_pair(e, a, b, alpha=alpha) if math.isnan(v) else v
    rows = [_row_value(a, {b: v for b, v in enumerate(values[a]) if b != a}) for a in range(m)]
    winner = _winner({a: value for a, (value, _) in enumerate(rows)})
    return DistortionReport(
        tuple(map(tuple, values)), tuple(v for v, _ in rows), tuple(w for _, w in rows), winner
    )


def extract_pseudometric(outcome: LpOutcome) -> MetricWitness:
    """Turn an optimal pair-LP solution into a full pseudo-metric witness.

    The first nb * m entries of ``outcome.x`` are the per-ballot blocks of
    voter-candidate distances, and the rest the candidate pairs p < q that
    ``meta["pairs"]`` names, in ``np.triu_indices`` order.  Negative solver
    noise is clipped to 0.  A merged ballot's distances are copied to every
    voter casting it, and those voters are placed at one point.  The other
    voter-voter distances and the candidate pairs left out are completed by
    all-pairs shortest paths, which preserves every solved distance of a
    certified solution (module docstring) and repairs solver-tolerance
    triangle slack.  The witness is a float table.
    """
    if outcome.status != OPTIMAL:
        raise ConfigError(f"cannot extract a witness from a {outcome.status} outcome")
    meta = outcome.program.meta
    if meta.get("kind") != "metric":
        raise ConfigError("outcome does not come from a metric LP")
    n, m, ballot_of = meta["n"], meta["m"], meta["ballot_of"]
    nbm = meta["ballots"] * m
    x = np.maximum(outcome.x, 0.0)
    d = np.full((n + m, n + m), np.inf)
    np.fill_diagonal(d, 0.0)
    d[:n, n:] = x[:nbm].reshape(-1, m)[ballot_of]
    d[n:, :n] = d[:n, n:].T
    pa, pb = (k[meta["pairs"]] for k in np.triu_indices(m, 1))
    d[n:, n:][pa, pb] = d[n:, n:][pb, pa] = x[nbm:]
    d[:n, :n][ballot_of[:, None] == ballot_of[None, :]] = 0.0
    _shortest_paths(d)
    return MetricWitness(n, m, d)
