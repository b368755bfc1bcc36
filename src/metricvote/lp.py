"""Worst-case cost-ratio LPs and the instance-optimal Minimax rule.

For candidates a, b the program maximises SC(a) subject to SC(b) = 1 over
all pseudo-metrics consistent with the stated preferences.  Variables are
unordered point pairs: symmetry is folded away structurally and the
diagonal is implicit.

The program has one block of m voter-candidate distances per distinct
ballot, a row of ``Election.levels``, in the election's ballot order, and
one distance y_pq per kept candidate pair, in ``np.triu_indices`` order;
without ``alpha`` the block keeps a column only for the distances that
the two rules under **Dominated distances** do not substitute.
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
* **Unboundedness agrees.**  ``ratio_bound``'s two proofs (**Bound**
  below) use only ordering rows and rows of pairs that contain b: B those
  of the pair {a, b}, and R, like B, those of the pairs {b, c}, c = a
  included, as d(i,c) <= d(i,b) + y_bc <= d(i,b) + d(j,b) + d(j,c).  The
  b-star keeps all of these, so both bound every program solved.
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
* **Witnesses.**  A certified solution extends to a full consistent
  pseudo-metric: fill the pairs it did not solve by shortest paths.  A
  path p - u - q through a voter is at least min_u (d(u,p) + d(u,q)), the
  largest y_pq the certificate allows, so the closure keeps every solved
  voter-candidate distance, up to the tolerance.  The witness floors below
  rest on this; the test suite builds that witness with
  ``extract_pseudometric`` in ``tests/reference_lp.py`` and checks it.

**Dominated distances.**  Without ``alpha``, ``build_metric_lp``
substitutes two kinds of voter-candidate distances before the solve
(``_columns``), for any kept pair set.  Each rule maps every feasible point
to one that obeys it, keeps every row and does not lower SC(a); so the
substituted program has the same status and value, and its optimum, lifted
back to full ballot blocks (``LinearProgram.lift``, applied by
``solve_lp``), is an optimum of the program over the kept pairs.  The
certificate and the witness floors read that lifted vector, and the
unboundedness argument above holds as it stands.

* **Rule 1, above b.**  Take a ballot u on which b's level is b's alone,
  as in total orders and in top lists that list b.  Raise d(u,p) to d(u,b)
  for every p it states above b; ordering rows give d(u,p) <= d(u,b), so
  this raises them.  Every other candidate q is b or stated below b, so
  d(u,q) >= d(u,b).  A covering row from a raised p reaches a raised
  candidate or b, since b is alone at its level, and reads
  d(u,b) <= d(u,b); the other ordering rows do not change.  Each
  |d(u,p) - d(u,q)| shrinks: to 0 when both are raised, to
  d(u,q) - d(u,b) <= d(u,q) - d(u,p) when only p is.  So the rows
  d(u,p) <= d(u,q) + y_pq hold; the rows y_pq <= d(u,p) + d(u,q) only gain
  on the right; SC(b) is unchanged and SC(a) does not fall.  So all of
  them read b's column.  With b tied at its level, a covering row from p
  above b to a candidate tied with b would need d(u,b) <= d(u,q), which no
  row gives, so the rule is off for that ballot.
* **Rule 2, bottom candidates.**  Take a candidate q other than a and b
  that ballot u states above nothing, whose only kept pair is {b, q}.
  d(u,q) has a positive coefficient in one row only,
  d(u,q) <= d(u,b) + y_bq, which is kept since q > b is not stated: it is
  in neither SC(a) nor SC(b), on the right of its covering rows, and
  negative in the pair's other two rows.  Raising d(u,q) to
  d(u,b) + y_bq keeps every row and the objective, so d(u,q) reads b's
  column plus y_bq.  A candidate above b states something, so the two
  rules move disjoint distances; Rule 2 leaves d(u,b) as it is, so Rule 1,
  then Rule 2, maps an optimum to one that obeys both.  A pair the
  certificate adds turns Rule 2 off for its two candidates.
* **Rows.**  After the substitution a row with no positive coefficient is
  dropped: with b_ub = 0 and x >= 0 it always holds.  These are the
  ordering and ``d(u,p) <= d(u,q) + y_pq`` rows whose two distances read
  one column (0 <= 0, -y <= 0 or -2 y <= 0), and the rows
  y_bq <= d(u,b) + d(u,q) of a Rule 2 candidate (-2 d(u,b) <= 0).  Every
  other row keeps a positive coefficient: on y_pq, or on the distance it
  bounds.  A y_pq <= d(u,p) + d(u,q) row whose distances both read b's
  column becomes y_pq <= 2 d(u,b).
* **Alpha.**  Raising distances can break d(u,top) <= alpha d(u,second),
  so with ``alpha`` set both rules are off and every distance keeps its
  column.

One path builds and solves a pair LP: ``solve_pair`` calls
``build_metric_lp``, then ``solve_lp``, re-checks a reported infeasibility
before reading it as +inf, and runs the certificate.  ``solve_lp`` calls
this module's ``linprog``, the one HiGHS call: HiGHS's dual simplex
(Huangfu and Hall, Math. Prog. Comp. 2018) through SciPy's own binding,
with the options, checks and status codes of
``scipy.optimize.linprog(method="highs")`` but without its per-LP
overhead.  ``distortion_pair`` returns its value, and raises witness
floors (below) when given a floor array; callers that need the solution
vector call ``solve_pair``.

Two outputs share one set of rules.  ``distortion_table`` solves every
pair LP that the closed form below does not settle; ``minimax`` returns
only the winner, its value and its worst opponent, and solves only the
pair LPs that certified bounds cannot rule out:

* **Bound.** Let c voters state a > b.  Each of them gives
  d(a,b) <= 2 d(i,b) and d(i,a) <= d(i,b); every other voter j has
  d(j,a) <= d(j,b) + d(a,b).  So the pair LP value is at most
  B(a,b) = 1 + 2(n - c)/c, where n counts silent voters too (inf when
  c = 0).  B is attained, e.g. 3 on one voter each way.  The routed bound
  R(a, b) is Kempe's path argument (AAAI 2020) along the domination graph
  of Gkatzelis, Halpern and Shah (FOCS 2020).  Per ballot u let
  D_u(a) = {a} + {c : u states a > c} and U_u(b) = {b} + {c : u states
  c > b}.  For a voter i that does not state a > b, a voter j and a
  candidate c in both D_i(a) and U_j(b),
  d(i,a) <= d(i,c) <= d(i,b) + d(b,j) + d(j,c) <= d(i,b) + 2 d(j,b).
  Route each such i fractionally to such voters j, with at most L voters'
  worth of load on any one j; a voter stating a > b has
  d(i,a) <= d(i,b) as it is.  Summed, SC(a) <= (1 + 2L) SC(b).  The
  least L is the largest in(C, a) / hit(C, b) over the candidate sets C
  with a in C and b not in it, where in(C, a) counts the voters u with
  D_u(a) inside C and hit(C, b) those with U_u(b) meeting C: by
  fractional Hall (max-flow equals min-cut) a routing with load L exists
  iff every set X of sources reaches at least |X| / L voters.  The
  in(C, a) sources whose D lies inside C reach only the hit(C, b) voters
  whose U meets C; and any X reaches exactly the hit(C, b) voters of its
  C, the union of its D's, which holds a and not b, with
  in(C, a) >= |X|.  So R(a, b) = 1 + 2 max_C in / hit, inf where
  hit = 0 < in.  Routing every source evenly to the c voters stating
  a > b (through c = a) gives back B, so R <= B.  ``ratio_bound`` takes
  the smaller of the two and closes it under products along paths, which
  keeps it a bound.
* **Floor.** Let s_a count the voters stating a above anything, t_b those
  stating nothing above b, silent voters included, and c those stating
  a > b.  Two consistent metrics give floors on the pair value.  The first
  is a two-cluster line metric: put a at point 0 and the rest at point 2,
  each voter stating a above some candidate at 1, and every other voter
  at 2.  A voter at 1 is equally far from every candidate.  A voter at 2
  is at distance 2 from a and 0 from the rest, and states a above
  nothing, so each pair it states is at equal distance or puts the nearer
  candidate first.  With the n - s_a voters at 2 and the s_a at 1 it
  gives 1 + 2(n - s_a)/s_a against every b.  The second is the b-star
  simplex: every candidate is at distance 2 from every other, a voter
  stating nothing above b sits on b, 0 from b and 2 from the rest, and
  every other voter u is 1 from b and from each candidate it states above
  b, and 3 from all the rest.  Any two of a voter's candidate distances
  differ by at most 2 and sum to at least 2, the distance between the two
  candidates, so every voter row holds, and voter-voter distances
  complete it by shortest paths.  The candidates at 1 from u are b and
  those stated above b, an upper set of u's ballot: whatever u states
  above one of them it states above b.  So no stated pair puts a
  candidate at 3 above one at 1; a voter on b states nothing above b, so
  it puts no candidate above b either; ties and unlisted candidates add
  no rows.  SC(b) = n - t_b.  The c voters stating a > b are at 1 from a,
  and none of them is on b; the t_b voters on b are at 2 and the rest at
  3.  So SC(a)/SC(b) = (c + 2 t_b + 3(n - t_b - c)) / (n - t_b) = G(a, b)
  = 1 + 2(n - c)/(n - t_b), inf when t_b = n > 0 and 1 when c = n.  Since
  no voter on b states a > b, n - c >= t_b, so G is at least
  1 + 2 t_b/(n - t_b), the two-cluster ratio with every candidate but b
  at point 0, which it replaces.  The larger of the two floors is the
  pair floor F(a, b) (``pair_floor``), and its row maximum bounds each
  candidate's value (``_floors``).  With ``alpha`` set the floor is 1: in
  both metrics some voter is as far from its top as from its second
  choice, which the alpha rows forbid once alpha < 1.
* **Closed form.**  F(a, b) <= V(a, b) <= B*(a, b) for the pair value V
  and ``ratio_bound``'s B*.  So where F(a, b) >= B*(a, b) (1 - TAU_LP), V
  lies in [F, F / (1 - TAU_LP)], and F(a, b) is taken as the pair's value
  with no LP (``_floors``), by ``minimax``, ``distortion_of`` and
  ``distortion_table`` alike, so all three read the same number.  If
  c = s_a then F >= 1 + 2(n - c)/c = B(a, b), and if c = n - t_b then
  G(a, b) = B(a, b), so the pair is settled.  On top-1 ballots every
  voter stating anything states its top above every other candidate, so
  c = s_a on every pair: no LP is solved, and the value of a is
  2n/n_a - 1 for the n_a voters topping a.  Off with ``alpha``.
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
running maximum, its pair floor or a witness floor, is strictly
above the least value, since its value is at least each floor up to solver
noise.  So neither can change a value, a worst opponent or the winner:
``minimax`` agrees with ``distortion_table`` exactly, not only within
``TAU_LP``.

SciPy is imported on the first LP, not with this module: ``build_metric_lp``
imports ``scipy.sparse`` and ``linprog`` imports SciPy's HiGHS binding,
``scipy.optimize._highspy._core``, when called.  That module is private to
SciPy and arrived with its highspy bindings in 1.15, the floor
``pyproject.toml`` sets.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .core import Election, _check_candidates, _need_voters, _pair_counts, _subset_counts
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
    #: None when the columns are the full layout; else a (2, full length)
    #: index array into the solution with one 0 appended, whose two picks
    #: add up to each entry of the full layout (``build_metric_lp``)
    lift: np.ndarray | None = None


@dataclass
class LpOutcome:
    """A solved LP: its status and value, and ``x``, the optimal solution
    vector in the program's full layout, ``lift`` applied (None unless optimal)."""

    status: str
    value: float
    x: np.ndarray | None = None
    program: LinearProgram | None = None


@dataclass
class HighsResult:
    """One HiGHS solve, read as ``scipy.optimize.linprog`` reads it: ``status``
    0 optimal, 1 limit reached, 2 infeasible, 3 unbounded, 4 failed; ``fun``
    and ``x`` are set only when optimal, and ``nit`` counts simplex iterations."""

    status: int
    message: str
    fun: float | None = None
    x: np.ndarray | None = None
    nit: int = 0


#: The feasibility tolerance ``scipy.optimize.linprog`` checks an optimal
#: answer against: 10 sqrt(tol) at its default tol = 1e-9.
_RESULT_TOL = 10 * math.sqrt(1e-9)


def linprog(c, a_ub, b_ub, a_eq, b_eq) -> HighsResult:
    """Minimise c.x subject to a_ub x <= b_ub, a_eq x = b_eq and x >= 0 with
    HiGHS's dual simplex: the one place an LP is solved.

    This is the solve ``scipy.optimize.linprog(method="highs")`` runs, bit
    for bit: SciPy's own HiGHS binding, given the same bounds, rows and
    options (presolve on, dual simplex strategy, debug level none, no
    output), then SciPy's status codes and its check that an optimal answer
    has no NaN, x >= -tol, slack >= -tol on the <= rows and equality
    residuals within tol, which turns a violation into status 4.  It does
    not go through ``linprog`` itself, whose wrapper cost more than the
    solve on ``sweep-k``'s pair LPs (417 x 142 on average): over the 549
    that ``minimax`` solves on its gate instances, ``solve_lp`` took 5.9-6.1
    ms per LP through it, of which HiGHS's ``run()`` was 51%, and takes
    3.5 ms here, 81% of it in ``run()`` (min of 5, 2-vCPU VM).  The wrapper
    built an options manager for each option, restacked the rows into
    column order and read the basis back one column at a time.  Here the
    CSR rows of ``a_ub`` and ``a_eq`` are passed row-wise as they are, as
    arrays in one ``passModel`` call, with one fresh solver per call (one
    solver reused across calls measured no faster).  Either matrix may be
    None, for no rows.

    SciPy is imported on the first call, not with this module: it takes more
    time and memory than importing the rest of the package, NumPy included,
    and only the LPs need it.  ``solve_lp`` calls this module attribute, so
    a wrapper bound to ``lp.linprog`` sees every solve.
    """
    from scipy.optimize._highspy import _core as highspy

    inf = highspy.kHighsInf
    ncol = len(c)
    start, index, value, lower, upper = [np.zeros(1, dtype=np.int32)], [], [], [], []
    for a, rhs, ub in ((a_ub, b_ub, True), (a_eq, b_eq, False)):
        if a is not None:
            start.append(a.indptr[1:] + start[-1][-1])
            index.append(a.indices)
            value.append(a.data)
            lower.append(np.full(len(rhs), -inf) if ub else rhs)
            upper.append(rhs)
    row_lower = np.concatenate([np.zeros(0), *lower])
    row_upper = np.concatenate([np.zeros(0), *upper])
    start = np.concatenate(start)
    index = np.concatenate([np.zeros(0, dtype=np.int32), *index])
    value = np.concatenate([np.zeros(0), *value])

    solver = highspy._Highs()
    solver.setOptionValue("presolve", "on")
    solver.setOptionValue("highs_debug_level", int(highspy.HighsDebugLevel.kHighsDebugLevelNone))
    solver.setOptionValue("log_to_console", False)
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("simplex_strategy", int(highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual))

    model_status = highspy.HighsModelStatus
    # the model as arrays: row r starts at start[r], without the trailing nnz, and integrality
    # is one 0 (continuous) per column, since an empty array makes passModel fail
    passed = solver.passModel(
        ncol, len(row_upper), len(index), highspy.MatrixFormat.kRowwise, highspy.ObjSense.kMinimize, 0.0,
        c, np.zeros(ncol), np.full(ncol, inf), row_lower, row_upper, start[:-1], index, value,
        np.zeros(ncol, dtype=np.int32),
    )
    if passed == highspy.HighsStatus.kError:
        return HighsResult(2, solver.modelStatusToString(model_status.kModelError))
    ran = solver.run() != highspy.HighsStatus.kError
    status = solver.getModelStatus()
    code = {
        model_status.kOptimal: 0, model_status.kTimeLimit: 1, model_status.kIterationLimit: 1,
        model_status.kInfeasible: 2, model_status.kModelError: 2, model_status.kUnbounded: 3,
    }.get(status, 4)
    message = solver.modelStatusToString(status)
    if not ran:
        return HighsResult(code, message)
    info = solver.getInfo()
    if code != 0:
        return HighsResult(code, message, nit=info.simplex_iteration_count)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    slack = row_upper - np.array(solution.row_value)
    nub = 0 if a_ub is None else len(b_ub)
    if not (
        (x >= -_RESULT_TOL).all()
        and (slack[:nub] >= -_RESULT_TOL).all()
        and (np.abs(slack[nub:]) <= _RESULT_TOL).all()
        and not math.isnan(fun)
    ):
        code, message = 4, f"the optimal solution violates a bound or row by more than {_RESULT_TOL:.2e}"
    return HighsResult(code, message, fun, x, info.simplex_iteration_count)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve via HiGHS; unboundedness is detected and reported as +inf, and
    an optimal solution is returned in the full layout (``lift``)."""
    res = linprog(-lp.objective, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)
    if res.status == 0:
        x = res.x if lp.lift is None else np.append(res.x, 0.0)[lp.lift].sum(axis=0)
        return LpOutcome(OPTIMAL, -float(res.fun), x, lp)
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


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidate pairs p < q, as read-only ``np.triu_indices(m, 1)``."""
    pa, pb = np.triu_indices(m, 1)
    pa.setflags(write=False)
    pb.setflags(write=False)
    return pa, pb


def _columns(levels: np.ndarray, a: int, b: int, degree: np.ndarray, partner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rules 1 and 2 of the module docstring, per ballot: the column each
    distance d(u,c) reads, numbered in ballot order, and ``sink``, the
    distances that also add y_bc.  The candidates a ballot states above b,
    when b is alone at its level, read b's column; so does each candidate c
    other than a and b that it states above nothing, if {b, c} is c's only
    kept pair, which then adds y_bc.  ``degree`` counts each candidate's
    kept pairs, and ``partner`` lists the c of the kept pairs {b, c}."""
    nb, m = levels.shape
    at_b = levels[:, b : b + 1]
    above = (levels < at_b) & ((levels == at_b).sum(axis=1) == 1)[:, None]
    lone = np.zeros(m, dtype=bool)
    lone[partner] = degree[partner] == 1
    lone[a] = False
    sink = (levels == levels.max(axis=1, keepdims=True)) & lone
    own = ~(above | sink)
    index = np.cumsum(own.ravel(), dtype=np.int32).reshape(nb, m) - 1
    return np.where(own, index, index[:, b : b + 1]), sink


def build_metric_lp(e: Election, a: int, b: int, alpha=None, *, pairs=None) -> LinearProgram:
    """The reduced program of the pair (a, b): its value is the worst
    consistent cost ratio of a against b once ``solve_pair`` has certified it.

    ``pairs`` is a bool mask over the candidate pairs p < q in
    ``np.triu_indices`` order, naming the pairs that get voter rows and a
    y column; None gives the b-star, the m - 1 pairs that contain b, or
    every pair when ``alpha`` is set.  ``meta`` keeps what the certificate
    reads: ``n``, ``m``, ``ballots`` (the number of ballot blocks) and
    ``pairs``.
    """
    from scipy import sparse

    _check_candidates(e, a, b)
    if a == b:
        raise ConfigError("build_metric_lp needs distinct candidates")
    _need_voters(e)
    n, m = e.n, e.m

    # one block of distances per distinct ballot
    levels = e.levels
    nb = len(levels)
    weight = e.multiplicity.astype(float)

    pa, pb = _pairs(m)
    if pairs is None:
        pairs = np.full(len(pa), True) if alpha is not None else (pa == b) | (pb == b)
    pa, pb = pa[pairs], pb[pairs]  # the candidate pairs kept, one column each
    ncp = len(pa)
    with_b = (pa == b) | (pb == b)
    partner = (pa + pb - b)[with_b]  # c of each kept pair {b, c}
    if alpha is None:
        col, sink = _columns(levels, a, b, np.bincount(np.concatenate([pa, pb]), minlength=m), partner)
    else:
        col, sink = np.arange(nb * m, dtype=np.int32).reshape(nb, m), np.zeros((nb, m), dtype=bool)
    nd = int(col.max()) + 1
    nvars = nd + ncp
    y = np.arange(nd, nvars, dtype=np.int32)  # the pair columns, and y_bc's per candidate c
    y_b = np.zeros(m, dtype=np.int32)
    y_b[partner] = y[with_b]

    obj = np.zeros(nvars)
    obj[col[:, a]] = weight

    blocks = []  # groups of rows in row order, as (columns, coefficients) arrays with one row per LP row

    def emit(coefficients, *cols):
        """Append one row per index of the column arrays, with these coefficients on its columns."""
        block = np.stack(cols, axis=1)
        blocks.append((block, np.repeat(np.array([coefficients]), len(block), axis=0)))

    # a covering row whose two distances read one column is 0 <= 0 or -y_bq <= 0
    u, p, q = e._covering
    cp, cq = col[u, p], col[u, q]
    kept = cp != cq
    low = sink[u, q] & kept  # d(u,q) = d(u,b) + y_bq
    kept &= ~low
    emit((1.0, -1.0), cp[kept], cq[kept])
    emit((1.0, -1.0, -1.0), cp[low], cq[low], y_b[q[low]])
    if alpha is not None:
        top, second = _alpha_rows(e, alpha)
        ballots = np.arange(nb)
        emit((1.0, -float(alpha)), col[ballots, top], col[ballots, second])

    # voter/candidate-pair triangle rows; d(u,p) <= d(u,q) + y_pq is implied when p > q is stated,
    # and every row left without a positive coefficient is dropped
    ca, cb = col[:, pa], col[:, pb]
    apart = ca != cb
    near = ~(sink[:, pa] | sink[:, pb])
    triangle = (
        ((levels[:, pa] >= levels[:, pb]) & apart, (1.0, -1.0, -1.0)),
        ((levels[:, pb] >= levels[:, pa]) & apart, (-1.0, 1.0, -1.0)),
        (near & apart, (-1.0, -1.0, 1.0)),
    )
    for keep, coefficients in triangle:
        u, k = np.nonzero(keep)
        emit(coefficients, ca[u, k], cb[u, k], y[k])
    u, k = np.nonzero(near & ~apart)  # y_pq <= 2 d(u,b)
    emit((-2.0, 1.0), ca[u, k], y[k])

    sizes = [len(c) for c, _ in blocks]
    indptr = np.zeros(sum(sizes) + 1, dtype=np.int32)
    np.cumsum(np.repeat(np.array([c.shape[1] for c, _ in blocks], dtype=np.int32), sizes), out=indptr[1:])
    a_ub = sparse.csr_matrix(
        (np.concatenate([v.ravel() for _, v in blocks]), np.concatenate([c.ravel() for c, _ in blocks]), indptr),
        shape=(len(indptr) - 1, nvars),
    )
    b_ub = np.zeros(a_ub.shape[0])

    a_eq = sparse.csr_matrix((weight, col[:, b], np.array([0, nb], dtype=np.int32)), shape=(1, nvars))
    b_eq = np.ones(1)

    # the full layout, ballot blocks then y: d(u,c) is x[col] plus, for a sink, y_bc (index nvars is the padded 0)
    lift = None
    if alpha is None:
        plus = np.where(sink, y_b, nvars)
        lift = np.stack([np.concatenate([col.ravel(), y]), np.concatenate([plus.ravel(), np.full(ncp, nvars)])])
    return LinearProgram(obj, a_ub, b_ub, a_eq, b_eq, {"n": n, "m": m, "ballots": nb, "pairs": pairs}, lift)


def _uncertified(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """The left-out pairs whose certificate fails, as a mask like ``meta["pairs"]``.

    A pair {p, q} passes when max_u |d(u,p) - d(u,q)| <= min_u (d(u,p) +
    d(u,q)) + TAU_LP / n over the ballot blocks of ``x``.
    """
    meta = lp.meta
    m = meta["m"]
    d = x[: meta["ballots"] * m].reshape(-1, m)
    pa, pb = _pairs(m)
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
            probe = dataclasses.replace(lp, objective=np.zeros_like(lp.objective))
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
    _check_candidates(e, a, b)
    if a == b:
        return 1.0
    out = solve_pair(e, a, b, alpha=alpha)
    if floor is not None and out.status == OPTIMAL:
        sc = e.multiplicity @ np.maximum(out.x[: len(e.levels) * e.m].reshape(-1, e.m), 0.0)
        np.maximum(floor, sc / sc[sc >= TAU_LP].min(), out=floor)
    return out.value


#: ``ratio_bound`` computes the routed bound R up to this many candidates:
#: it costs O(m**2 2**m) time, and its two (m, 2**m) tables take 8 MB each
#: at m = 16.
_ROUTED_MAX_M = 16


def _routed_bound(e: Election) -> np.ndarray:
    """The routed bound R(a, b) = 1 + 2 max_C in(C, a) / hit(C, b) of the
    module docstring, as an (m, m) array, over the sets C containing a but
    not b (inf where hit = 0 < in).  in(., a) is row a of the subset counts
    of the keys D_u(a); hit(C, b) is n minus the subset count of the keys
    U_u(b) at the complement of C, which reverses the table's columns."""
    m = e.m
    inside = _subset_counts(e)
    hit = _subset_counts(e, above=True)[:, ::-1]
    np.subtract(e.n, hit, out=hit)
    routed = np.empty((m, m))
    for b in range(m):
        # the sets without b; in(C, a) = 0 unless a is in C
        count = inside.reshape(m, -1, 2, 1 << b)[:, :, 0]
        reach = hit[b].reshape(-1, 2, 1 << b)[:, 0]
        load = (count / np.maximum(reach, 1)).max(axis=(1, 2))
        load[((count > 0) & (reach == 0)).any(axis=(1, 2))] = np.inf
        routed[:, b] = 1 + 2 * load
    return routed


def ratio_bound(e: Election) -> np.ndarray:
    """Certified upper bounds B*(a, b) on every pair LP value, as an (m, m) array.

    The smaller of the two bounds of the module docstring (**Bound**): the
    direct count B(a, b) = 1 + 2(n - c)/c for the c voters stating a > b,
    n counting silent voters too, inf where c = 0; and the routed bound
    R(a, b) <= B(a, b) (``_routed_bound``), computed up to
    ``_ROUTED_MAX_M`` candidates only.  Above the limit this is B alone.
    An election with no voters has no pair LP, and raises
    :class:`DataFormatError`.  Ratios multiply along paths, so the min-product
    closure (a Floyd-Warshall over log B) is a bound as well.  The diagonal
    is 1.
    """
    counts = _pair_counts(e)
    stated = counts > 0
    bound = np.where(stated, 1 + 2 * (e.n - counts) / np.where(stated, counts, 1), np.inf)
    if e.m <= _ROUTED_MAX_M:
        np.minimum(bound, _routed_bound(e), out=bound)
    np.fill_diagonal(bound, 1.0)
    for k in range(e.m):
        np.minimum(bound, bound[:, k : k + 1] * bound[k : k + 1, :], out=bound)
    return bound


def _cluster_ratio(far: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """1 + 2 far/mid, the floors' SC(a)/SC(b); inf when mid = 0 < far, 1 when far = 0."""
    return np.where(mid > 0, 1 + 2 * far / np.where(mid > 0, mid, 1), np.where(far > 0, np.inf, 1.0))


def pair_floor(e: Election) -> np.ndarray:
    """Certified lower bounds F(a, b) on every pair LP value without alpha, as an (m, m) array.

    F(a, b) = max(1 + 2(n - s_a)/s_a, G(a, b)), the two metrics of the
    module docstring (**Floor**): the two-cluster line metric, and the
    b-star simplex G(a, b) = 1 + 2(n - c)/(n - t_b).  s_a counts the voters
    stating a above anything, c = ``pair_counts[a, b]`` those stating
    a > b, and t_b those stating nothing above b, silent voters included.
    The diagonal is 1.
    """
    levels, weight = e.levels, e.multiplicity
    # a ballot states a above something iff a's level is below its highest, and nothing above level 0
    s = weight @ (levels < levels.max(axis=1, keepdims=True))
    t = weight @ (levels == 0)
    floor = np.maximum(_cluster_ratio(e.n - s, s)[:, None], _cluster_ratio(e.n - e.pair_counts, (e.n - t)[None, :]))
    np.fill_diagonal(floor, 1.0)
    return floor


def _floors(e: Election, bound: np.ndarray, alpha) -> tuple[np.ndarray, np.ndarray]:
    """The pair values known without an LP and the candidates' value floors,
    both from one ``pair_floor`` table (module docstring): the (m, m) table
    where it is at least ``bound`` narrowed by TAU_LP, NaN elsewhere, and its
    row maxima, certified floors on the candidates' values, 1 with one
    candidate.  With ``alpha`` set no pair is settled and every floor is 1."""
    if alpha is not None:
        return np.full(bound.shape, np.nan), np.ones(e.m)
    floor = pair_floor(e)
    return np.where(floor >= bound * (1 - TAU_LP), floor, np.nan), floor.max(axis=1)


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
    _check_candidates(e, a)
    bound = ratio_bound(e)
    return _scan(e, a, bound, *_floors(e, bound, alpha), alpha)


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
    so far.  The floors start at the row maxima of ``pair_floor``, the
    two-cluster ratio and the b-star simplex G(a, b), and each solved LP's
    witness raises them; every pair where ``pair_floor`` meets
    ``ratio_bound`` takes the floor as its value with no LP.  The result
    equals the winner and its entries in ``distortion_table``.  With
    ``alpha`` set this is the alpha-decisive variant, searched with
    witness floors only; ``alpha = 1`` coincides with the plain rule.
    """
    if e.m < 1:
        raise ConfigError("minimax needs at least one candidate")
    bound = ratio_bound(e)
    settled, floor = _floors(e, bound, alpha)
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
    settled, _ = _floors(e, ratio_bound(e), alpha)
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

