"""Pair LPs, Minimax, the alpha-decisive variant, and witness extraction."""

import ast
import dataclasses
import functools
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from conftest import ballot_elections, election_of, ktop_elections, prefers, relation, top_of, vc
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_lp import build_full, extract_pseudometric, from_rows, solve_full

from metricvote import instances as inst
from metricvote import lp
from metricvote.core import Election, MetricWitness, check_consistent, mask_voters, social_cost, truncate_to_ktop
from metricvote.errors import ConfigError, DataFormatError, SolverFailureError
from metricvote.lp import (
    INFEASIBLE,
    OPTIMAL,
    TAU_LP,
    UNBOUNDED,
    LpOutcome,
    _row_value,
    _winner,
    build_metric_lp,
    distortion_of,
    distortion_pair,
    distortion_table,
    minimax,
    pair_floor,
    ratio_bound,
    solve_lp,
    solve_pair,
)
from metricvote.mechanisms import phi_scores


def close(x, y, tol=1e-6):
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _bits(v) -> bytes | None:
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def _record_solves(monkeypatch) -> list:
    """The ``(args, result)`` of each ``lp.linprog`` call from here on, as a tracer bound there sees them."""
    real, calls = lp.linprog, []

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(lp, "linprog", record)
    return calls


def _assert_scipy_solves_alike(calls) -> None:
    """Each recorded solve equals ``scipy.optimize.linprog(method="highs")``'s bit
    for bit: status, objective, solution vector and simplex iterations."""
    from scipy.optimize import linprog as scipy_linprog

    assert calls
    for (c, a_ub, b_ub, a_eq, b_eq), got in calls:
        want = scipy_linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert (got.status, got.nit) == (want.status, want.nit)
        assert _bits(got.fun) == _bits(want.fun) and _bits(got.x) == _bits(want.x)


def _solve_as_scipy(monkeypatch, program) -> LpOutcome:
    calls = _record_solves(monkeypatch)
    out = solve_lp(program)
    assert len(calls) == 1
    _assert_scipy_solves_alike(calls)
    return out


def _stub_highs(monkeypatch, **methods) -> None:
    """Make HiGHS's solver answer each call in ``methods`` with
    ``methods[name](real solver, *args)``, and every other call as it would."""
    from scipy.optimize._highspy import _core

    real = _core._Highs

    class Stub:
        def __init__(self):
            self._real = real()

        def __getattr__(self, name):
            if name in methods:
                return functools.partial(methods[name], self._real)
            return getattr(self._real, name)

    monkeypatch.setattr(_core, "_Highs", Stub)


class TestSolver:
    """Each shape of program is solved as ``scipy.optimize.linprog`` solves it."""

    def test_bounded(self, monkeypatch):
        lp = from_rows(["x"], {"x": 1.0}, ub_rows=[({"x": 1.0}, 1.0)])
        out = _solve_as_scipy(monkeypatch, lp)
        assert out.status == OPTIMAL and close(out.value, 1.0)

    def test_unbounded(self, monkeypatch):
        # no rows at all
        out = _solve_as_scipy(monkeypatch, from_rows(["x"], {"x": 1.0}))
        assert out.status == UNBOUNDED and out.value == math.inf

    def test_infeasible(self, monkeypatch):
        lp = from_rows(["x"], {}, ub_rows=[({"x": 1.0}, -1.0)])
        assert _solve_as_scipy(monkeypatch, lp).status == INFEASIBLE

    @pytest.mark.parametrize(
        "program, status",
        [
            (from_rows(["x", "y"], {}), OPTIMAL),
            (from_rows(["x", "y"], {"x": 1.0, "y": 2.0}, eq_rows=[({"x": 1.0, "y": 1.0}, 1.0)]), OPTIMAL),
            (from_rows(["x", "y"], {"x": 1.0}, eq_rows=[({"x": 1.0, "y": -1.0}, 1.0)]), UNBOUNDED),
            (from_rows(["x"], {"x": 1.0}, ub_rows=[({"x": 1.0}, 1.0)], eq_rows=[({"x": 1.0}, 2.0)]), INFEASIBLE),
        ],
        ids=["no-rows-zero-objective", "eq-only", "eq-only-unbounded", "infeasible-eq"],
    )
    def test_more_shapes(self, monkeypatch, program, status):
        assert _solve_as_scipy(monkeypatch, program).status == status

    def test_solves_silently(self, capfd):
        # HiGHS logs to the console unless told not to
        solve_lp(build_metric_lp(inst.impartial_culture(8, 4, seed=0).election, 0, 1))
        assert capfd.readouterr() == ("", "")

    def test_infeasible_metric_lp_is_solver_failure(self, monkeypatch):
        # the re-check finds no feasible point either, so this is no unbounded pair LP
        infeasible = from_rows(["x"], {"x": 1.0}, ub_rows=[({"x": 1.0}, -1.0)])
        monkeypatch.setattr(lp, "build_metric_lp", lambda e, a, b, alpha=None: infeasible)
        with pytest.raises(SolverFailureError, match=r"pair \(0, 1\)"):
            distortion_pair(Election.from_rankings([(0, 1)], 2), 0, 1)

    def test_reported_infeasibility_with_a_feasible_point_is_unbounded(self, monkeypatch):
        # consistent metrics always exist, so an infeasible report on a feasible LP means unbounded
        e = Election.from_rankings([(0, 1), (1, 0)], 2)
        real, statuses = lp.solve_lp, []

        def report_infeasible_first(program):
            out = real(program)
            statuses.append(out.status)
            return dataclasses.replace(out, status=INFEASIBLE) if len(statuses) == 1 else out

        monkeypatch.setattr(lp, "solve_lp", report_infeasible_first)
        assert distortion_pair(e, 0, 1) == math.inf and statuses == [OPTIMAL, OPTIMAL]


class TestResultCheck:
    """``lp.linprog`` reads HiGHS's answer as ``scipy.optimize.linprog`` does:
    its status codes, and its tolerance check on an optimal solution."""

    PROGRAM = from_rows(["x", "y"], {"x": 1.0}, ub_rows=[({"x": 1.0, "y": 1.0}, 1.0)], eq_rows=[({"y": 1.0}, 0.5)])
    TOL = 10 * math.sqrt(1e-9)

    @staticmethod
    def _moved(rows=(0.0, 0.0), cols=(0.0, 0.0)):
        """A ``getSolution`` that shifts the real solution's row and column values."""

        def get_solution(real):
            sol = real.getSolution()
            return SimpleNamespace(
                col_value=list(np.add(sol.col_value, cols)), row_value=list(np.add(sol.row_value, rows))
            )

        return get_solution

    def test_real_solution(self):
        out = solve_lp(self.PROGRAM)
        assert out.status == OPTIMAL and out.value == 0.5 and out.x.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "rows, cols",
        [((2 * TOL, 0.0), (0.0, 0.0)), ((0.0, 2 * TOL), (0.0, 0.0)), ((0.0, -2 * TOL), (0.0, 0.0)),
         ((0.0, 0.0), (-0.5 - 2 * TOL, 0.0)), ((0.0, 0.0), (math.nan, 0.0))],
        ids=["ub-row-over", "eq-row-over", "eq-row-under", "x-negative", "x-nan"],
    )
    def test_violated_optimum_is_solver_failure(self, monkeypatch, rows, cols):
        _stub_highs(monkeypatch, getSolution=self._moved(rows, cols))
        with pytest.raises(SolverFailureError, match="status 4"):
            solve_lp(self.PROGRAM)

    def test_violation_within_tolerance_is_optimal(self, monkeypatch):
        _stub_highs(monkeypatch, getSolution=self._moved((self.TOL / 2, -self.TOL / 2)))
        assert solve_lp(self.PROGRAM).status == OPTIMAL

    @pytest.mark.parametrize("status", ["kUnboundedOrInfeasible", "kSolveError", "kNotset"])
    def test_unknown_model_status_is_solver_failure(self, monkeypatch, status):
        from scipy.optimize._highspy import _core

        _stub_highs(monkeypatch, getModelStatus=lambda real: getattr(_core.HighsModelStatus, status))
        with pytest.raises(SolverFailureError, match="status 4"):
            solve_lp(self.PROGRAM)

    def test_model_error_reads_as_infeasible(self, monkeypatch):
        from scipy.optimize._highspy import _core

        _stub_highs(monkeypatch, passModel=lambda real, *model: _core.HighsStatus.kError)
        assert solve_lp(self.PROGRAM).status == INFEASIBLE

    def test_src_never_calls_scipy_linprog(self):
        # lp.linprog is the one HiGHS call site; it does not go through scipy.optimize.linprog
        for path in sorted(Path(lp.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                    assert "linprog" not in {alias.name for alias in node.names}, path.name
                if isinstance(node, ast.Attribute) and node.attr in {"linprog", "_linprog", "_linprog_highs"}:
                    assert ast.unparse(node.value) not in {"scipy.optimize", "optimize"}, path.name


class TestSameSolveAsScipy:
    """Every program ``solve_lp`` sees is solved exactly as ``scipy.optimize.linprog(method="highs")`` solves it."""

    def test_small_lp_variants(self, monkeypatch, small_lp_variants):
        # every b-star program and re-solve, with and without alpha, and the reference
        # program of the pair (0, 1), the largest programs here (about 600 rows)
        calls = _record_solves(monkeypatch)
        for elec, alpha, ref in small_lp_variants:
            for (a, b), full in ref.items():
                solve_pair(elec, a, b, alpha=alpha)
                if (a, b) == (0, 1):
                    solve_lp(full.program)
        assert len(calls) >= 2000
        _assert_scipy_solves_alike(calls)

    @given(ballot_elections())
    @settings(max_examples=30, deadline=None)
    def test_ballot_elections(self, e):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _record_solves(monkeypatch)
            for a in range(e.m):
                for b in range(e.m):
                    if a != b:
                        solve_pair(e, a, b)
                        solve_lp(build_full(e, a, b))
            if calls:
                _assert_scipy_solves_alike(calls)


class TestMetricLpConstruction:
    def test_single_voter_shape(self):
        e = Election.from_rankings([(0, 1)], 2)
        lp = build_full(e, 0, 1)
        # one voter, two candidates: three distinct pair variables
        assert len(lp.objective) == 3
        out = solve_lp(lp)
        assert out.status == OPTIMAL and close(out.value, 1.0)

    def test_alpha_zero_pins_top(self):
        e = Election.from_rankings([(0, 1, 2), (2, 1, 0)], 3)
        out = solve_lp(build_metric_lp(e, 0, 2, alpha=0.0))
        assert out.status == OPTIMAL
        w = extract_pseudometric(e, out)
        for i in range(2):
            assert vc(w, i, top_of(e, i)) <= 1e-7

    def test_alpha_needs_top_and_second(self):
        # voter 3 has a top but no second, and voter 4 neither; voter 0's ballot is cast again
        e = election_of(3, ["0 > 1 > 2", "1 > 0 > 2", "0 > 1 > 2", "2 > 0 = 1", "0 = 1 > 2"])
        with pytest.raises(ConfigError, match="^voter 3 has no identified top and second choice$"):
            build_metric_lp(e, 0, 1, alpha=0.5)

    def test_empty_prefs_lp_still_solves(self):
        e = election_of(2, ["", ""])
        assert distortion_pair(e, 0, 1) == math.inf


class TestDistortionPair:
    def test_one_voter_pair_values(self):
        e = Election.from_rankings([(0, 1)], 2)
        assert close(distortion_pair(e, 0, 1), 1.0)
        assert distortion_pair(e, 1, 0) == math.inf

    def test_split_vote_is_three(self):
        e = Election.from_rankings([(0, 1), (1, 0)], 2)
        assert close(distortion_pair(e, 0, 1), 3.0)

    def test_self_pair_is_one(self):
        e = Election.from_rankings([(0, 1)], 2)
        assert distortion_pair(e, 0, 0) == 1.0


class TestInputChecks:
    """The LP entry points reject an election with no voters and candidate ids
    outside [0, m) with a library error, before any program is built."""

    def test_no_voters(self):
        e = Election.from_rankings([], 3)
        calls = (
            minimax,
            distortion_table,
            lambda e: distortion_of(e, 0),
            lambda e: distortion_pair(e, 0, 1),
            lambda e: build_metric_lp(e, 0, 1),
        )
        for call in calls:
            with pytest.raises(DataFormatError, match="^the election needs at least one voter$"):
                call(e)

    @pytest.mark.parametrize("a, b", [(-1, 3), (0, 4), (4, 0), (0, -4), (9, 9), (-1, -1)])
    def test_pair_ids_out_of_range(self, a, b):
        # distortion_pair(e, -1, 3) read candidate 3 twice and returned 1.0, as did
        # distortion_pair(e, 9, 9) and (e, -1, -1), through the self-pair shortcut
        e = inst.impartial_culture(20, 4, seed=3).election
        for call in (distortion_pair, solve_pair, build_metric_lp):
            with pytest.raises(ConfigError, match=r"^candidate -?\d+ out of range \[0, 4\)$"):
                call(e, a, b)

    @pytest.mark.parametrize("a", [-1, -4, 4])
    def test_candidate_id_out_of_range(self, a):
        # distortion_of(e, -1) returned candidate 3's value
        e = inst.impartial_culture(20, 4, seed=3).election
        with pytest.raises(ConfigError, match=f"^candidate {a} out of range \\[0, 4\\)$"):
            distortion_of(e, a)


class TestWitnessExtraction:
    def test_tightness_on_split_instance(self):
        e = Election.from_rankings([(0, 1), (1, 0)], 2)
        out = solve_lp(build_metric_lp(e, 0, 1))
        w = extract_pseudometric(e, out)
        w.validate_metric()
        assert check_consistent(w, e)
        assert close(social_cost(w, 0) / social_cost(w, 1), out.value)

    def test_reads_ballot_blocks_then_candidate_pairs_from_x(self):
        # ballots (0, 1, 2) for voters 0 and 2 and (2, 1, 0) for voter 1: x holds the
        # two ballot blocks, then y02 and y12, the b-star of b = 2; the -1e-12 is
        # clipped to 0, and the left-out y01 is the shortest path 3
        e = Election.from_rankings([(0, 1, 2), (2, 1, 0), (0, 1, 2)], 3)
        out = solve_lp(build_metric_lp(e, 0, 2))
        assert out.program.meta["pairs"].tolist() == [False, True, True]
        x = np.array([1.0, 2.0, 3.0, 2.0, 1.0, -1e-12, 2.0, 1.0])
        d = extract_pseudometric(e, dataclasses.replace(out, x=x)).dist
        assert d[:3, 3:].tolist() == [[1, 2, 3], [2, 1, 0], [1, 2, 3]]
        assert d[3:, 3:].tolist() == [[0, 3, 2], [3, 0, 1], [2, 1, 0]]
        assert d[:3, :3].tolist() == [[0, 3, 0], [3, 0, 3], [0, 3, 0]]

    def test_merged_points_share_rows(self):
        e = Election.from_rankings([(0, 1, 2)], 3)
        out = solve_lp(build_metric_lp(e, 0, 1))
        w = extract_pseudometric(e, out)
        a = w.as_array()
        size = a.shape[0]
        for i in range(size):
            for j in range(size):
                if a[i, j] <= 1e-9:
                    assert (abs(a[i] - a[j]) <= 1e-7).all()

    def test_rejects_non_optimal(self):
        e = Election.from_rankings([(0, 1)], 2)
        out = solve_lp(build_metric_lp(e, 1, 0))
        assert out.status == UNBOUNDED
        with pytest.raises(ConfigError):
            extract_pseudometric(e, out)


class TestMinimax:
    def test_single_candidate(self):
        e = Election.from_rankings([(0,)], 1)
        rep = distortion_table(e)
        assert rep.winner == 0 and rep.per_candidate == (1.0,)
        assert minimax(e) == lp.MinimaxResult(0, 1.0, 0)

    def test_veto_instance_m10(self):
        gi = inst.veto_instance(10)
        rep = distortion_table(gi.election)
        assert rep.winner == 0
        assert rep.per_candidate[0] <= 1.5 + TAU_LP
        assert all(rep.per_candidate[b] >= 2.6 - 1e-6 for b in range(1, 10))

    def test_missing_voters_value(self):
        gi = inst.missing_voters_tight(Fraction(2, 5))
        rep = distortion_table(gi.election)
        assert close(rep.per_candidate[0], float(gi.expected["distortion_a"]), 1e-5)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_decisive_instance_alpha(self, alpha):
        gi = inst.decisive_instance(Fraction(alpha).limit_denominator(10))
        rep = distortion_table(gi.election, alpha=alpha)
        assert rep.winner in (0, 2)
        assert close(rep.per_candidate[rep.winner], 1 + 2 * alpha)
        assert close(rep.per_candidate[1], 2 + alpha)

    def test_alpha_one_matches_plain(self):
        for seed in range(4):
            e = inst.impartial_culture(7, 4, seed=seed).election
            assert minimax(e).winner == minimax(e, alpha=1.0).winner

    def test_report_serialises_infinities(self):
        e = Election.from_rankings([(0, 1)], 2)
        doc = distortion_table(e).to_json_dict()
        assert doc["values"][1][0] == "inf"
        assert doc["winner"] == 0

    def test_full_ranking_winner_within_three(self):
        for seed in range(3):
            e = inst.impartial_culture(9, 4, seed=seed).election
            assert minimax(e).value <= 3 + TAU_LP


#: Relative solver-noise factors for stand-in pair values.
NOISE = [1 + t * TAU_LP for t in (0, 0.5, 1, 1.5, 2, -0.5, -1, -1.5, -2)]


def _assert_minimax_matches_table(e, alpha=None):
    """Winner, value and worst opponent of ``minimax`` equal the full table's, exactly."""
    rep = distortion_table(e, alpha=alpha)
    got = minimax(e, alpha=alpha)
    assert got.winner == rep.winner
    assert got.value == rep.per_candidate[rep.winner]
    assert got.worst_opponent == rep.worst_opponent[rep.winner]
    return rep


def _assert_floor_holds(e, rep):
    """The row maxima of ``pair_floor`` are at most every candidate's value, up to solver noise, and never NaN."""
    floor = pair_floor(e).max(axis=1)
    assert floor.shape == (e.m,) and not np.isnan(floor).any()
    assert (floor <= np.array(rep.per_candidate) * (1 + TAU_LP)).all()
    return floor


class TestBranchAndBound:
    """``minimax`` skips pair LPs by ``ratio_bound`` and ``pair_floor`` yet returns the table's answer."""

    @given(ballot_elections())
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_and_minimax_matches_table(self, e):
        rep = _assert_minimax_matches_table(e)
        _assert_floor_holds(e, rep)
        bound = ratio_bound(e)
        for a in range(e.m):
            for b in range(e.m):
                assert rep.values[a][b] <= bound[a, b] * (1 + TAU_LP)
        for a in range(e.m):
            assert distortion_of(e, a) == (rep.per_candidate[a], rep.worst_opponent[a])

    @given(ballot_elections(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_table_on_any_values_within_the_bound(self, e, data):
        # the alpha path, which has no floor: stand-in pair values in clusters a
        # few TAU_LP wide around the bounds, each at most its bound widened by
        # TAU_LP, as solver noise may leave it
        bound = ratio_bound(e)
        levels = sorted({float(x) for x in bound.flat if math.isfinite(x)}) + [math.inf]
        factor = st.sampled_from(NOISE)
        values = {}
        for a in range(e.m):
            for b in range(e.m):
                if a != b:
                    level = data.draw(st.sampled_from(levels))
                    values[a, b] = min(level * data.draw(factor), bound[a, b] * (1 + TAU_LP))
        with patch.object(lp, "distortion_pair", lambda e, a, b, alpha=None, floor=None: values[a, b]):
            _assert_minimax_matches_table(e, alpha=0.5)

    @given(ballot_elections(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_table_on_any_values_within_the_bracket(self, e, data):
        # without alpha: stand-ins clustered around the bounds and floors, each
        # clamped to [floor (1 - TAU_LP), bound (1 + TAU_LP)] (the bound wins where
        # the two cross), and one per row at least the floor, as the certified
        # floor and solver noise may leave them; settled pairs keep their closed form
        bound, floor = ratio_bound(e), pair_floor(e).max(axis=1)
        settled, _ = lp._floors(e, bound, None)
        levels = sorted({float(x) for x in [*bound.flat, *floor] if math.isfinite(x)}) + [math.inf]
        factor = st.sampled_from(NOISE)
        values = {}
        for a in range(e.m):
            for b in range(e.m):
                if a != b:
                    level = data.draw(st.sampled_from(levels)) * data.draw(factor)
                    values[a, b] = min(max(level, floor[a] * (1 - TAU_LP)), bound[a, b] * (1 + TAU_LP))
            if e.m > 1:
                reach = [b for b in range(e.m) if b != a and floor[a] <= bound[a, b] * (1 + TAU_LP)]
                assert reach  # the floor is at most the row's largest bound
                # the floor is the largest closed form; when that pair is not settled, it is in reach
                if not (settled[a] == floor[a]).any():
                    b = data.draw(st.sampled_from([b for b in reach if math.isnan(settled[a, b])]))
                    values[a, b] = max(values[a, b], floor[a])
        with patch.object(lp, "distortion_pair", lambda e, a, b, alpha=None, floor=None: values[a, b]):
            _assert_minimax_matches_table(e)

    def test_small_lp_corpus(self, small_lp_corpus):
        for e in small_lp_corpus:
            _assert_floor_holds(e, _assert_minimax_matches_table(e))

    def test_veto_instance_exact_ties(self):
        rep = _assert_minimax_matches_table(inst.veto_instance(10).election)
        assert rep.winner == 0

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_decisive_instance_alpha(self, alpha):
        gi = inst.decisive_instance(Fraction(alpha).limit_denominator(10))
        _assert_minimax_matches_table(gi.election, alpha=alpha)

    def test_near_tie(self):
        # each candidate tops one voter: every pair value ties at its bound, 1 + 2 * (3 - 1) / 1 = 5
        e = truncate_to_ktop(Election.from_rankings([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 3), 1)
        rep = _assert_minimax_matches_table(e)
        assert rep.winner == 0 and rep.worst_opponent[0] == 1
        assert all(close(v, rep.per_candidate[0], TAU_LP) for v in rep.per_candidate)

    def test_tie_rules_read_values_not_order(self):
        eps = TAU_LP * 0.6
        # the least value is 1.0; only candidate 1 is within TAU_LP of it
        assert _winner({2: 1.0, 0: 1.0 + 2 * eps, 1: 1.0 + eps}) == 1
        # 5.0 is the first entry within TAU_LP (relative) of the largest
        assert _row_value(3, {2: 5.0 + 5 * eps, 0: 5.0 - 10 * eps, 1: 5.0}) == (5.0, 1)
        assert _row_value(3, {0: 1.0, 1: 1.0 - eps}) == (1.0, 3)
        assert _row_value(0, {2: math.inf, 1: math.inf}) == (math.inf, 1)

    def test_bound_values(self):
        e = election_of(3, ["0 = 2 > 1", "0 = 2 > 1", ""])
        bound = ratio_bound(e)
        assert close(bound[0, 1], 1 + 2 * (3 - 2) / 2, 1e-12)
        assert bound[1, 0] == math.inf and bound[0, 2] == math.inf
        assert (bound.diagonal() == 1.0).all()
        # attained: one voter each way
        split = Election.from_rankings([(0, 1), (1, 0)], 2)
        assert close(ratio_bound(split)[0, 1], 3.0, 1e-12) and close(distortion_pair(split, 0, 1), 3.0)

    def test_skips_pair_lps(self, monkeypatch):
        calls = []

        def counted(e, a, b, alpha=None, floor=None):
            calls.append((a, b))
            return distortion_pair(e, a, b, alpha=alpha, floor=floor)

        monkeypatch.setattr(lp, "distortion_pair", counted)
        e = inst.impartial_culture(40, 7, seed=0).election
        minimax(e)
        assert len(set(calls)) == len(calls) < 7 * 6


class TestMatchingCertificate:
    @given(ktop_elections())
    @settings(max_examples=40, deadline=None)
    def test_value_within_matching_bound(self, e):
        """value(a) <= (4 - phi_a) / phi_a for every a with phi_a > 0.

        phi_a is the matching fraction of a's domination graph under
        plurality capacities.  Fix an opponent b and a consistent metric d.
        The capacities let each matched voter i, matched to candidate k, be
        paired with a distinct voter j whose unique top is k.  Voter i
        states a over k (or k = a), so d(i, a) <= d(i, k) <= d(i, b) +
        d(b, j) + d(j, k) <= d(i, b) + 2 d(j, b), since k is j's top.  An
        unmatched voter has d(i, a) <= d(i, b) + d(a, b).  The j are
        distinct, so summing gives SC(a) <= 3 SC(b) + (1 - phi_a) n d(a, b),
        and the triangle inequality summed over all voters gives
        n d(a, b) <= SC(a) + SC(b).  Hence phi_a SC(a) <= (4 - phi_a) SC(b).
        Only stated comparisons and unique tops are used, so k-top ballots
        are covered; at phi_a = 1 this is the bound of 3.  The bound is
        tight on these elections, so the LP values get a relative TAU_LP.
        """
        values = distortion_table(e).per_candidate
        for a, phi in enumerate(phi_scores(e)):
            if phi > 0:
                assert values[a] <= (4 - phi) / phi * (1 + TAU_LP)


class TestValueFloor:
    """The row maxima of ``pair_floor`` are certified lower bounds on the
    candidates' values; their soundness on ``small_lp_corpus`` and ``ballot_elections`` is checked beside
    the full table in ``TestBranchAndBound``."""

    def test_equals_values_on_top_one_ballots(self):
        for seed in range(12):
            e = truncate_to_ktop(inst.impartial_culture(3 + seed, 2 + seed % 4, seed=seed).election, 1)
            rep = distortion_table(e)
            floor = _assert_floor_holds(e, rep)
            for a in range(e.m):
                assert close(floor[a], rep.per_candidate[a], TAU_LP)

    def test_closed_form(self):
        # one voter each way: s_a = 1 and t_b = 1, so every floor is 1 + 2 * 1/1
        split = Election.from_rankings([(0, 1), (1, 0)], 2)
        assert pair_floor(split).max(axis=1).tolist() == [3.0, 3.0]
        # voters 0, 1 state 0 = 2 > 1 and voter 2 is silent: s = (2, 0, 2), t = (3, 1, 3)
        e = election_of(3, ["0 = 2 > 1", "0 = 2 > 1", ""])
        assert pair_floor(e).max(axis=1).tolist() == [math.inf, math.inf, math.inf]
        e = election_of(3, ["0 > 1 = 2", "0 = 2 > 1"])
        # s = (2, 0, 1); t = (2, 0, 1): g = (inf, 1, 1 + 2 * 1/1)
        assert pair_floor(e).max(axis=1).tolist() == [3.0, math.inf, math.inf]

    def test_silent_and_degenerate_elections(self):
        silent = election_of(3, [""] * 3)
        assert pair_floor(silent).max(axis=1).tolist() == [math.inf] * 3
        assert distortion_table(silent).per_candidate == (math.inf,) * 3
        assert pair_floor(election_of(3, [])).max(axis=1).tolist() == [1.0] * 3
        assert pair_floor(Election.from_rankings([(0,)], 1)).max(axis=1).tolist() == [1.0]

    def test_below_largest_bound_on_euclidean_corpus(self, euclidean_corpus):
        for gi in euclidean_corpus:
            e = gi.election
            assert (pair_floor(e).max(axis=1) <= ratio_bound(e).max(axis=1) * (1 + TAU_LP)).all()

    def test_minimax_builds_one_floor_table(self, monkeypatch):
        # the settled pairs and the candidates' floors come from one pair_floor table
        real, calls = lp.pair_floor, []

        def counted(e):
            calls.append(e)
            return real(e)

        monkeypatch.setattr(lp, "pair_floor", counted)
        e = truncate_to_ktop(inst.impartial_culture(12, 5, seed=3).election, 2)
        bound = ratio_bound(e)
        settled, floor = lp._floors(e, bound, None)
        assert np.array_equal(floor, lp.pair_floor(e).max(axis=1)) and len(calls) == 2
        minimax(e)
        assert len(calls) == 3

    def test_floor_drop_keeps_the_noise_margin(self, monkeypatch):
        # candidate 1 is visited first with value L; candidate 0's floor F is
        # 1.5 TAU_LP above L, but its value, read off a near-tie, is within
        # TAU_LP of L, so it must be kept: it is the table's winner
        big, low = 3.0, 3.0 * (1 - 1.5 * TAU_LP)
        values = {
            (0, 1): big * (1 - 0.9 * TAU_LP), (0, 2): big,
            (1, 0): low, (1, 2): low,
            (2, 0): 10.0, (2, 1): 10.0,
        }
        bound = np.array([[1.0, 10, 10], [5, 1, 5], [10, 10, 1]])
        monkeypatch.setattr(lp, "ratio_bound", lambda e: bound)
        # no pair is settled, and the candidates' floors are F, 1 and 10
        monkeypatch.setattr(lp, "_floors", lambda e, bound, alpha: (np.full((3, 3), np.nan), np.array([big, 1.0, 10.0])))
        monkeypatch.setattr(lp, "distortion_pair", lambda e, a, b, alpha=None, floor=None: values[a, b])
        rep = _assert_minimax_matches_table(Election.from_rankings([(0, 1, 2)], 3))
        assert rep.winner == 0

    def test_floor_drops_candidates_without_an_lp(self, monkeypatch):
        def count_lps(e):
            calls = []

            def counted(e, a, b, alpha=None, floor=None):
                calls.append((a, b))
                return distortion_pair(e, a, b, alpha=alpha, floor=floor)

            with patch.object(lp, "distortion_pair", counted):
                return minimax(e), len(calls)

        e0 = inst.impartial_culture(20, 5, seed=0).election
        with_floor = [count_lps(truncate_to_ktop(e0, k)) for k in range(1, 5)]
        real = lp._floors
        monkeypatch.setattr(lp, "_floors", lambda e, bound, alpha: (real(e, bound, alpha)[0], np.ones(e.m)))
        without = [count_lps(truncate_to_ktop(e0, k)) for k in range(1, 5)]
        assert [r for r, _ in with_floor] == [r for r, _ in without]
        assert sum(c for _, c in with_floor) < sum(c for _, c in without)


def _b_star_witness(e, b) -> MetricWitness:
    """G's witness against b, in exact integers: the candidates pairwise 2 apart;
    a voter stating nothing above b on b, 0 from it and 2 from the rest; every
    other voter 1 from b and from each candidate it states above b, and 3 from
    the rest; two voters at their shortest path through a candidate."""
    stated = relation(e)[e.ballot_of]
    on_b = ~stated[:, :, b].any(axis=1)
    is_b = np.arange(e.m) == b
    d = np.where(on_b[:, None], np.where(is_b, 0, 2), np.where(stated[:, :, b] | is_b, 1, 3))
    vv = (d[:, None, :] + d[None, :, :]).min(axis=2)
    np.fill_diagonal(vv, 0)
    table = np.block([[vv, d], [d.T, 2 - 2 * np.eye(e.m, dtype=int)]])
    return MetricWitness(e.n, e.m, table.tolist())


class TestBStarFloor:
    """G(a, b) = 1 + 2(n - c)/(n - t_b), the b-star simplex of ``pair_floor``: its
    witness is a consistent metric with SC(a)/SC(b) = G, so G is at most every
    pair value, and where it meets ``ratio_bound`` the pair needs no LP."""

    @staticmethod
    def _assert_witness(e) -> None:
        floor = pair_floor(e)
        for b in range(e.m):
            w = _b_star_witness(e, b)
            assert w.exact
            w.validate_metric()
            assert check_consistent(w, e)
            t = sum(not any(prefers(e, i, c, b) for c in range(e.m)) for i in range(e.n))
            for a in range(e.m):
                if a == b:
                    continue
                if t == e.n:  # every voter on b
                    assert social_cost(w, b) == 0 < social_cost(w, a) and floor[a, b] == math.inf
                    continue
                c = sum(prefers(e, i, a, b) for i in range(e.n))
                ratio = Fraction(social_cost(w, a), social_cost(w, b))
                assert ratio == 1 + Fraction(2 * (e.n - c), e.n - t)
                assert floor[a, b] >= float(ratio) * (1 - 1e-15)

    @pytest.mark.parametrize(
        "e",
        [
            truncate_to_ktop(inst.impartial_culture(9, 5, seed=1).election, 2),
            mask_voters(truncate_to_ktop(inst.impartial_culture(8, 4, seed=2).election, 3), [0, 3, 5]),
            election_of(4, ["0 = 2 > 1 > 3", "1 > 0 = 3", "3 > 2", "", "2 = 1 = 0 > 3", "1 = 3 > 0 = 2"]),
            election_of(3, ["", "", "0 > 1 > 2"]),
        ],
        ids=["ktop", "masked", "tied", "silent"],
    )
    def test_witness_attains_g(self, e):
        self._assert_witness(e)

    @given(ballot_elections())
    @settings(max_examples=60, deadline=None)
    def test_witness_on_ballot_elections(self, e):
        self._assert_witness(e)

    def test_at_most_the_reference_on_small_lp_corpus(self, small_lp_variants):
        tight = 0
        for e, alpha, ref in small_lp_variants:
            if alpha is None:
                floor = pair_floor(e)
                for (a, b), out in ref.items():
                    assert floor[a, b] <= out.value * (1 + TAU_LP)
                    tight += close(floor[a, b], out.value, TAU_LP)
        assert tight >= 1000

    @given(ballot_elections())
    @settings(max_examples=40, deadline=None)
    def test_at_most_the_reference_on_ballot_elections(self, e):
        floor = pair_floor(e)
        for a in range(e.m):
            for b in range(e.m):
                if a != b:
                    assert floor[a, b] <= solve_full(e, a, b).value * (1 + TAU_LP)

    def test_gate_instances(self, monkeypatch):
        # IC 40 x 7, instances 16-25, k = 1..7: 333 pair LPs with the two-cluster floors alone
        tops = [truncate_to_ktop(inst.impartial_culture(40, 7, seed=s).election, k) for s in range(16, 26) for k in range(1, 8)]
        reports = [distortion_table(t) for t in tops]
        programs = _record_programs(monkeypatch)
        got = [minimax(t) for t in tops]
        assert len(programs) == 174
        for result, rep in zip(got, reports):
            assert (result.winner, result.value, result.worst_opponent) == (
                rep.winner, rep.per_candidate[rep.winner], rep.worst_opponent[rep.winner]
            )


@pytest.fixture(scope="module")
def small_lp_variants(small_lp_corpus):
    """(election, alpha, reference outcome per ordered pair) for each
    ``small_lp_corpus`` instance, the same with every other voter masked, and,
    on total orders, with alpha 0.4."""
    out = []
    for e in small_lp_corpus:
        variants = [(e, None), (mask_voters(e, range(1, e.n, 2)), None)]
        if e.all_total:
            variants.append((e, 0.4))
        for elec, alpha in variants:
            pairs = [(a, b) for a in range(e.m) for b in range(e.m) if a != b]
            out.append((elec, alpha, {(a, b): solve_full(elec, a, b, alpha=alpha) for a, b in pairs}))
    return out


def _reference_values(e, ref) -> np.ndarray:
    """Each candidate's value from reference pair outcomes: its row maximum, 1 on the diagonal."""
    values = np.ones(e.m)
    for (a, _), out in ref.items():
        values[a] = max(values[a], out.value)
    return values


def _assert_matches_full(e, a, b, alpha=None, ref=None):
    if ref is None:
        ref = solve_full(e, a, b, alpha=alpha)
    assert close(distortion_pair(e, a, b, alpha=alpha), ref.value, TAU_LP)
    if ref.status != OPTIMAL:
        return
    out = solve_pair(e, a, b, alpha=alpha)
    assert out.status == OPTIMAL and close(out.value, ref.value, TAU_LP)
    w = extract_pseudometric(e, out)
    w.validate_metric()
    assert check_consistent(w, e)
    assert social_cost(w, a) / social_cost(w, b) <= out.value * (1 + 1e-6)


class TestSoundnessAgainstBruteForce:
    def test_cross_check_small(self):
        # pruned and full builders agree; witnesses are sound and tight
        for seed in range(6):
            e = inst.impartial_culture(5, 3, seed=seed).election
            for a in range(3):
                for b in range(3):
                    if a != b:
                        _assert_matches_full(e, a, b)


class TestReducedLpMatchesFull:
    """The pruned builder (merged ballots, covering-pair ordering rows, no
    implied triangle rows, voter rows for the b-star), certified by
    ``solve_pair``, is exact: it agrees with the reference program of
    ``reference_lp``."""

    def test_small_lp_corpus(self, small_lp_variants):
        for elec, alpha, ref in small_lp_variants:
            for (a, b), out in ref.items():
                _assert_matches_full(elec, a, b, alpha, out)

    def test_reduced_shape(self):
        e = Election.from_rankings([(0, 1, 2, 3)] * 5 + [(3, 2, 1, 0)] * 3, 4)
        lp = build_metric_lp(e, 0, 3)
        # the 3 b-star pairs 03, 13, 23; 01, 02 and 12 are left out
        assert lp.meta["pairs"].tolist() == [False, False, True, False, True, True]
        # ballot 0 states 0, 1 and 2 above b = 3 (Rule 1), so its block is d(u,3) alone;
        # ballot 1 keeps its 4 distances (a = 0 is its bottom candidate, so Rule 2 skips it)
        assert lp.a_ub.shape[1] == 1 + 4 + 3
        # ballot 0: one row y <= 2 d(u,3) per pair, its other rows read one column twice;
        # ballot 1: 3 covering rows + 3 pairs x 2 voter rows (one direction is stated); no triangles
        assert lp.a_ub.shape[0] == 3 + (3 + 6)
        assert lp.objective[0] == 5.0 and lp.objective[1] == 3.0
        assert lp.a_eq[0, 0] == 5.0 and lp.a_eq[0, 4] == 3.0
        # re-solved with the left-out pairs added: 6 pair columns, and per added pair
        # one more row for ballot 0 and two for ballot 1
        full = build_metric_lp(e, 0, 3, pairs=np.ones(6, dtype=bool))
        assert full.a_ub.shape == (6 + (3 + 12), 1 + 4 + 6)

    def test_witness_expands_merged_ballots(self):
        rankings = [(0, 1, 2), (2, 1, 0), (0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 1, 2)]
        e = Election.from_rankings(rankings, 3)
        out = solve_lp(build_metric_lp(e, 2, 0))
        assert out.status == OPTIMAL
        w = extract_pseudometric(e, out)
        d = w.as_array()
        assert d.shape == (e.n + e.m, e.n + e.m)
        w.validate_metric()
        assert check_consistent(w, e)
        for i in range(e.n):
            for j in range(e.n):
                if e.prefs[i] == e.prefs[j]:
                    assert (d[i] == d[j]).all()
        assert close(social_cost(w, 2) / social_cost(w, 0), out.value)


def _assert_settled_match_full(e, ref=None) -> int:
    """Every pair ``minimax`` and ``distortion_table`` settle in closed form equals
    the reference program's value within TAU_LP; returns how many there are."""
    settled, _ = lp._floors(e, ratio_bound(e), None)
    count = 0
    for a in range(e.m):
        for b in range(e.m):
            if a != b and not math.isnan(settled[a, b]):
                want = ref[a, b] if ref is not None else solve_full(e, a, b)
                assert close(settled[a, b], want.value, TAU_LP)
                count += 1
    return count


class TestClosedForm:
    """Where ``pair_floor`` meets ``ratio_bound``, the pair value is the floor, and no LP is solved."""

    def test_small_lp_corpus_with_ktop_and_masked_voters(self, small_lp_variants):
        settled = sum(_assert_settled_match_full(e, ref) for e, alpha, ref in small_lp_variants if alpha is None)
        assert settled >= 100

    @given(ballot_elections())
    @settings(max_examples=60, deadline=None)
    def test_ballot_elections(self, e):
        _assert_settled_match_full(e)

    def test_ktop_and_masked_profiles(self):
        settled = 0
        for seed in range(3):
            e = inst.impartial_culture(8, 5, seed=seed).election
            for k in range(1, 4):
                top = truncate_to_ktop(e, k)
                settled += _assert_settled_match_full(top)
                settled += _assert_settled_match_full(mask_voters(top, range(seed % 3, 8, 3)))
        assert settled >= 100

    def test_alpha_settles_nothing(self):
        e = truncate_to_ktop(inst.impartial_culture(6, 4, seed=0).election, 1)
        assert np.isnan(lp._floors(e, ratio_bound(e), 0.5)[0]).all()

    @pytest.mark.parametrize("seed", range(6))
    def test_top_one_minimax_is_plurality_without_an_lp(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 30)), int(rng.integers(2, 8))
        e = truncate_to_ktop(inst.impartial_culture(n, m, seed=seed).election, 1)
        quiet = rng.choice(n, size=int(rng.integers(0, n)), replace=False)  # at least one voter keeps a top
        e = mask_voters(e, quiet.tolist())
        tops = np.bincount([top_of(e, i) for i in range(n) if top_of(e, i) is not None], minlength=m)
        programs = _record_programs(monkeypatch)
        got = minimax(e)
        assert programs == []
        assert got.winner == int(np.argmax(tops))  # plurality, ties to the smaller index
        assert close(got.value, 2 * n / tops[got.winner] - 1, 1e-12)
        rep = distortion_table(e)
        assert programs == [] and rep.winner == got.winner and rep.per_candidate[got.winner] == got.value


def _direct_bound(e) -> np.ndarray:
    """B(a, b) = 1 + 2(n - c)/c for the c voters stating a > b, inf where c = 0, diagonal 1."""
    counts = e.pair_counts
    bound = np.where(counts > 0, 1 + 2 * (e.n - counts) / np.where(counts > 0, counts, 1), np.inf)
    np.fill_diagonal(bound, 1.0)
    return bound


def _closure(bound) -> np.ndarray:
    """The min-product closure of a bound table along paths."""
    bound = bound.copy()
    for k in range(len(bound)):
        np.minimum(bound, bound[:, k : k + 1] * bound[k : k + 1, :], out=bound)
    return bound


class TestRoutedBound:
    """The routed bound R of ``ratio_bound``: at least every pair value, at most
    the direct bound B, computed up to ``_ROUTED_MAX_M`` candidates."""

    @staticmethod
    def _assert_sound(e, values) -> tuple[int, int]:
        """R(a, b) is at least each value ``values[a, b]`` and at most B(a, b);
        returns how many pairs have R < B, and how many R equal to the value."""
        routed, direct = lp._routed_bound(e), _direct_bound(e)
        below = tight = 0
        for (a, b), value in values.items():
            assert value <= routed[a, b] * (1 + TAU_LP)
            assert routed[a, b] <= direct[a, b]
            below += bool(routed[a, b] < direct[a, b])
            tight += close(routed[a, b], value, TAU_LP)
        return below, tight

    def test_small_lp_corpus_with_masked_voters_and_alpha(self, small_lp_variants):
        below = tight = 0
        for e, _, ref in small_lp_variants:
            got = self._assert_sound(e, {pair: out.value for pair, out in ref.items()})
            below, tight = below + got[0], tight + got[1]
        assert below >= 400 and tight >= 1000

    @given(ballot_elections())
    @settings(max_examples=40, deadline=None)
    def test_ballot_elections(self, e):
        pairs = [(a, b) for a in range(e.m) for b in range(e.m) if a != b]
        self._assert_sound(e, {(a, b): solve_full(e, a, b).value for a, b in pairs})

    def test_at_most_the_direct_bound(self, euclidean_corpus):
        below = 0
        e = inst.impartial_culture(40, 7, seed=16).election
        elections = [truncate_to_ktop(e, k) for k in range(1, 8)] + [mask_voters(e, range(0, 40, 3))]
        for e in elections + [g.election for g in euclidean_corpus[:50]]:
            routed, direct = lp._routed_bound(e), _direct_bound(e)
            assert (routed <= direct).all()
            below += int((routed < direct).sum())
        assert below >= 1000

    def test_direct_bound_above_the_limit(self):
        ballots = ["0 > 1 > 2", "1 > 0 > 2", "2 > 1 > 0"]
        at_limit = election_of(lp._ROUTED_MAX_M, ballots)
        assert ratio_bound(at_limit)[0, 1] == 3.0 < _closure(_direct_bound(at_limit))[0, 1]
        above = election_of(lp._ROUTED_MAX_M + 1, ballots)
        assert (ratio_bound(above) == _closure(_direct_bound(above))).all()

    def test_tight_below_the_direct_bound(self):
        # one voter states 0 > 1, so B(0, 1) = 1 + 2 * 2/1 = 5, and the closure keeps 5.  R routes
        # the voter stating 1 > 0 > 2 through 2 to the voter stating 2 > 1 > 0, and that voter
        # through 0 to the voter stating 0 > 1 > 2: each load is 1, so R(0, 1) = 3
        e = election_of(3, ["0 > 1 > 2", "1 > 0 > 2", "2 > 1 > 0"])
        assert _closure(_direct_bound(e))[0, 1] == 5.0
        assert lp._routed_bound(e)[0, 1] == ratio_bound(e)[0, 1] == 3.0
        assert close(solve_full(e, 0, 1).value, 3.0, TAU_LP) and close(distortion_pair(e, 0, 1), 3.0, TAU_LP)

    def test_minimax_on_a_gate_instance(self, monkeypatch):
        # sweep-k's instance 16 (IC 40 x 7, k = 1..7): 48 pair LPs with the direct bound alone
        e = inst.impartial_culture(40, 7, seed=16).election
        tops = [truncate_to_ktop(e, k) for k in range(1, 8)]
        reports = [distortion_table(t) for t in tops]
        programs = _record_programs(monkeypatch)
        got = [minimax(t) for t in tops]
        assert len(programs) <= 29
        for result, rep in zip(got, reports):
            assert (result.winner, result.value, result.worst_opponent) == (
                rep.winner, rep.per_candidate[rep.winner], rep.worst_opponent[rep.winner]
            )


class TestWitnessFloors:
    """``distortion_pair(..., floor=f)`` raises f to the witness ratios of each
    optimal solution, which never pass a candidate's value."""

    @staticmethod
    def _raised(e, alpha=None) -> np.ndarray:
        floor = np.ones(e.m)
        for a in range(e.m):
            for b in range(e.m):
                if a != b:
                    distortion_pair(e, a, b, alpha=alpha, floor=floor)
        return floor

    def test_small_lp_corpus_with_masked_voters_and_alpha(self, small_lp_variants):
        raised = 0
        for e, alpha, ref in small_lp_variants:
            floor = self._raised(e, alpha)
            assert (floor <= _reference_values(e, ref) * (1 + TAU_LP)).all()
            raised += int((floor > 1).sum())
        assert raised >= 300

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    def test_decisive_instance_with_alpha(self, alpha):
        e = inst.decisive_instance(alpha).election
        ref = {(a, b): solve_full(e, a, b, alpha=float(alpha)) for a in range(e.m) for b in range(e.m) if a != b}
        floor = self._raised(e, float(alpha))
        assert (floor <= _reference_values(e, ref) * (1 + TAU_LP)).all() and (floor > 1).any()

    def test_drops_a_candidate_the_value_floor_would_scan(self):
        # with alpha set the floors start at 1, so candidates 1 and 3 are scanned; the
        # witnesses of the first LPs lift their floors above the incumbent, so they get no LP
        # (without alpha, pair_floor's G leaves the witness floors nothing to drop on small IC instances)
        e = inst.impartial_culture(8, 4, seed=0).election

        def scanned(witness):
            calls = []

            def counted(e, a, b, alpha=None, floor=None):
                calls.append((a, b))
                return distortion_pair(e, a, b, alpha=alpha, floor=floor if witness else None)

            with patch.object(lp, "distortion_pair", counted):
                return minimax(e, alpha=0.5), {a for a, _ in calls}, len(calls)

        with_witness, without = scanned(True), scanned(False)
        assert with_witness[0] == without[0]
        assert {1, 3} <= without[1] and not {1, 3} & with_witness[1]
        assert with_witness[2] < without[2]


def _record_programs(monkeypatch) -> list:
    """The programs ``lp.solve_lp`` is called on from here on, in call order."""
    real, programs = lp.solve_lp, []

    def record(program):
        programs.append(program)
        return real(program)

    monkeypatch.setattr(lp, "solve_lp", record)
    return programs


class TestStarProgram:
    """``distortion_pair`` solves the b-star, the pairs that contain b, and
    certifies it against the left-out rows; it agrees with the reference
    program of ``reference_lp``."""

    @pytest.mark.parametrize(
        "g",
        [
            inst.dr_lower_bound(8),
            inst.ktop_lower_bound(7, 2, 10),
            inst.veto_instance(6),
            inst.hidden_star(5, 2),
            inst.missing_voters_tight(Fraction(1, 3)),
            inst.chain(5),
        ],
        ids=["dr-lower-bound", "ktop-lower-bound", "veto", "hidden-star", "missing-voters-tight", "chain"],
    )
    def test_equals_full_on_adversarial_instances(self, g):
        e = g.election
        for a in range(e.m):
            for b in range(e.m):
                if a != b:
                    assert close(distortion_pair(e, a, b), solve_full(e, a, b).value, TAU_LP)

    def test_failing_certificate_resolves(self, monkeypatch):
        # the b-star alone gives 4.5 with the alpha rows and fails the certificate;
        # the failing pairs' rows bring it to the full 3
        e = Election.from_rankings([(3, 2, 1, 0), (3, 1, 0, 2)], 4)
        star = build_metric_lp(e, 0, 1, alpha=0.5, pairs=np.array([True, False, False, True, True, False]))
        out = solve_lp(star)
        assert close(out.value, 4.5, TAU_LP)
        left = lp._uncertified(star, out.x)
        assert left.any()
        again = solve_lp(build_metric_lp(e, 0, 1, alpha=0.5, pairs=star.meta["pairs"] | left))
        assert close(again.value, 3.0, TAU_LP) and close(solve_full(e, 0, 1, alpha=0.5).value, 3.0, TAU_LP)
        # with alpha set the program starts from every pair: one solve, no certificate to fail
        programs = _record_programs(monkeypatch)
        assert close(distortion_pair(e, 0, 1, alpha=0.5), 3.0, TAU_LP)
        assert len(programs) == 1 and programs[0].meta["pairs"].all()

    def test_alpha_solves_each_pair_once(self, monkeypatch):
        programs = _record_programs(monkeypatch)
        profiles = [(inst.impartial_culture(6, 4, seed=s).election, 0.5) for s in range(3)]
        profiles.append((inst.decisive_instance(Fraction(1, 3)).election, 1 / 3))
        for e, alpha in profiles:
            for a in range(e.m):
                for b in range(e.m):
                    if a != b:
                        before = len(programs)
                        assert close(distortion_pair(e, a, b, alpha=alpha), solve_full(e, a, b, alpha=alpha).value, TAU_LP)
                        assert len(programs) == before + 1 and programs[-1].meta["pairs"].all()

    @pytest.mark.parametrize("scale, solves", [(1.01, 2), (0.99, 1)])
    def test_certificate_tolerance(self, monkeypatch, scale, solves):
        # left-out pair {2, 3}: ballot 0 has |d(u,2) - d(u,3)| = 1, ballot 1 has
        # d(u,2) + d(u,3) = 1 - delta, so the certificate fails by delta; n = 2.
        # The other left-out pairs {0, 2} and {0, 3} pass with room to spare.
        e = Election.from_rankings([(0, 1, 2, 3), (3, 2, 1, 0)], 4)
        delta = scale * TAU_LP / e.n
        x = np.concatenate([[1.0, 1.0, 0.0, 1.0], [1.0, 1.0, (1 - delta) / 2, (1 - delta) / 2], np.ones(3)])
        real, programs = lp.solve_lp, []

        def crafted_first(program):
            programs.append(program)
            return LpOutcome(OPTIMAL, 2.0, x, program) if len(programs) == 1 else real(program)

        monkeypatch.setattr(lp, "solve_lp", crafted_first)
        value = distortion_pair(e, 0, 1)
        assert programs[0].meta["pairs"].tolist() == [True, False, False, True, True, False]
        assert len(programs) == solves
        if solves == 1:
            assert value == 2.0
        else:
            assert programs[1].meta["pairs"].tolist() == [True, False, False, True, True, True]
            assert close(value, solve_full(e, 0, 1).value, TAU_LP)

    def test_resolves_on_masked_and_ktop_profiles(self, monkeypatch):
        # a tie at b's level keeps Rule 1 off for that ballot; with silent voters and
        # top lists these profiles still fail the b-star certificate on some pairs
        programs = _record_programs(monkeypatch)
        profiles = [
            (6, ["3 > 2 > 4 > 0 > 5 = 1", "0 > 1 > 5 = 3 > 4 = 2", "5 > 2 = 0 > 4 = 3 = 1"]),
            (6, ["", "", "", "3 > 2 = 4 > 5 > 1 > 0", "2 > 1 > 0 > 3", "3 = 2 = 1 > 4 > 0 = 5"]),
            (5, ["3 > 0 > 1", "4", "1 > 0 > 3 > 2 > 4", "4 > 1 > 3 = 0 = 2", "0 = 1 > 2 > 4 > 3", ""]),
        ]
        resolved = 0
        for m, lines in profiles:
            elec = election_of(m, lines)
            for a in range(m):
                for b in range(m):
                    if a != b:
                        before = len(programs)
                        assert close(distortion_pair(elec, a, b), solve_full(elec, a, b).value, TAU_LP)
                        resolved += len(programs) - before > 1
        assert resolved >= 1

    def test_witness_fills_left_out_pairs(self, euclidean_corpus):
        g = next(g for g in euclidean_corpus if g.election.m >= 6 and g.election.n <= 40)
        e = g.election
        out = solve_pair(e, 0, 1)
        assert out.status == OPTIMAL and not out.program.meta["pairs"].all()
        w = extract_pseudometric(e, out)
        w.validate_metric()
        assert check_consistent(w, e)
        assert close(social_cost(w, 0) / social_cost(w, 1), out.value)


class TestReducedLpProperty:
    @given(ballot_elections())
    @settings(max_examples=60, deadline=None)
    @example(election_of(3, ["0 = 2 > 1", "0 = 2 > 1", ""]))
    def test_reduced_value_equals_full(self, e):
        for a in range(e.m):
            for b in range(e.m):
                if a == b:
                    continue
                assert close(distortion_pair(e, a, b), solve_full(e, a, b).value, TAU_LP)


def _unreduced():
    """``build_metric_lp`` with Rules 1 and 2 off: every distance reads its own column."""
    return patch.object(lp, "_columns", lambda levels, a, b, pa, pb: (np.arange(levels.size).reshape(levels.shape), np.zeros(levels.shape, dtype=bool)))


def _reads_b(program, m, b):
    """Per ballot, the candidates whose distance reads b's column: (alone, plus y_bc)."""
    col, plus = (side[: program.meta["ballots"] * m].reshape(-1, m) for side in program.lift)
    padded = len(program.objective)
    same = col == col[:, b : b + 1]
    return [
        (set(np.flatnonzero(s & (p == padded)).tolist()) - {b}, set(np.flatnonzero(s & (p < padded)).tolist()))
        for s, p in zip(same, plus)
    ]


def _assert_dominated(e, a, b, pairs=None):
    """The program's optimum, lifted to the full layout, is feasible for the
    program with both rules off over the same pairs and has the same value."""
    reduced = build_metric_lp(e, a, b, pairs=pairs)
    with _unreduced():
        full = build_metric_lp(e, a, b, pairs=pairs)
    assert len(full.objective) >= len(reduced.objective)
    assert full.a_ub.shape[0] >= reduced.a_ub.shape[0]
    out, want = solve_lp(reduced), solve_lp(full)
    assert out.status == want.status
    if out.status != OPTIMAL:
        return
    assert close(out.value, want.value, TAU_LP)
    x = out.x
    assert len(x) == len(full.objective) and close(full.objective @ x, out.value, TAU_LP)
    assert (full.a_ub @ x <= 1e-7).all() and np.allclose(full.a_eq @ x, 1.0)


class TestDominatedDistances:
    """Rules 1 and 2 of ``lp``'s docstring: distances a ballot states above a
    b alone at its level read b's column, and bottom candidates whose only
    kept pair is {b, q} read d(u,b) + y_bq.  Both hold for any kept pair set
    and are off with alpha set."""

    # a top list that lists b = 2, one that leaves it out, a tie at b's level, a silent voter, a total order
    LINES = ["1 > 2 > 3", "1 > 3", "3 = 2 > 1 > 0 = 4", "", "4 > 3 > 2 > 1 > 0"]

    @given(ballot_elections())
    @settings(max_examples=40, deadline=None)
    def test_ballot_elections(self, e):
        for a in range(e.m):
            for b in range(e.m):
                if a != b:
                    out, ref = solve_pair(e, a, b), solve_full(e, a, b)
                    assert out.status == ref.status and close(out.value, ref.value, TAU_LP)
                    _assert_dominated(e, a, b)

    def test_top_lists_ties_and_silent_voters(self):
        e = election_of(5, self.LINES)
        program = build_metric_lp(e, 0, 2)
        assert _reads_b(program, 5, 2) == [
            ({1}, {4}),  # a top list that lists b: 1 is above b; 4 is a bottom candidate (0 is a)
            (set(), {4}),  # a top list that leaves b out: b shares its level, so Rule 1 is off
            (set(), {4}),  # a tie at b's level: Rule 1 is off
            (set(), {1, 3, 4}),  # a silent voter: every candidate but a and b is at the bottom
            ({3, 4}, set()),  # a total order: its bottom candidate is a
        ]
        for a in range(5):
            for b in range(5):
                if a != b:
                    out, ref = solve_pair(e, a, b), solve_full(e, a, b)
                    assert out.status == ref.status and close(out.value, ref.value, TAU_LP)
                    _assert_dominated(e, a, b)

    def test_certificate_added_pairs_turn_rule_two_off(self):
        e = election_of(5, self.LINES)
        pa, pb = np.triu_indices(5, 1)
        star = (pa == 2) | (pb == 2)
        added = star | ((pa == 3) & (pb == 4))  # the pair {3, 4}, as the certificate adds it
        assert _reads_b(build_metric_lp(e, 0, 2, pairs=added), 5, 2) == [
            ({1}, set()), (set(), set()), (set(), set()), (set(), {1}), ({3, 4}, set())
        ]
        for extra in range(len(pa)):
            pairs = star.copy()
            pairs[extra] = True
            _assert_dominated(e, 0, 2, pairs)
            _assert_dominated(e, 3, 2, pairs)
        for seed in range(3):
            g = inst.impartial_culture(7, 5, seed=seed).election
            for elec in (mask_voters(g, [0, 3]), truncate_to_ktop(g, 2)):
                _assert_dominated(elec, 1, 0, np.ones(len(pa), dtype=bool))
                _assert_dominated(elec, 4, 2, star | ((pa == 0) & (pb == 1)))

    def test_alpha_program_keeps_every_distance(self):
        e = Election.from_rankings([(0, 1, 2, 3), (3, 1, 0, 2), (0, 1, 2, 3), (2, 3, 1, 0)], 4)
        for alpha in (0.0, 0.5, 1.0):
            program = build_metric_lp(e, 0, 1, alpha=alpha)
            with _unreduced():
                plain = build_metric_lp(e, 0, 1, pairs=np.ones(6, dtype=bool))
            assert program.lift is None and program.meta["pairs"].all()
            # the alpha rows, one per ballot, follow the covering rows; the rest is the plain program
            ncover = len(e._covering[0])
            rows = np.r_[0:ncover, ncover + len(e.levels) : program.a_ub.shape[0]]
            assert (program.a_ub[rows] != plain.a_ub).nnz == 0
            assert np.array_equal(program.objective, plain.objective) and (program.a_eq != plain.a_eq).nnz == 0
