"""Knockout elicitation, tournament rules, and capacitated matchings."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import ballot_elections, election_of, matching_blocks
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from metricvote import instances as inst
from metricvote import mechanisms
from metricvote.core import Election, comparison_graph, realized_distortion, truncate_to_ktop
from metricvote.errors import ConfigError, CoverageError, DataFormatError, TheoremFalsificationError
from metricvote.mechanisms import (
    DominationGraph,
    MatchingResult,
    balanced_rule,
    build_domination_graph,
    conjecture_probe,
    copeland,
    domination_root,
    king_vertex,
    ktop_rule,
    majority_oracle,
    max_matching,
    phi_scores,
    plurality_matching,
    run_dr,
)
from metricvote.sampling import sample_size, sample_voters, sampled_copeland


def is_two_hop_king(m, edges, v):
    """True when v reaches every vertex of the digraph in at most two hops."""
    adj = [set() for _ in range(m)]
    for a, b in edges:
        adj[a].add(b)
    reach = {v} | adj[v]
    for u in adj[v]:
        reach |= adj[u]
    return len(reach) == m


def majority_edges(e):
    """Majority digraph: strict pairwise wins, both directions on a drawn pair."""
    g = comparison_graph(e)
    return {(a, b) for a in range(e.m) for b in range(e.m) if a != b and g.counts[a][b] >= g.counts[b][a]}


def reference_edges(g, tau):
    """Support edges by per-pair Fraction tests: (a, b) iff a tau fraction of the voters state a > b."""
    tau, m = Fraction(tau), len(g.counts)
    return frozenset((a, b) for a in range(m) for b in range(m) if a != b and Fraction(g.counts[a][b], g.n) >= tau)


def reference_king(m, edges):
    """Maximum out-degree vertex (lowest index among equals), checked to be a 2-hop king."""
    degree = [sum(1 for a, _ in edges if a == c) for c in range(m)]
    v = degree.index(max(degree))
    if not is_two_hop_king(m, edges, v):
        raise TheoremFalsificationError(f"max out-degree vertex {v} is not a 2-hop king; input lacks a tournament?")
    return v


def reference_copeland(e):
    g = comparison_graph(e)
    for a, b in itertools.combinations(range(e.m), 2):
        if g.counts[a][b] + g.counts[b][a] == 0:
            raise CoverageError((a, b), f"no voter compares candidates {a} and {b}")
    score = [Fraction(0)] * e.m
    for a, b in itertools.combinations(range(e.m), 2):
        if g.counts[a][b] > g.counts[b][a]:
            score[a] += 1
        elif g.counts[b][a] > g.counts[a][b]:
            score[b] += 1
        else:
            score[a] += Fraction(1, 2)
            score[b] += Fraction(1, 2)
    return score.index(max(score))


def reference_balanced(e, alpha):
    alpha = Fraction(alpha)
    g = comparison_graph(e)
    for a, b in itertools.combinations(range(e.m), 2):
        coverage = Fraction(g.counts[a][b] + g.counts[b][a], g.n)
        if coverage < alpha:
            raise CoverageError((a, b), f"pair ({a}, {b}) covered by {coverage} < alpha = {alpha}")
    return reference_king(e.m, reference_edges(g, alpha / 2))


def reference_ktop(e, k):
    edges = reference_edges(comparison_graph(e), Fraction(k, 3 * e.m))
    coverage = [sum(c in t for t in e.ktop) for c in range(e.m)]  # voters listing c
    for c in sorted(range(e.m), key=lambda c: (-coverage[c], c)):
        if is_two_hop_king(e.m, edges, c):
            return c
    raise TheoremFalsificationError(f"no 2-hop king at threshold {k}/(3*{e.m})")


def reference_sampled_copeland(e, epsilon, delta, seed):
    sub, _ = sample_voters(e, sample_size(epsilon, delta, e.m, "copeland"), True, seed)
    return reference_king(e.m, reference_edges(comparison_graph(sub), Fraction(1, 2)))


def outcome(fn, *args):
    """The winner, or the error's type, message and pair."""
    try:
        return fn(*args)
    except (ConfigError, CoverageError, TheoremFalsificationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "pair", None)


class TestMajorityOracle:
    def test_strict_majority(self):
        e = Election.from_rankings([(0, 1), (0, 1), (1, 0)], 2)
        assert majority_oracle(e, 0, 1) == 1

    def test_tie_default_small_index_loses(self):
        e = Election.from_rankings([(0, 1), (1, 0)], 2)
        assert majority_oracle(e, 0, 1) == 0

    def test_chain_comparisons_won_by_higher(self):
        gi = inst.chain(5)
        for t in range(1, 5):
            assert majority_oracle(gi.election, t, t - 1) == t - 1

    def test_abstainers_count_for_neither(self):
        e = election_of(3, ["0 = 2 > 1", "", ""])
        assert majority_oracle(e, 0, 1) == 1

    def test_candidate_out_of_range(self):
        e = Election.from_rankings([(0, 1, 2)], 3)
        for a, b in ((0, -1), (3, 0)):
            with pytest.raises(ConfigError):
                majority_oracle(e, a, b)


class TestDominationRoot:
    def test_two_candidates_one_comparison(self):
        e = Election.from_rankings([(1, 0)], 2)
        winner, t = run_dr(e)
        assert winner == 1 and t.comparisons == 1

    def test_fourteen_candidates_four_rounds(self):
        rounds = []

        def oracle(a, b):
            return min(a, b)

        winner, t = domination_root(range(14), oracle)
        assert t.comparisons == 13
        assert winner == 13

    def test_query_counts_all_strategies(self):
        def oracle(a, b):
            return min(a, b)

        for m in range(2, 65):
            for strategy in ("input", "reversed", "shuffle"):
                _, t = domination_root(range(m), oracle, pairing=strategy, seed=m)
                assert t.comparisons == m - 1

    def test_lower_bound_schedule(self):
        gi = inst.dr_lower_bound(8)
        winner, t = run_dr(gi.election, schedule=gi.schedule)
        assert winner == gi.expected["winner"]
        assert t.comparisons == 7
        assert realized_distortion(gi.witness, winner) == 7

    def test_schedule_validation(self):
        gi = inst.dr_lower_bound(4)
        bad = ((tuple((0, 1)),),)  # too few pairings for round one
        with pytest.raises(ConfigError):
            run_dr(gi.election, schedule=bad)

    def test_winner_reaches_all_within_log_rounds(self):
        import math

        for seed in range(5):
            gi = inst.euclidean(20, 11, 2, seed=seed)
            e = gi.election
            winner, _ = run_dr(e, pairing="shuffle", seed=seed)
            adj = [set() for _ in range(e.m)]
            for a, b in majority_edges(e):
                adj[a].add(b)
            depth = {winner: 0}
            frontier = [winner]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in depth:
                            depth[v] = depth[u] + 1
                            nxt.append(v)
                frontier = nxt
            assert len(depth) == e.m
            assert max(depth.values()) <= math.ceil(math.log2(e.m))


def matrix(m, edges):
    """Bool adjacency matrix of an edge set."""
    adj = np.zeros((m, m), dtype=bool)
    for a, b in edges:
        adj[a, b] = True
    return adj


class TestKingVertex:
    def test_transitive_tournament_source(self):
        edges = frozenset((a, b) for a in range(5) for b in range(5) if a < b)
        assert king_vertex(matrix(5, edges)) == 0

    def test_three_cycle_all_kings(self):
        edges = frozenset({(0, 1), (1, 2), (2, 0)})
        assert king_vertex(matrix(3, edges)) == 0
        assert all(is_two_hop_king(3, edges, v) for v in range(3))

    def test_random_tournaments_verified(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = 15
            edges = set()
            for a, b in itertools.combinations(range(m), 2):
                edges.add((a, b) if rng.random() < 0.5 else (b, a))
            v = king_vertex(matrix(m, edges))
            assert is_two_hop_king(m, edges, v)

    def test_falsification_on_non_tournament(self):
        with pytest.raises(TheoremFalsificationError):
            king_vertex(matrix(3, {(0, 1)}))


class TestCopeland:
    def test_unanimous(self):
        e = Election.from_rankings([(2, 0, 1)] * 3, 3)
        assert copeland(e) == 2

    def test_cycle_breaks_by_index(self):
        e = Election.from_rankings([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 3)
        assert copeland(e) == 0  # all score 1; smallest index wins

    def test_brute_force_scores(self):
        for seed in range(6):
            e = inst.impartial_culture(9, 5, seed=seed).election
            g = comparison_graph(e)
            scores = []
            for a in range(5):
                s = Fraction(0)
                for b in range(5):
                    if a == b:
                        continue
                    if g.counts[a][b] > g.counts[b][a]:
                        s += 1
                    elif g.counts[a][b] == g.counts[b][a]:
                        s += Fraction(1, 2)
                scores.append(s)
            assert copeland(e) == scores.index(max(scores))

    def test_missing_pair_error(self):
        # no voter compares 0 and 2
        e = election_of(3, ["0 = 2 > 1", "1 > 0 = 2"])
        with pytest.raises(CoverageError):
            copeland(e)

    def test_draw_scores_half_a_win(self):
        # candidates 1 and 2 win once each; 2 also draws with 0, so it leads
        e = Election.from_rankings([(0, 2, 1), (2, 1, 0), (1, 0, 2), (2, 1, 0)], 3)
        assert copeland(e) == 2

    def test_winner_is_two_step_king(self):
        for seed in range(8):
            e = inst.impartial_culture(11, 6, seed=seed).election
            w = copeland(e)
            assert is_two_hop_king(e.m, majority_edges(e), w)


class TestBalancedRule:
    def test_total_orders_alpha_one(self):
        for seed in range(4):
            e = inst.impartial_culture(9, 5, seed=seed).election
            w = balanced_rule(e, 1)
            assert is_two_hop_king(e.m, reference_edges(comparison_graph(e), Fraction(1, 2)), w)

    def test_coverage_error_names_pair(self):
        e = election_of(3, ["0 = 2 > 1", "1 > 0 = 2"])
        with pytest.raises(CoverageError) as exc:
            balanced_rule(e, 0.5)
        assert exc.value.pair in {(0, 2), (1, 2)}

    def test_two_candidates_partial(self):
        # half the voters compared the pair, majority for candidate 0
        e = election_of(2, ["0 > 1", "0 > 1", "", ""])
        assert balanced_rule(e, 0.5) == 0


class TestKtopRule:
    def test_k1_unanimous_top(self):
        e = Election.from_ktop([(2,)] * 5, 4)
        assert ktop_rule(e, 1) == 2

    def test_count_exactly_at_threshold_is_an_edge(self):
        # k/(3m) of the three voters is one voter, so the one voter stating 0 > 1 gives 0 an
        # edge to 1; 0 is then a king and first among equal coverages, where without it 1 wins
        e = Election.from_rankings([(0, 1, 2), (1, 0, 2), (1, 0, 2)], 3)
        assert ktop_rule(e, 3) == 0

    def test_requires_annotations(self):
        e = election_of(3, ["0 = 2 > 1"])
        with pytest.raises(ConfigError):
            ktop_rule(e, 1)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range(self, k):
        # an all-unannotated election must not pass as exactly-0-top
        for e in (Election.from_ktop([[], []], 3), Election.from_rankings([(0, 1, 2)], 3)):
            with pytest.raises(ConfigError, match=r"^k must be in \[1, 3\]"):
                ktop_rule(e, k)

    def test_k_equals_m_total(self):
        e = inst.impartial_culture(20, 5, seed=0).election
        w = ktop_rule(e, 5)
        assert 0 <= w < 5

    def test_lower_bound_instance_winner_in_first_block(self):
        gi = inst.ktop_lower_bound(9, 2, Fraction(1, 10**6))
        w = ktop_rule(gi.election, 2)
        assert w in gi.expected["winner_block"]
        assert realized_distortion(gi.witness, w) == gi.expected["distortion_formula"]


class TestMatching:
    def brute_force(self, g: DominationGraph) -> int:
        best = 0
        caps = list(g.capacities)

        def rec(i, used, size):
            nonlocal best
            best = max(best, size)
            if i == g.n or size + (g.n - i) <= best:
                return
            rec(i + 1, used, size)
            for k in np.flatnonzero(g.neighbourhoods[g.ballot_of[i]]).tolist():
                if used[k] < caps[k]:
                    used[k] += 1
                    rec(i + 1, used, size + 1)
                    used[k] -= 1

        rec(0, [0] * len(caps), 0)
        return best

    def test_complete_graph_full_matching(self):
        e = Election.from_rankings([(0, 1, 2)] * 6, 3)
        g = build_domination_graph(e, 0)
        r = max_matching(g)
        assert r.size == 6 and r.phi == 1

    def test_focal_out_of_range(self):
        e = Election.from_rankings([(0, 1, 2)] * 2, 3)
        for focal in (-1, 3):
            with pytest.raises(ConfigError):
                build_domination_graph(e, focal)

    def test_empty_edges(self):
        g = DominationGraph(0, (1, 1, 1), np.zeros((3, 3), dtype=bool), np.arange(3))
        r = max_matching(g)
        assert r.size == 0 and r.assignment == (-1, -1, -1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_match_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 8, 4
        caps = [int(c) for c in rng.integers(0, 4, size=m)]
        g = DominationGraph(0, tuple(caps), rng.random((n, m)) < 0.5, np.arange(n))
        r = max_matching(g)
        assert r.size == self.brute_force(g)
        assert all(u <= c for u, c in zip(r.usage, caps))
        assert sum(1 for a in r.assignment if a >= 0) == r.size

    def test_decomposition_blocks(self):
        e = Election.from_rankings([(0, 1), (1, 0), (1, 0)], 2)
        r = max_matching(build_domination_graph(e, 1))
        blocks = matching_blocks(r)
        assert sum(len(v) for k, v in blocks.items() if k >= 0) == r.size


def per_voter_matching(g: DominationGraph) -> MatchingResult:
    """Reference matching: voters grouped by neighbourhood frozenset, the flow
    read one entry at a time."""
    adjacency = [frozenset(np.flatnonzero(g.neighbourhoods[j]).tolist()) for j in g.ballot_of.tolist()]
    classes: dict[frozenset[int], list[int]] = {}
    for i, nb in enumerate(adjacency):
        classes.setdefault(nb, []).append(i)
    keys = sorted(classes, key=lambda nb: classes[nb][0])
    kn, m = len(keys), len(g.capacities)
    src, snk = 0, kn + m + 1
    rows, cols, caps = [], [], []
    for ci, nb in enumerate(keys):
        rows.append(src)
        cols.append(1 + ci)
        caps.append(len(classes[nb]))
        for k in nb:
            if g.capacities[k] > 0:
                rows.append(1 + ci)
                cols.append(1 + kn + k)
                caps.append(len(classes[nb]))
    for k in range(m):
        if g.capacities[k] > 0:
            rows.append(1 + kn + k)
            cols.append(snk)
            caps.append(g.capacities[k])
    if g.n == 0:
        return MatchingResult(0, (0,) * m, Fraction(0), ())
    res = maximum_flow(csr_matrix((caps, (rows, cols)), shape=(snk + 1, snk + 1), dtype=np.int64), src, snk, method="dinic")
    assignment, usage = [-1] * g.n, [0] * m
    for ci, nb in enumerate(keys):
        voters, pos = classes[nb], 0
        for k in sorted(nb):
            if g.capacities[k] <= 0:
                continue
            for _ in range(int(res.flow[1 + ci, 1 + kn + k])):
                assignment[voters[pos]] = k
                usage[k] += 1
                pos += 1
    size = int(res.flow_value)
    return MatchingResult(size, tuple(usage), Fraction(size, g.n), tuple(assignment))


class TestMatchingMatchesPerVoterReference:
    @given(ballot_elections(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_elections(self, e, data):
        caps = data.draw(st.lists(st.integers(0, 3), min_size=e.m, max_size=e.m))
        for focal in range(e.m):
            g = build_domination_graph(e, focal, caps)
            assert max_matching(g) == per_voter_matching(g)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, seed):
        # rows drawn from a pool in which two rows differ in one column (past
        # the first 32 for wide graphs), so distinct rows may be equal; voters
        # pick rows in arbitrary order and some rows go unused
        rng = np.random.default_rng(seed)
        n, u = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        m = int(rng.choice([int(rng.integers(1, 6)), 40]))
        pool = rng.random((3, m)) < 0.5
        pool = np.vstack([pool, pool[0] ^ (np.arange(m) == rng.integers(max(m - 8, 0), m))])
        rows = pool[rng.integers(0, len(pool), size=u)]
        g = DominationGraph(0, tuple(rng.integers(0, 4, size=m).tolist()), rows, rng.integers(0, u, size=n))
        assert max_matching(g) == per_voter_matching(g)

    def test_distinct_ballots_share_a_neighbourhood(self):
        # both ballots give focal 0 the row {0, 1}, so their three voters form one class
        p, q = "2 > 0 > 1", "0 = 2 > 1"
        e = election_of(3, [p, q, "1 > 0 = 2", q])
        g = build_domination_graph(e, 0, (0, 2, 1))
        assert np.array_equal(g.neighbourhoods[0], g.neighbourhoods[1])
        r = max_matching(g)
        assert r == per_voter_matching(g)
        assert r.assignment == (1, 1, -1, -1) and r.usage == (0, 2, 0)

    def test_rows_differing_past_32_columns(self):
        rows = np.zeros((2, 40), dtype=bool)
        rows[:, 0] = True
        rows[1, 35] = True
        caps = tuple(1 if k in (0, 35) else 0 for k in range(40))
        r = max_matching(DominationGraph(0, caps, rows, [0, 1]))
        assert r.assignment == (0, 35)

    def test_ballots_out_of_first_appearance_order(self):
        rows = np.array([[0, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=bool)
        g = DominationGraph(0, (2, 1, 2), rows, [2, 1, 0, 1, 2])
        r = max_matching(g)
        assert r == per_voter_matching(g)
        # voters 0, 2 and 4 share row {1, 2} and come first; voters 1 and 3 take what is left
        assert r.size == 5 and r.usage == (2, 1, 2)


class TestPhiScoresOneNetwork:
    @given(ballot_elections(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_graph_matchings(self, e, data):
        # silent, masked and k-top voters, closed candidates; both paths are
        # called directly, since small elections take the subset tables
        caps = data.draw(st.lists(st.sampled_from([-1, 0, 1, 2, 3]), min_size=e.m, max_size=e.m))
        sizes = [max_matching(build_domination_graph(e, j, caps)).size for j in range(e.m)]
        assert mechanisms._matched_by_cut(e, caps).tolist() == sizes
        assert mechanisms._matched_by_flow(e, caps).tolist() == sizes
        assert phi_scores(e, caps) == tuple(Fraction(s, e.n) for s in sizes)

    def test_flow_only_past_the_subset_rule(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return maximum_flow(*args, **kwargs)

        monkeypatch.setattr("scipy.sparse.csgraph.maximum_flow", counted)
        e = inst.impartial_culture(60, 7, seed=4).election  # 2**7 <= 16 * 60
        assert max(phi_scores(e)) == 1
        assert calls == []
        few = Election.from_rankings([range(8), range(7, -1, -1), (3, 1, 4, 0, 5, 2, 7, 6)], 8)  # 2**8 > 16 * 3
        phis = phi_scores(few)
        assert calls == ["dinic"]
        assert phis == tuple(max_matching(build_domination_graph(few, j)).phi for j in range(8))

    def test_all_capacities_closed(self):
        e = Election.from_rankings([(0, 1, 2), (2, 1, 0), (1, 0, 2)], 3)
        assert phi_scores(e, (0, -1, 0)) == (0, 0, 0)

    def test_one_voter(self):
        e = Election.from_rankings([(2, 0, 1)], 3)
        # only candidate 2 has capacity, and only the focal 2 reaches it
        assert phi_scores(e) == (0, 0, 1)
        assert plurality_matching(e) == (2, (0, 0, 1))
        partial = election_of(3, ["1 > 0 = 2"])
        assert phi_scores(partial, (1, 1, 0)) == (1, 1, 0)

    def test_no_voters(self):
        assert phi_scores(Election.from_rankings([], 3)) == (0, 0, 0)
        # every comparison ties, and the smaller index loses it
        winner, transcript = run_dr(Election.from_rankings([], 3))
        assert winner == 2 and transcript.comparisons == 2

    def test_capacity_vector_of_wrong_length(self):
        e = Election.from_rankings([(0, 1, 2)] * 2, 3)
        with pytest.raises(ConfigError, match=r"^capacity vector must have one entry per candidate$"):
            phi_scores(e, (1, 1))

    def test_voter_without_unique_top(self):
        e = Election.from_ktop([[0], []], 3)
        with pytest.raises(ConfigError, match=r"^voter 1 has no unique top; supply capacities explicitly$"):
            phi_scores(e)

    def test_capacities_beyond_int32(self):
        # the solver stores capacities as int32; 2**32 + 1 used to wrap to 1
        e = Election.from_rankings([(0, 1)] * 3 + [(1, 0)] * 2, 2)
        for caps in ((2**32 + 1, 2**32), (2**31, 2**31), (2**70, 2**63)):
            assert phi_scores(e, caps) == (1, 1)
            assert mechanisms._matched_by_cut(e, caps).tolist() == [5, 5]
            assert mechanisms._matched_by_flow(e, caps).tolist() == [5, 5]
        r = max_matching(build_domination_graph(e, 0, (0, 2**32 + 1)))
        assert r.size == 3 and r.usage == (0, 3) and r.assignment == (1, 1, 1, -1, -1)


class TestPluralityMatching:
    def test_identical_voters(self):
        e = Election.from_rankings([(1, 0, 2)] * 5, 3)
        w, phis = plurality_matching(e)
        assert w == 1 and phis[1] == 1

    def test_two_voter_example_middle_candidate_eligible(self):
        e = Election.from_rankings([(0, 1, 2), (2, 1, 0)], 3)
        w, phis = plurality_matching(e)
        assert phis[1] == 1  # the compromise candidate attains a perfect matching
        assert max(phis) == 1

    def test_veto_instance_ineligible(self):
        gi = inst.veto_instance(4)
        w, phis = plurality_matching(gi.election)
        assert phis[0] < 1
        assert w != 0 and phis[w] == 1

    def test_total_orders_always_perfect_somewhere(self):
        for seed in range(8):
            e = inst.impartial_culture(13, 5, seed=seed).election
            _, phis = plurality_matching(e)
            assert max(phis) == 1


class TestConjectureProbe:
    def test_k_equals_m(self):
        e = inst.impartial_culture(10, 4, seed=2).election
        probe = conjecture_probe(e, 4)
        assert probe.best_fraction == 1 and probe.holds

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_out_of_range(self, k):
        for e in (Election.from_ktop([[], []], 3), Election.from_rankings([(0, 1, 2)], 3)):
            with pytest.raises(ConfigError, match=r"^k must be in \[1, 3\]"):
                conjecture_probe(e, k)

    def test_k1_plurality_floor(self):
        e = truncate_to_ktop(inst.impartial_culture(12, 4, seed=3).election, 1)
        probe = conjecture_probe(e, 1)
        assert probe.best_fraction >= Fraction(1, 4) and probe.holds

    def test_random_ktop_logged(self):
        held = 0
        for seed in range(10):
            e = truncate_to_ktop(inst.impartial_culture(30, 6, seed=seed).election, 3)
            probe = conjecture_probe(e, 3)
            held += probe.holds
            assert probe.best_fraction >= 0
        # empirical outcome is recorded, not asserted as a theorem
        assert held >= 0


fractions_in_unit = st.integers(1, 60).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q)))


class TestTournamentRulesMatchPerPairReference:
    @given(ballot_elections(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_elections(self, e, data):
        g = comparison_graph(e)
        assert outcome(copeland, e) == outcome(reference_copeland, e)
        for alpha in (0.3, 0.7, 0.9, 1.0, data.draw(fractions_in_unit)):
            assert outcome(balanced_rule, e, alpha) == outcome(reference_balanced, e, alpha)
        for k in range(1, e.m + 1):
            if (e.listed == k).all():
                assert outcome(ktop_rule, e, k) == outcome(reference_ktop, e, k)
        tau = data.draw(fractions_in_unit | st.sampled_from([0.15, 0.49]))
        edges = reference_edges(g, tau)
        assert outcome(king_vertex, matrix(e.m, edges)) == outcome(reference_king, e.m, edges)
        seed = data.draw(st.integers(0, 2**16))
        if e.all_total:
            assert sampled_copeland(e, 4, 0.5, seed) == reference_sampled_copeland(e, 4, 0.5, seed)
        else:
            with pytest.raises(ConfigError):
                sampled_copeland(e, 4, 0.5, seed)

    def test_count_exactly_at_threshold_is_an_edge(self):
        # each of the two voters is exactly alpha/2 = 1/2 of the electorate on the pair (0, 1);
        # if a count at the threshold made no edge, 0 and 1 would reach only 2 and no king exists
        e = Election.from_rankings([(0, 1, 2), (1, 0, 2)], 3)
        assert balanced_rule(e, 1) == 0

    def test_no_voters(self):
        e = Election.from_rankings([], 3)
        for rule, args in ((copeland, ()), (balanced_rule, (1,))):
            with pytest.raises(DataFormatError, match="at least one voter"):
                rule(e, *args)

    def test_float_alpha_threshold_is_exact_at_large_n(self):
        # Fraction(0.3) / 2 has denominator 2**55, so counts * denominator would
        # overflow int64 for counts >= 256; the threshold stays a Python int
        e = Election.from_rankings([(1, 2, 0)] * 500 + [(2, 0, 1)] * 100, 3)
        assert balanced_rule(e, 0.3) == reference_balanced(e, 0.3) == 1
