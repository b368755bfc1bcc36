"""Sample-size formulas, seeded draws, and sampled mechanisms."""

import math
from fractions import Fraction

import pytest
from conftest import election_of, matching_blocks

from metricvote import instances as inst
from metricvote.core import Election
from metricvote.errors import ConfigError, DataFormatError
from metricvote.core import comparison_graph
from metricvote.mechanisms import build_domination_graph, copeland, king_vertex, max_matching, phi_scores
from metricvote.sampling import (
    sample_size,
    sample_voters,
    sampled_copeland,
    sampled_plurality_matching,
)


class TestSampleSize:
    def test_copeland_worked_example(self):
        assert sample_size(1, 0.01, 8, "copeland") == 1211

    def test_copeland_formula(self):
        eps, delta, m = 2.0, 0.1, 5
        c = math.ceil(math.log(2 * m * m / delta) / (2 * (eps / 16) ** 2))
        if c % 2 == 0:
            c += 1
        assert sample_size(eps, delta, m, "copeland") == c
        assert sample_size(eps, delta, m, "copeland") % 2 == 1

    def test_pm_formula(self):
        eps, delta, m = 2.0, 0.1, 4
        c = math.ceil(2 * (m + math.log(2 * m / delta)) / (eps / 8) ** 2)
        assert sample_size(eps, delta, m, "plurality-matching") == c

    @pytest.mark.parametrize("eps", [0, -1, 4.5])
    def test_epsilon_range(self, eps):
        with pytest.raises(ConfigError):
            sample_size(eps, 0.1, 4, "copeland")

    def test_delta_range(self):
        with pytest.raises(ConfigError):
            sample_size(1, 1.0, 4, "copeland")


class TestSampleVoters:
    def test_deterministic(self):
        e = inst.impartial_culture(50, 4, seed=0).election
        s1, i1 = sample_voters(e, 20, False, 7)
        s2, i2 = sample_voters(e, 20, False, 7)
        assert s1 == s2 and i1.tolist() == i2.tolist()
        assert len(i1) == s1.n == 20

    def test_full_draw_without_replacement(self):
        e = inst.impartial_culture(9, 3, seed=1).election
        sub, idx = sample_voters(e, 9, False, 3)
        assert sorted(idx.tolist()) == list(range(9))
        assert sorted(map(sorted, sub.prefs)) == sorted(map(sorted, e.prefs))

    def test_no_voters_is_data_error(self):
        # the one check the tournament rules make, ahead of the overdraw check
        e = Election.from_rankings([], 3)
        calls = (
            lambda: sample_voters(e, 1, True, 0),
            lambda: sample_voters(e, 1, False, 0),
            lambda: sampled_copeland(e, 1, 0.1, 0),
            lambda: sampled_plurality_matching(e, 1, 0.1, 0),
        )
        for call in calls:
            with pytest.raises(DataFormatError, match="^the election needs at least one voter$"):
                call()

    def test_overdraw_rejected(self):
        e = inst.impartial_culture(5, 3, seed=1).election
        with pytest.raises(ConfigError):
            sample_voters(e, 6, False, 0)

    def test_weights_concentrate(self):
        # empirical pairwise weights within epsilon of the truth on >= 95% of trials
        eps = 2.0
        e = inst.euclidean(800, 4, 2, seed=5).election
        from metricvote.core import comparison_graph

        g = comparison_graph(e)
        plan_size = sample_size(eps, 0.05, 4, "copeland")
        good = 0
        trials = 200
        for t in range(trials):
            sub, _ = sample_voters(e, plan_size, True, (9, t))
            gs = comparison_graph(sub)
            ok = all(
                abs(Fraction(gs.counts[a][b], gs.n) - Fraction(g.counts[a][b], g.n)) < eps / 16
                for a in range(4)
                for b in range(4)
                if a != b
            )
            good += ok
        assert good >= 0.95 * trials


class TestSampledCopeland:
    def test_unanimous_every_seed(self):
        e = Election.from_rankings([(2, 0, 1)] * 40, 3)
        for seed in range(10):
            assert sampled_copeland(e, 2, 0.1, seed) == 2

    def test_two_candidate_margin(self):
        # margin wider than epsilon: sampled majority wins almost surely
        rankings = [(0, 1)] * 70 + [(1, 0)] * 30
        e = Election.from_rankings(rankings, 2)
        wins = sum(sampled_copeland(e, 1.0, 0.05, seed) == 0 for seed in range(40))
        assert wins >= 38

    def test_full_sample_equals_deterministic(self):
        # c = n without replacement reproduces the deterministic tournament
        e = inst.impartial_culture(31, 4, seed=8).election
        sub, _ = sample_voters(e, 31, False, 5)
        from metricvote.core import comparison_graph

        g1, g2 = comparison_graph(e), comparison_graph(sub)
        assert g1.counts == g2.counts
        assert copeland(sub) == copeland(e)

    def test_requires_total_orders(self):
        e = election_of(3, ["0 > 1 = 2", ""])
        with pytest.raises(ConfigError):
            sampled_copeland(e, 1, 0.1, 0)

    def test_equals_king_of_sampled_majority_tournament(self):
        # an odd sample of total orders draws no pair, so Copeland and the king agree
        for i in range(40):
            e = inst.impartial_culture(9 + i % 7, 3 + i % 6, seed=900 + i).election
            for seed in range(5):
                sub, _ = sample_voters(e, sample_size(4, 0.2, e.m, "copeland"), True, seed)
                king = king_vertex(2 * sub.pair_counts >= sub.n)  # support of at least half the sample
                assert sampled_copeland(e, 4, 0.2, seed) == king, (i, seed)


class TestSampledPluralityMatching:
    def test_unanimous_every_seed(self):
        e = Election.from_rankings([(1, 2, 0)] * 2000, 3)
        for seed in range(10):
            assert sampled_plurality_matching(e, 2, 0.1, seed) == 1

    def test_proportional_sample_reproduces_phi_exactly(self):
        # hand-built sample with the matching-decomposition proportions:
        # phi on the scaled graph equals phi on the full graph
        e = Election.from_rankings([(0, 1)] * 4 + [(1, 0)] * 4, 2)
        for j in range(2):
            full = max_matching(build_domination_graph(e, j))
            blocks = matching_blocks(full)
            picks = []
            for k, voters in blocks.items():
                picks.extend(voters[: len(voters) // 2])  # exact halves per block
            sub = e.restrict(sorted(picks))
            caps = (2, 2)  # half of each candidate's plurality count
            scaled = max_matching(build_domination_graph(sub, j, caps))
            assert Fraction(scaled.size, len(picks)) == full.phi

    def test_sampled_phi_uses_sample_pluralities(self):
        e = inst.impartial_culture(90, 4, seed=3).election
        sub, _ = sample_voters(e, sample_size(4, 0.2, 4, "plurality-matching"), False, 1)
        phis = phi_scores(sub)
        assert max(phis) == 1  # corollary holds inside the sample too
        assert len(phis) == 4

    def test_winner_close_to_true_phi(self):
        e = inst.euclidean(1500, 4, 2, seed=2).election
        true_phi = phi_scores(e)
        w = sampled_plurality_matching(e, 1.0, 0.05, seed=0)
        assert true_phi[w] >= (1 - 0.5) * max(true_phi)
