"""Generators: every witness is consistent, every expected tag asserted exactly."""

import argparse
import json
from fractions import Fraction

import pytest
from conftest import check_witness, ranking, second_of, top_of, vc

from metricvote import cli
from metricvote import instances as inst
from metricvote.core import (
    check_consistent,
    comparison_graph,
    election_to_text,
    plurality_counts,
    realized_distortion,
    social_cost,
)
from metricvote.errors import ConfigError
from metricvote.instances import instance_sidecar, witness_from_jsonable, witness_to_jsonable


def test_impartial_culture_deterministic():
    a = inst.impartial_culture(10, 4, seed=5)
    b = inst.impartial_culture(10, 4, seed=5)
    assert a.election == b.election
    assert a.election != inst.impartial_culture(10, 4, seed=6).election


def test_impartial_culture_single_candidate():
    gi = inst.impartial_culture(3, 1, seed=0)
    assert all(r == (0,) for r in gi.election.ktop)


def test_euclidean_witness_consistent():
    for seed in range(4):
        gi = inst.euclidean(15, 5, 2, seed=seed)
        check_witness(gi)


def test_euclidean_exhaustive_optimum():
    gi = inst.euclidean(8, 4, 2, seed=21)
    costs = [social_cost(gi.witness, c) for c in range(4)]
    assert min(costs) == costs[min(range(4), key=costs.__getitem__)]
    assert realized_distortion(gi.witness, min(range(4), key=costs.__getitem__)) == 1.0


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_chain_social_costs_exact(ell):
    gi = inst.chain(ell)
    check_witness(gi)
    assert [social_cost(gi.witness, c) for c in range(ell)] == list(gi.expected["social_costs"])
    # candidate t pairwise-defeats t-1: half the voters certainly prefer it
    g = comparison_graph(gi.election)
    for t in range(1, ell):
        assert 2 * g.counts[t][t - 1] >= gi.election.n


def test_chain_ell2_tie_pattern():
    gi = inst.chain(2)
    assert [social_cost(gi.witness, c) for c in range(2)] == [1, 3]
    g = comparison_graph(gi.election)
    # 1-1 split on the pair, so the higher index wins under the default tiebreak
    assert g.counts[1][0] == 1 and g.counts[0][1] == 1


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_dr_lower_bound_shape(m):
    gi = inst.dr_lower_bound(m)
    check_witness(gi)
    assert gi.expected["distortion"] == 2 * (m.bit_length() - 1) + 1
    assert sum(len(r) for r in gi.schedule) == m - 1
    # far candidates lose every scheduled comparison by pure distance
    ell = m.bit_length()
    for c in range(ell, m):
        assert social_cost(gi.witness, c) > social_cost(gi.witness, ell - 1)


def test_dr_lower_bound_rejects_non_powers():
    with pytest.raises(ConfigError):
        inst.dr_lower_bound(6)


@pytest.mark.parametrize("m,k", [(5, 2), (7, 3), (9, 4), (9, 2)])
def test_ktop_lower_bound_formula(m, k):
    r = Fraction(1, 10**6)
    gi = inst.ktop_lower_bound(m, k, r)
    check_witness(gi)
    n = (m - 1) // k
    formula = (1 + (n - 1) * (r + 2)) / (1 + (n - 1) * r)
    assert gi.expected["distortion_formula"] == formula
    x = m - 1
    sc_x = social_cost(gi.witness, x)
    sc_first = social_cost(gi.witness, 0)
    assert sc_first / sc_x == formula
    assert min(social_cost(gi.witness, c) for c in range(m)) == sc_x


def test_ktop_lower_bound_limit_tag():
    gi = inst.ktop_lower_bound(5, 2, Fraction(1, 10**9))
    assert abs(float(gi.expected["distortion_formula"]) - float(gi.expected["limit"])) < 1e-6


def test_ktop_lower_bound_requires_divisibility():
    with pytest.raises(ConfigError):
        inst.ktop_lower_bound(6, 2, Fraction(1, 10))


@pytest.mark.parametrize("eps,expected", [(Fraction(1, 5), 4), (Fraction(2, 5), Fraction(17, 3)), (Fraction(3, 5), 9)])
def test_missing_voters_closed_form(eps, expected):
    gi = inst.missing_voters_tight(eps)
    check_witness(gi)
    assert gi.expected["distortion_a"] == 3 + 4 * eps / (1 - eps) == expected
    # all population fractions integral
    assert gi.election.n * eps % 1 == 0


def test_missing_voters_limit():
    gi = inst.missing_voters_tight(Fraction(1, 9))
    assert gi.expected["distortion_a"] == Fraction(7, 2)
    # the closed form tends to 3 as epsilon vanishes
    eps = Fraction(1, 10**9)
    assert 0 < 3 + 4 * eps / (1 - eps) - 3 < Fraction(1, 10**8)


def test_veto_instance_m4_matches_listed_profile():
    gi = inst.veto_instance(4)
    assert [ranking(gi.election, i) for i in range(4)] == [
        (1, 0, 2, 3),
        (3, 0, 1, 2),
        (2, 0, 3, 1),
        (1, 3, 2, 0),
    ]


@pytest.mark.parametrize("m", [3, 4, 5, 7, 10])
def test_veto_instance_properties(m):
    gi = inst.veto_instance(m)
    check_witness(gi)
    assert social_cost(gi.witness, 0) == m
    for b in range(1, m):
        assert social_cost(gi.witness, b) == 3 * m - 4
    e = gi.election
    g = comparison_graph(e)
    assert g.n == m and all(g.counts[0][b] == m - 2 for b in range(1, m))
    # candidate 0 tops no ballot and is alone at the bottom (level m - 1) of one
    assert plurality_counts(e)[0] == 0 and int(e.multiplicity @ (e.levels[:, 0] == m - 1)) == 1


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(1)])
def test_decisive_instance(alpha):
    gi = inst.decisive_instance(alpha)
    check_witness(gi)
    w, e = gi.witness, gi.election
    assert social_cost(w, 2) == 1
    assert social_cost(w, 1) == 2 + alpha
    for i in range(2):
        t, s = top_of(e, i), second_of(e, i)
        assert vc(w, i, t) <= alpha * vc(w, i, s)


def test_hidden_star_costs():
    gi = inst.hidden_star(5, chosen=2)
    check_witness(gi)
    assert realized_distortion(gi.witness, 2) == 1
    for c in (0, 1, 3, 4):
        assert realized_distortion(gi.witness, c) >= gi.expected["min_bad_distortion"]


@pytest.mark.parametrize("params", [{"far_ratio": 0}, {"far_ratio": Fraction(1, 2)}, {"far_ratio": -3}, {"n": 0}])
def test_hidden_star_rejects_short_far_ratio_and_no_voters(params):
    with pytest.raises(ConfigError):
        inst.hidden_star(5, 2, **params)


def test_hidden_star_decimal_far_ratio_is_the_fraction():
    decimal, fraction = inst.hidden_star(5, 2, far_ratio=2.5), inst.hidden_star(5, 2, far_ratio=Fraction(5, 2))
    assert decimal.witness.dist.tolist() == fraction.witness.dist.tolist()
    assert decimal.expected == fraction.expected == {"chosen": 2, "min_bad_distortion": Fraction(-1, 2)}


@pytest.mark.parametrize("far_ratio", [float("inf"), float("nan")])
def test_hidden_star_rejects_non_finite_far_ratio(far_ratio):
    with pytest.raises(ConfigError):
        inst.hidden_star(5, 2, far_ratio=far_ratio)


def test_hidden_star_far_ratio_one_is_a_metric():
    gi = inst.hidden_star(4, chosen=1, n=2, far_ratio=1)
    check_witness(gi)
    assert tuple(gi.witness.dist[0]) == (0, 2, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "name, params",
    [
        ("euclidean", {"n": 6, "m": 3, "dim": 1}),
        ("euclidean", {"n": 6, "m": 3, "dim": 9}),
        ("chain", {"ell": 4}),
        ("dr-lower-bound", {"m": 8}),
        ("dr-lower-bound", {"m": 4, "far_ratio": 2.5}),
        ("ktop-lower-bound", {"m": 7, "k": 3, "ratio": Fraction(1, 10)}),
        ("missing-voters-tight", {"epsilon": Fraction(1, 5)}),
        ("veto", {"m": 5}),
        ("decisive", {"alpha": Fraction(1, 3)}),
        ("hidden-star", {"m": 5, "chosen": 2}),
        ("hidden-star", {"m": 4, "chosen": 1, "far_ratio": 2.5}),
    ],
)
def test_every_sidecar_witness_round_trips(name, params, tmp_path):
    gi = inst.generate(name, params, seed=4)
    side = json.loads(json.dumps(instance_sidecar(gi)))
    w = witness_from_jsonable(side["witness"])
    assert w.exact == gi.witness.exact == (name != "euclidean")
    assert w.dist.tolist() == gi.witness.dist.tolist()
    # read back with its election file, as the CLI reads it, the witness passes the CLI's check
    (tmp_path / "x.elec").write_text(election_to_text(gi.election))
    (tmp_path / "x.json").write_text(json.dumps(side))
    loaded = cli._load_instance(argparse.Namespace(infile=str(tmp_path / "x.elec")))
    assert loaded.witness.dist.tolist() == w.dist.tolist() and check_consistent(loaded.witness, loaded.election)
    assert inst.generate("impartial-culture", {"n": 3, "m": 2}, seed=4).witness is None


def test_exact_int_table_loads_as_ints():
    # an int table was loaded as Fractions: social costs turned into Fractions and were written back as "4"
    gi = inst.veto_instance(4)
    side = json.loads(json.dumps(witness_to_jsonable(gi.witness)))
    w = witness_from_jsonable(side)
    assert [type(x) for x in w.dist.flat] == [type(x) for x in gi.witness.dist.flat] == [int] * 64
    assert type(social_cost(w, 0)) is type(social_cost(gi.witness, 0)) is int
    assert witness_to_jsonable(w) == side


def test_generate_dispatch_and_sidecar_roundtrip():
    gi = inst.generate("chain", {"ell": 3})
    side = instance_sidecar(gi)
    w2 = witness_from_jsonable(side["witness"])
    assert w2.exact and w2.dist.tolist() == gi.witness.dist.tolist()
    gi2 = inst.generate("euclidean", {"n": 5, "m": 3, "dim": 2}, seed=1)
    side2 = witness_to_jsonable(gi2.witness)
    w3 = witness_from_jsonable(side2)
    assert abs(vc(w3, 0, 0) - vc(gi2.witness, 0, 0)) < 1e-12
    # int tables stay ints in JSON; Fraction tables are written as strings
    veto = instance_sidecar(inst.generate("veto", {"m": 5}))["witness"]
    assert all(type(x) is int for row in veto["dist"] for x in row)
    ktop = inst.generate("ktop-lower-bound", {"m": 7, "k": 3, "ratio": Fraction(1, 10)})
    table = instance_sidecar(ktop)["witness"]["dist"]
    assert all(type(x) is str for row in table for x in row) and "1/10" in table[1]
    assert witness_from_jsonable(witness_to_jsonable(ktop.witness)).dist.tolist() == ktop.witness.dist.tolist()
    with pytest.raises(ConfigError):
        inst.generate("euclidean", {"n": 5, "m": 3, "dim": 2})  # seed required
    with pytest.raises(ConfigError):
        inst.generate("nope", {})
    with pytest.raises(ConfigError, match=r"needs parameters \['k', 'ratio'\]"):
        inst.generate("ktop-lower-bound", {"m": 7})
