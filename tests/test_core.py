"""Election model: ballots, consistency, counts, and the text format."""

import importlib
import itertools
import pickle
import pkgutil
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import (
    bottom,
    election_of,
    is_total,
    ktop_pairs,
    prefers,
    ranking,
    ballot_elections,
    ref_ballots,
    ref_bottom,
    ref_consistent,
    ref_counts,
    ref_ktop,
    ref_second,
    ref_top,
    relation,
    weak_order,
    weak_order_profiles,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metricvote
from metricvote import instances as inst
from metricvote import core, mechanisms, sampling
from metricvote.core import (
    TAU_METRIC,
    Election,
    MetricWitness,
    _first_appearance,
    _row_keys,
    check_consistent,
    comparison_graph,
    election_from_text,
    election_to_text,
    induce_election,
    mask_voters,
    plurality_counts,
    seeded_rng,
    social_cost,
    truncate_to_ktop,
)
from metricvote.dataio import ScoringRule, positional_score
from metricvote.errors import ConfigError, DataFormatError
from metricvote.mechanisms import build_domination_graph, conjecture_probe, ktop_rule, majority_oracle, max_matching


def small_election():
    @st.composite
    def build(draw):
        m = draw(st.integers(1, 4))
        n = draw(st.integers(0, 5))
        rankings = [draw(st.permutations(range(m))) for _ in range(n)]
        return Election.from_rankings([tuple(r) for r in rankings], m)

    return build()


@st.composite
def weak_order_text(draw):
    """(text, pair sets, top lists): ballot lines that are empty, k-top lists
    or weak orders with ``=`` ties."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 6))
    lines, prefs, ktop = [f"{n} {m}"], [], []
    for _ in range(n):
        listed = draw(st.permutations(range(m)))[: draw(st.integers(0, m))]
        cuts = draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
        groups = []
        for c, new_group in zip(listed, cuts):
            if new_group or not groups:
                groups.append([])
            groups[-1].append(c)
        omitted = [c for c in range(m) if c not in listed]
        pairs = set()
        for gi, g in enumerate(groups):
            for a in g:
                pairs.update((a, b) for h in groups[gi + 1 :] for b in h)
                pairs.update((a, c) for c in omitted)
        lines.append(draw(st.sampled_from([" > ", ">"])).join(" = ".join(map(str, g)) for g in groups))
        prefs.append(frozenset(pairs))
        ktop.append(tuple(listed) if groups and all(len(g) == 1 for g in groups) else None)
    return "\n".join(lines) + "\n", prefs, ktop


@st.composite
def listed_elections(draw):
    """(election, pair sets, annotations): top lists of lengths 0, k, m - 1
    and m, built with ``from_ktop`` or read as text, where some voters' lines
    may instead be unannotated weak orders."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    n = draw(st.integers(0, 6))
    lists = [tuple(draw(st.permutations(range(m)))[: draw(st.sampled_from((0, k, m - 1, m)))]) for _ in range(n)]
    prefs, ann, lines = [ktop_pairs(t, m) for t in lists], list(lists), [" > ".join(map(str, t)) for t in lists]
    how = draw(st.sampled_from(("from_ktop", "weak_orders", "text")))
    if how == "from_ktop":
        return Election.from_ktop(lists, m), prefs, ann
    if how == "weak_orders":
        for i in range(n):
            if draw(st.booleans()):
                prefs[i], ann[i], lines[i] = draw(weak_order(m, annotate=False))
    return election_of(m, lines), prefs, ann


@st.composite
def routed_elections(draw):
    """(election, pair sets, annotations) from one constructor (text with
    weak orders, ``from_rankings`` from a list or an array, ``from_ktop``,
    text with top lists), then maybe one transform (``restrict``,
    ``mask_voters``, ``truncate_to_ktop``)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 6))
    how = draw(st.sampled_from(("weak_orders", "rankings_list", "rankings_array", "from_ktop", "text")))
    if how == "weak_orders":
        ballots = [draw(weak_order(m)) for _ in range(n)]
        prefs, ann = [p for p, _, _ in ballots], [a for _, a, _ in ballots]
        e = election_of(m, [line for _, _, line in ballots])
    elif how.startswith("rankings"):
        ann = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
        e = Election.from_rankings(ann if how == "rankings_list" else np.array(ann, dtype=np.int64).reshape(n, m), m)
        prefs = [ktop_pairs(r, m) for r in ann]
    else:
        lists = [tuple(draw(st.permutations(range(m)))[: draw(st.integers(0, m))]) for _ in range(n)]
        text = f"{n} {m}\n" + "".join(" > ".join(map(str, t)) + "\n" for t in lists)
        e = Election.from_ktop(lists, m) if how == "from_ktop" else election_from_text(text)
        prefs, ann = [ktop_pairs(t, m) for t in lists], [t or None for t in lists]
    transform = draw(st.sampled_from(("none", "restrict", "mask", "truncate")))
    if transform == "restrict" and n:
        voters = draw(st.lists(st.integers(0, n - 1), max_size=8))
        return e.restrict(voters), [prefs[i] for i in voters], [ann[i] for i in voters]
    if transform == "mask":
        gone = draw(st.sets(st.integers(0, n - 1))) if n else set()
        prefs = [frozenset() if i in gone else p for i, p in enumerate(prefs)]
        return mask_voters(e, gone), prefs, [None if i in gone else a for i, a in enumerate(ann)]
    if transform == "truncate" and all(len(p) == m * (m - 1) // 2 and len(a or (0,) * m) == m for p, a in zip(prefs, ann)):
        k = draw(st.integers(1, m))
        lists = [ref_ktop(p, m, k) for p in prefs]
        return truncate_to_ktop(e, k), [ktop_pairs(t, m) for t in lists], lists
    return e, prefs, ann


def canonical_annotation(ann, p, m):
    """The annotation a voter should carry: its list, none for an empty
    list, and the full ranking for an unannotated total order."""
    if ann:
        return tuple(ann)
    if len(p) == m * (m - 1) // 2:
        return tuple(sorted(range(m), key=lambda c: sum((d, c) in p for d in range(m))))
    return None


def check_arrays(e, prefs, ann):
    """``e``'s arrays against the pair sets and annotations alone: ballots
    numbered by first appearance, levels counting the candidates stated
    above each one, and the canonical annotations."""
    m = e.m
    assert e.n == len(prefs)
    assert e.ballot_of.tolist() == ref_ballots(prefs) and len(e.levels) == len(set(prefs))
    assert e.levels[e.ballot_of].tolist() == [[sum((d, c) in p for d in range(m)) for c in range(m)] for p in prefs]
    assert e.ktop == tuple(canonical_annotation(a, p, m) for a, p in zip(ann, prefs))


class TestElection:
    @pytest.mark.parametrize("args", [(), (2, 2, [frozenset()] * 2)])
    def test_direct_construction_is_a_type_error(self, args):
        with pytest.raises(TypeError, match="from_rankings, from_ktop or election_from_text"):
            Election(*args)

    def test_total_orders_get_canonical_annotation(self):
        # the total order 2 > 1 > 0 written as text is read as its list
        e = election_of(3, ["2 > 1 > 0"])
        assert e.ktop[0] == (2, 1, 0)
        assert ranking(e, 0) == (2, 1, 0)
        # at m = 1 every ballot is the total order (0,), a silent one included
        for one in (election_of(1, [""]), Election.from_ktop([()], 1), mask_voters(Election.from_rankings([(0,)], 1), [0])):
            assert one.ktop[0] == (0,) and ranking(one, 0) == (0,)

    def test_ktop_invariant_pairs(self):
        # listed candidates beat each other in order and all omitted ones
        e = Election.from_ktop([(2, 0)], 4)
        assert e.prefs[0] == {(2, 0), (2, 1), (2, 3), (0, 1), (0, 3)}
        assert e.top(0) == 2 and e.second(0) == 0

    def test_top_and_bottom_partial(self):
        e = election_of(4, ["0 = 1 > 2 = 3"])
        assert e.prefs[0] == {(0, 2), (0, 3), (1, 2), (1, 3)}
        assert e.top(0) is None and bottom(e, 0) is None

    def test_truncate_to_ktop(self):
        e = Election.from_rankings([(2, 0, 1)], 3)
        t = truncate_to_ktop(e, 1)
        assert t.ktop[0] == (2,)
        assert t.prefs[0] == {(2, 0), (2, 1)}


class TestBallotTensor:
    """Everything read from the levels against references computed from the
    pair sets alone (``conftest.ref_*``)."""

    @given(weak_order_profiles(), st.data())
    @settings(max_examples=80, deadline=None)
    @example((3, (frozenset({(0, 1), (2, 1)}),) * 2 + (frozenset(),), (None,) * 3, ("0 = 2 > 1",) * 2 + ("",)), None)
    def test_matches_per_voter_reference(self, profile, data):
        m, prefs, ann, lines = profile
        n = len(prefs)
        e = election_of(m, lines)
        self.check(e, prefs, ann)
        voters = [0, n - 1, 0] if data is None else data.draw(st.lists(st.integers(0, n - 1), max_size=7))
        self.check(e.restrict(voters), [prefs[i] for i in voters], [ann[i] for i in voters])
        gone = set(range(0, n, 2))
        self.check(
            mask_voters(e, gone),
            [frozenset() if i in gone else p for i, p in enumerate(prefs)],
            [None if i in gone else a for i, a in enumerate(ann)],
        )
        short = [i for i, (p, a) in enumerate(zip(prefs, ann)) if len(p) != m * (m - 1) // 2 or len(a or (0,) * m) != m]
        for k in range(1, m + 1):
            if short:
                with pytest.raises(DataFormatError, match=f"^voter {short[0]} has no total order to truncate$"):
                    truncate_to_ktop(e, k)
            else:
                lists = [ref_ktop(p, m, k) for p in prefs]
                self.check(truncate_to_ktop(e, k), [ktop_pairs(t, m) for t in lists], lists)

    @staticmethod
    def check(e, prefs, ann):
        n, m = e.n, e.m
        total = [len(p) == m * (m - 1) // 2 for p in prefs]
        assert e.prefs == tuple(prefs)
        lengths = [len(a) if a else m if t else 0 for a, t in zip(ann, total)]
        assert e.ktop == tuple(ref_ktop(p, m, k) for p, k in zip(prefs, lengths))
        tops = [ref_top(p, m) for p in prefs]
        bottoms = [ref_bottom(p, m) for p in prefs]
        for i, p in enumerate(prefs):
            assert e.levels[e.ballot_of[i]].tolist() == [sum((d, c) in p for d in range(m)) for c in range(m)]
            assert (e.top(i), e.second(i), bottom(e, i)) == (tops[i], ref_second(p, m), bottoms[i])
            assert is_total(e, i) == total[i]
        assert e.all_total == all(total)

        counts = ref_counts(prefs, m)
        assert e.pair_counts.tolist() == counts
        if n:
            assert comparison_graph(e).counts == tuple(map(tuple, counts))
        assert plurality_counts(e) == tuple(tops.count(c) for c in range(m))
        assert veto_counts(e) == [bottoms.count(c) for c in range(m)]
        for a, b in itertools.permutations(range(m), 2):
            na, nb = counts[a][b], counts[b][a]
            assert majority_oracle(e, a, b) == (b if na > nb else a if nb > na else min(a, b))
        for focal in range(m):
            g = build_domination_graph(e, focal, (1,) * m)
            for i, p in enumerate(prefs):
                row = g.neighbourhoods[g.ballot_of[i]]
                assert set(np.flatnonzero(row).tolist()) == {k for k in range(m) if k == focal or (focal, k) in p}

        check_arrays(e, prefs, ann)
        back = pickle.loads(pickle.dumps(e))
        rebuilt = election_from_text(election_to_text(e))
        assert back == e == rebuilt and hash(back) == hash(e) == hash(rebuilt)
        assert not back.levels.flags.writeable


class TestListedAnnotation:
    """``listed`` and everything read from it against per-voter reference lists."""

    @given(listed_elections(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_voter_reference(self, case, data):
        e, prefs, ann = case
        self.check(e, prefs, ann)
        n, m = e.n, e.m
        voters = data.draw(st.lists(st.integers(0, n - 1), max_size=7)) if n else []
        self.check(e.restrict(voters), [prefs[i] for i in voters], [ann[i] for i in voters])
        gone = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
        self.check(
            mask_voters(e, gone),
            [frozenset() if i in gone else p for i, p in enumerate(prefs)],
            [None if i in gone else a for i, a in enumerate(ann)],
        )
        ref = [canonical_annotation(a, p, m) for a, p in zip(ann, prefs)]
        short = [i for i, a in enumerate(ref) if a is None or len(a) != m]
        for k in range(m + 2):
            if not 1 <= k <= m:
                with pytest.raises(DataFormatError, match=re.escape(f"k must be in [1, {m}], got {k}")):
                    truncate_to_ktop(e, k)
            elif short:
                with pytest.raises(DataFormatError, match=f"^voter {short[0]} has no total order to truncate$"):
                    truncate_to_ktop(e, k)
            else:
                self.check(truncate_to_ktop(e, k), [ktop_pairs(a[:k], m) for a in ref], [a[:k] for a in ref])

    @staticmethod
    def check(e, prefs, ann):
        n, m = e.n, e.m
        ref = [canonical_annotation(a, p, m) for a, p in zip(ann, prefs)]
        assert e.prefs == tuple(prefs)
        assert e.ktop == tuple(ref)
        assert e.listed.tolist() == [len(a) if a else 0 for a in ref]
        assert [ranking(e, i) for i in range(n)] == [a if a and len(a) == m else None for a in ref]

        weights = (5, 3, 2)
        unlisted = [i for i, (a, p) in enumerate(zip(ref, prefs)) if a is None and p]
        if unlisted:
            with pytest.raises(DataFormatError, match=f"^voter {unlisted[0]} has no ranked prefix to score$"):
                positional_score(e, ScoringRule(weights))
        else:
            totals = [0] * m
            for a in ref:
                for w, c in zip(weights, a or ()):
                    totals[c] += w
            assert positional_score(e, ScoringRule(weights)) == (tuple(totals), totals.index(max(totals)))

        for k in range(m + 2):
            other = [i for i, a in enumerate(ref) if len(a or ()) != k]
            for rule in (ktop_rule, conjecture_probe):
                if not 1 <= k <= m:
                    with pytest.raises(ConfigError, match=re.escape(f"k must be in [1, {m}], got {k}")):
                        rule(e, k)
                elif other:
                    with pytest.raises(ConfigError, match=f"^voter {other[0]} does not carry an exactly-{k}-top"):
                        rule(e, k)
                elif n:
                    rule(e, k)

        check_arrays(e, prefs, ann)
        back = pickle.loads(pickle.dumps(e))
        rebuilt = election_from_text(election_to_text(e))
        assert back == e == rebuilt and hash(back) == hash(e) == hash(rebuilt)
        assert not back.listed.flags.writeable

    def test_list_length_is_part_of_the_election(self):
        # lists of m - 1 and m candidates state the same pairs
        short, full = Election.from_ktop([(0, 1)], 3), Election.from_ktop([(0, 1, 2)], 3)
        assert np.array_equal(relation(short), relation(full))
        assert short != full and short.ktop == ((0, 1),) and full.ktop == ((0, 1, 2),)
        assert ranking(short, 0) is None and ranking(full, 0) == (0, 1, 2)


class TestPerBallotFields:
    """Top, second and totality, computed on first use, against references
    read from the pair sets (``conftest.ref_*``)."""

    @given(routed_elections())
    @settings(max_examples=150, deadline=None)
    def test_match_reference(self, case):
        e, prefs, ann = case
        unread = pickle.loads(pickle.dumps(e))
        for election in (e, unread, pickle.loads(pickle.dumps(e))):
            self.check(election, prefs, ann)

    @staticmethod
    def check(e, prefs, ann):
        m = e.m
        total = [len(p) == m * (m - 1) // 2 for p in prefs]
        tops = [ref_top(p, m) for p in prefs]
        assert e.prefs == tuple(prefs)
        assert e.listed.tolist() == [len(a) if a else m if t else 0 for a, t in zip(ann, total)]
        assert [(e.top(i), e.second(i)) for i in range(e.n)] == [(t, ref_second(p, m)) for t, p in zip(tops, prefs)]
        assert e.all_total == all(total)
        assert plurality_counts(e) == tuple(tops.count(c) for c in range(m))

    def test_unannotated_total_orders_are_listed_in_full(self):
        # at m = 1 the only ballot is total: stored without lists, every voter is listed in full
        e = Election._of(3, 1, np.array([[0]]), np.zeros(3, dtype=np.intp), [0, 1, 0])
        assert e.listed.tolist() == [1, 1, 1]
        assert e.ktop == ((0,),) * 3
        full = Election.from_rankings([(0,)] * 3, 1)
        assert e == full and hash(e) == hash(full) and e == election_of(1, ["", "0", ""])

    def test_silent_voters_leave_totality_unread(self):
        # at m >= 2 a ballot without a list is never total, so building an election does not ask
        e = Election.from_rankings([(0, 1, 2), (2, 1, 0), (1, 0, 2)], 3)
        for built in (mask_voters(e, [1]), election_of(3, ["", "0 = 1 > 2", "2 > 0"]), truncate_to_ktop(e, 1)):
            assert "_total" not in vars(built)
        assert mask_voters(e, [1]).listed.tolist() == [3, 0, 3]

    def test_wait_for_first_use(self):
        fields = {"_top", "_second", "_total"}
        e = Election.from_rankings([(0, 1, 2), (2, 1, 0), (0, 1, 2)], 3)
        for built in (e, e.restrict([1, 0]), truncate_to_ktop(e, 2)):
            assert not fields & set(vars(built))
        assert e.top(1) == 2 and set(vars(e)) & fields == {"_top"}


class TestBallotConstruction:
    def test_from_rankings_equals_pair_sets(self):
        rankings = [(2, 0, 1, 3), (0, 1, 2, 3), (2, 0, 1, 3), (3, 2, 1, 0)]
        e = Election.from_rankings(rankings, 4)
        check_arrays(e, [ktop_pairs(r, 4) for r in rankings], rankings)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("m", [3, 23])
    def test_from_rankings_array_equals_list(self, dtype, m):
        # at m = 3: (2, 0, 1), (0, 1, 2), (2, 0, 1), (1, 2, 0); at m = 23 the level sums of a
        # total order, m (m - 1) / 2 = 253, would wrap if m were read as a uint8
        rankings = [tuple(np.roll(np.arange(m), shift).tolist()) for shift in (1, 0, 1, 2)]
        e = Election.from_rankings(np.array(rankings, dtype=dtype), m)
        assert e == Election.from_rankings(rankings, m)
        assert e.all_total
        assert Election.from_rankings(np.zeros((0, m), dtype=dtype), m) == Election.from_rankings([], m)

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_from_rankings_rows_of_any_type(self, m, data):
        rows = []
        for _ in range(data.draw(st.integers(0, 40))):
            perm = data.draw(st.permutations(range(m)))
            form = data.draw(st.sampled_from((tuple, list, np.int32, np.uint8, range)))
            if form is range:
                rows.append(range(m) if data.draw(st.booleans()) else range(m - 1, -1, -1))
            elif form in (tuple, list):
                rows.append(form(perm))
            else:
                rows.append(np.array(perm, dtype=form))
        array = np.array([list(r) for r in rows], dtype=np.int64).reshape(len(rows), m)
        assert Election.from_rankings(rows, m) == Election.from_rankings(array, m)

    @pytest.mark.parametrize(
        "rankings, m, message",
        [
            ([(0, 1, 2), (0, 1)], 3, "voter 1: ranking must list all 3 candidates"),
            ([(0, 1), (0, 1, 2)], 2, "voter 1: ranking must list all 2 candidates"),
            ([(1, 0), (0, 1)], 3, "voter 0: ranking must list all 3 candidates"),
            ([(0, 1, 2), (0, 1, 2)], 2, "voter 0: ranking must list all 2 candidates"),
            ([(0, 1, 2), (0, 1, 5)], 3, "voter 1: k-top entry out of range"),
            ([(0, 1, 2), (0, -1, 1)], 3, "voter 1: k-top entry out of range"),
            ([(0, 1, 2), (0, 0, 1)], 3, "k-top list contains duplicates"),
            ([(0, 1, 2), (2, 2, 2)], 3, "k-top list contains duplicates"),
        ],
    )
    def test_from_rankings_messages(self, rankings, m, message):
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            Election.from_rankings(rankings, m)
        if len({len(r) for r in rankings}) == 1:
            with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
                Election.from_rankings(np.array(rankings), m)

    @pytest.mark.parametrize(
        "rankings, m",
        [
            ([[0, 1.5, 2]], 3),
            ([(0.0, 1.0)], 2),
            ([[0, 1, 2], [2, 1.0, 0]], 3),
            ([["0", "1", "2"]], 3),
            (["01", "10"], 2),
            ([b"\x00\x01", b"\x01\x00"], 2),
            (np.array([[0.0, 1.0, 2.0]]), 3),
            ([0, 1, 2], 3),
            ([[True, False], [False, True]], 2),
            ([[None, 0], [0, None]], 2),
            ([[0, 1], [1, "0"]], 2),
            ([[0, 1], 1], 2),
            ([{0, 1}, {0, 1}], 2),
        ],
    )
    def test_from_rankings_rejects_non_integer_entries(self, rankings, m):
        # floats were truncated and strings read digit by digit
        with pytest.raises(DataFormatError, match="^rankings must be rows of integer candidate ids$"):
            Election.from_rankings(rankings, m)

    @pytest.mark.parametrize("rows", [[[True, False], [1, 0]], [[1, 0], [True, False]], [(1, 0), [1, False]]])
    def test_from_rankings_reads_bools_mixed_with_ints_as_ints(self, rows):
        # np.array reads rows that mix bools and ints as ints; only all-bool rows are rejected
        e = Election.from_rankings(rows, 2)
        assert e.levels.tolist() == [[1, 0]] and e.ballot_of.tolist() == [0, 0]
        assert e == Election.from_rankings([[1, 0], [1, 0]], 2)

    def test_from_ktop_equals_pair_sets(self):
        # the 3-top and the 4-top list (0, 1, 2[, 3]) state the same pairs
        lists = [(2, 0), (1,), (2, 0), (), (0, 1, 2), (0, 1, 2, 3), (3,)]
        e = Election.from_ktop(lists, 4)
        check_arrays(e, [ktop_pairs(t, 4) for t in lists], lists)
        assert e.ballot_of.tolist() == [0, 1, 0, 2, 3, 3, 4]
        assert e.multiplicity.tolist() == [2, 1, 1, 2, 1]

    def test_truncate_equals_pair_sets(self):
        e = inst.impartial_culture(30, 5, seed=2).election
        for k in range(1, 6):
            lists = [ranking(e, i)[:k] for i in range(e.n)]
            check_arrays(truncate_to_ktop(e, k), [ktop_pairs(t, e.m) for t in lists], lists)

    def test_first_appearance_order(self):
        p, q = "1 > 0 = 2", "0 = 1 > 2"
        e = election_of(3, [p, "", p, q, ""])
        assert e.ballot_of.tolist() == [0, 1, 0, 2, 1]
        assert e.multiplicity.tolist() == [2, 2, 1]
        assert [sorted(map(tuple, np.argwhere(b).tolist())) for b in relation(e)] == [[(1, 0), (1, 2)], [], [(0, 2), (1, 2)]]
        assert e.levels.tolist() == [[1, 0, 1], [0, 0, 0], [0, 0, 2]]
        assert e.restrict([3, 0, 3]).ballot_of.tolist() == [0, 1, 0]
        assert mask_voters(e, [0, 2]).ballot_of.tolist() == [0, 0, 0, 1, 0]
        with pytest.raises(ValueError):
            e.levels[0, 0] = 0

    @pytest.mark.parametrize("voters", [[5], [-1], [0, 2], [1, -3]])
    def test_voter_ids_out_of_range(self, voters):
        e = Election.from_rankings([(0, 1), (1, 0)], 2)
        with pytest.raises(DataFormatError, match="out of range"):
            mask_voters(e, voters)
        with pytest.raises(DataFormatError, match="out of range"):
            e.restrict(voters)
        assert mask_voters(e, [1]) != e and e.restrict([1, 0, 1]).n == 3

    @given(st.integers(1, 3), st.integers(0, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_appearance_groups_rows(self, pool, n, data):
        # up to 70 columns of values up to 15: several packed blocks per row
        width = data.draw(st.integers(0, 70))
        high = data.draw(st.sampled_from((1, 3, 15)))
        rows = st.lists(st.integers(0, high), min_size=width, max_size=width)
        distinct = data.draw(st.lists(rows, min_size=pool, max_size=pool))
        keys = np.array([distinct[data.draw(st.integers(0, pool - 1))] for _ in range(n)], dtype=np.int64)
        keys = keys.reshape(n, width).astype(bool if high == 1 else np.uint8)
        number: dict[tuple, int] = {}
        group = [number.setdefault(tuple(r), len(number)) for r in keys.tolist()]
        first, got = _first_appearance(keys)
        assert got.tolist() == group
        assert first.tolist() == [group.index(g) for g in range(len(number))]

    @pytest.mark.parametrize("dtype, high", [(bool, 1), (np.uint8, 3), (np.uint8, 15), (np.uint8, 255)])
    @pytest.mark.parametrize("n, width", [(0, 4), (1, 1), (7, 9), (300, 20), (2000, 70)])
    def test_row_keys_equal_python_packing(self, dtype, high, n, width):
        # each block packs its first column into the lowest bits, on top of the rank of the
        # key so far among its distinct values; the widest rows span several blocks
        rows = np.random.default_rng(n * width + high).integers(0, high + 1, (n, width)).astype(dtype)
        bits = max(int(rows.max(initial=0)).bit_length(), 1)
        per = max((63 - n.bit_length()) // bits, 1)
        keys = [0] * n
        for lo in range(0, width, per):
            if lo:
                rank = {k: r for r, k in enumerate(sorted(set(keys)))}
                keys = [rank[k] for k in keys]
            for i, row in enumerate(rows[:, lo : lo + per].tolist()):
                keys[i] = (keys[i] << (bits * len(row))) | sum(int(v) << (bits * c) for c, v in enumerate(row))
        got = _row_keys(rows)
        assert got.dtype == np.int64 and got.tolist() == keys

    @pytest.mark.parametrize("dtype, high", [(bool, 1), (np.uint8, 15)])
    def test_first_appearance_wide_rows(self, dtype, high):
        # rows differing in one column each, every column in turn, across many packed blocks
        width = 130
        rows = np.vstack([np.zeros((1, width)), high * np.eye(width)]).astype(dtype)
        first, group = _first_appearance(np.vstack([rows, rows[::-1]]))
        assert first.tolist() == list(range(width + 1))
        assert group.tolist() == list(range(width + 1)) + list(range(width, -1, -1))

    def test_pickle_round_trip(self):
        e = truncate_to_ktop(inst.impartial_culture(12, 4, seed=5).election, 2)
        back = pickle.loads(pickle.dumps(e))
        assert back == e and hash(back) == hash(e)
        assert not back.levels.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Election.from_rankings(np.array([[0, -1]]), 2),
            lambda: election_from_text("1 3\n0 = -1\n"),
            lambda: Election.from_rankings([(0, -1, 1)], 3),
            lambda: Election.from_ktop([(0,), (2, -1)], 3),
            lambda: election_from_text("1 3\n0 > -1\n"),
        ],
    )
    def test_negative_candidate_rejected(self, build):
        with pytest.raises(DataFormatError):
            build()


def large_n_sequence(rankings, m: int) -> list:
    """The library calls of the benchmark's ``ordinal-large-n`` workload, at k = 3."""
    e = Election.from_rankings(rankings, m)
    top = truncate_to_ktop(e, 3)
    return [
        comparison_graph(e).counts,
        mechanisms.copeland(e),
        mechanisms.run_dr(e)[0],
        mechanisms.ktop_rule(top, 3),
        mechanisms.balanced_rule(top, Fraction(2, 5)),
        mechanisms.plurality_matching(e),
        [sampling.sampled_copeland(e, 1.0, 0.05, seed) for seed in range(3)],
        [sampling.sampled_plurality_matching(e, 2.0, 0.05, seed) for seed in range(3)],
    ]


class TestLevelsOnly:
    def test_large_n_sequence_builds_no_relation(self, monkeypatch):
        # the (u, m, m) relation is for the LP, consistency checks and the pair-set view only
        rankings = np.random.default_rng(7).random((600, 5)).argsort(axis=1)
        expected = large_n_sequence(rankings.tolist(), 5)

        def refuse(levels):
            raise AssertionError("built the (u, m, m) relation")

        patched = []
        for info in pkgutil.iter_modules(metricvote.__path__):
            module = importlib.import_module(f"metricvote.{info.name}")
            if getattr(module, "_relation", None) is not None:
                monkeypatch.setattr(module, "_relation", refuse)
                patched.append(info.name)
        assert patched == ["core"]  # lp reads its covering pairs from core's Election._covering
        assert large_n_sequence(rankings, 5) == large_n_sequence(rankings.tolist(), 5) == expected


@st.composite
def block_cases(draw):
    """(m, rankings, pair sets, ballot lines, capacities): total orders for
    ``from_rankings`` and weak orders cast with repetition, silent ballots
    included, with up to 41 voters and 25 distinct ballots."""
    m = draw(st.integers(2, 4))
    rankings = draw(st.lists(st.permutations(range(m)), max_size=40))
    pool = [draw(weak_order(m)) for _ in range(draw(st.integers(0, 24)))]
    if draw(st.booleans()):
        pool.append((frozenset(), None, ""))
    # every ballot of the pool is cast, so the matching tables, whose blocks hold at
    # least 2**m ballots, see more than one block too
    repeats = draw(st.lists(st.integers(0, len(pool) - 1), max_size=16)) if pool else []
    voters = draw(st.permutations(list(range(len(pool))) + repeats))
    caps = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=m, max_size=m))
    return m, rankings, tuple(pool[i][0] for i in voters), tuple(pool[i][2] for i in voters), caps


class TestBlocks:
    @given(block_cases(), st.sampled_from([1, 3, 5, 7, 9, 11]))
    @settings(max_examples=150, deadline=None)
    @example((3, [(0, 1, 2), (2, 1, 0), (0, 1, 2)], (), (), [1, 1, 1]), 7)
    @example((2, [(1, 0)], (frozenset(),), ("",), [1, 0]), 3)
    def test_blocked_results_equal_whole_table_references(self, case, block):
        # blocks of block // m rows (at least 2**m in the matching tables): u = 0, u = 1,
        # silent and repeated ballots, and u past or between block boundaries
        m, rankings, prefs, lines, caps = case

        def results():
            ranked = Election.from_rankings(rankings, m)
            e = election_of(m, lines)
            return ranked, ranked.pair_counts, e.pair_counts, mechanisms._matched_by_cut(e, caps)

        whole = results()
        with mock.patch.object(core, "_BLOCK", block):
            ranked, ranked_counts, counts, matched = results()
        assert ranked == whole[0]
        check_arrays(ranked, [ktop_pairs(r, m) for r in rankings], rankings)
        assert ranked.levels.tolist() == whole[0].levels.tolist()
        assert ranked.ballot_of.tolist() == whole[0].ballot_of.tolist()
        assert ranked_counts.tolist() == whole[1].tolist() == ref_counts([ktop_pairs(r, m) for r in rankings], m)
        assert counts.tolist() == whole[2].tolist() == ref_counts(prefs, m)
        e = election_of(m, lines)
        sizes = [max_matching(build_domination_graph(e, j, caps)).size for j in range(m)]
        assert matched.tolist() == whole[3].tolist() == sizes

    def test_memory_of_large_n_stages(self):
        # NumPy reports its buffers to tracemalloc, so these peaks are deterministic.  With
        # whole-table int64 and float64 temporaries the three stages peak at 9.44, 5.12 and
        # 3.24 MB here; built a block at a time, at 2.90, 0.68 and 1.28 MB
        rankings = np.random.default_rng(18).random((50_000, 10)).argsort(axis=1).tolist()

        def peak(stage):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = stage()
            return out, (tracemalloc.get_traced_memory()[1] - base) / 2**20

        tracemalloc.start()
        try:
            e, built = peak(lambda: Election.from_rankings(rankings, 10))
            _, counted = peak(lambda: e.pair_counts)
            _, matched = peak(lambda: mechanisms.plurality_matching(e))
        finally:
            tracemalloc.stop()
        assert built < 5.0 and counted < 2.0 and matched < 2.0, (built, counted, matched)


class TestConsistencyAndCost:
    def test_euclidean_induced_consistent(self):
        gi = inst.euclidean(12, 4, 2, seed=3)
        assert check_consistent(gi.witness, gi.election)

    def test_violated_pair(self):
        e = Election.from_rankings([(0, 1)], 2)
        w = MetricWitness(1, 2, ((0, 2, 1), (2, 0, 3), (1, 3, 0)))
        assert not check_consistent(w, e)

    def test_empty_prefs_vacuous(self):
        e = election_of(2, [""])
        w = MetricWitness(1, 2, ((0, 2, 1), (2, 0, 3), (1, 3, 0)))
        assert check_consistent(w, e)

    def test_check_consistent_matches_reference_on_witnesses(self):
        for gi in (
            inst.chain(5),
            inst.dr_lower_bound(8),
            inst.ktop_lower_bound(7, 3, Fraction(1, 10)),
            inst.missing_voters_tight(Fraction(1, 5)),
            inst.veto_instance(5),
            inst.decisive_instance(Fraction(1, 2)),
            inst.hidden_star(5, 2),
            inst.euclidean(12, 4, 2, seed=3),
            inst.euclidean(9, 5, 9, seed=8),
        ):
            e, w = gi.election, gi.witness
            assert check_consistent(w, e) and ref_consistent(w, e), gi.generator
            # move a stated winner a just past its nearest stated loser b
            i = next(i for i, p in enumerate(e.prefs) if p)
            a = min(p for p, _ in e.prefs[i])
            b = min((q for p, q in e.prefs[i] if p == a), key=lambda q: w.vc(i, q))
            steps = [(Fraction(1, 10**12), False)] if w.exact else [(1e-6, False), (1e-11, True)]
            for step, kept in steps:
                table = w.dist.copy()
                table[i, e.n + a] = table[e.n + a, i] = w.vc(i, b) + step * max(1, w.vc(i, b))
                moved = MetricWitness(e.n, e.m, table)
                assert moved.exact == w.exact
                assert check_consistent(moved, e) == ref_consistent(moved, e) == kept, (gi.generator, step)

    @given(ballot_elections(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_check_consistent_matches_reference_on_random_tables(self, e, seed):
        rng = np.random.default_rng(seed)
        size = e.n + e.m
        ints = rng.integers(0, 3, size=(size, size))
        # small ints tie often; the float table moves each entry by up to twice the slack
        exact = MetricWitness(e.n, e.m, ints.astype(object))
        noisy = MetricWitness(e.n, e.m, ints + rng.uniform(-4e-9, 4e-9, size=(size, size)))
        assert exact.exact and not noisy.exact
        for w in (exact, noisy):
            assert check_consistent(w, e) == ref_consistent(w, e)

    def test_colocated_zero_cost(self):
        w = MetricWitness(2, 1, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        assert social_cost(w, 0) == 0

    def test_chain_costs(self):
        gi = inst.chain(5)
        assert [social_cost(gi.witness, c) for c in range(5)] == [1, 3, 5, 7, 9]

    def test_veto_costs(self):
        gi = inst.veto_instance(4)
        assert social_cost(gi.witness, 0) == 4
        assert social_cost(gi.witness, 1) == 8


class TestSeededRng:
    """Every seeded draw goes through ``seeded_rng``: PCG64 seeded through
    ``SeedSequence``, so recorded instances and draws stay reproducible."""

    @pytest.mark.parametrize("seed", [0, 7, 2**40, (7, 1), [3, 4, 5], np.random.SeedSequence((9, 2))])
    def test_draws_equal_pcg64_through_seed_sequence(self, seed):
        entropy = seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
        reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        rng = seeded_rng(seed)
        assert isinstance(rng.bit_generator, np.random.PCG64)
        assert rng.random(4).tolist() == reference.random(4).tolist()
        assert rng.permutation(9).tolist() == reference.permutation(9).tolist()
        assert rng.choice(50, size=6, replace=False).tolist() == reference.choice(50, size=6, replace=False).tolist()


class TestMetricWitnessConstructors:
    def test_from_edges_path_values_and_types(self):
        # voter 0, candidates at points 1..3 along a path of lengths 1/2, 1, 1/3
        w = MetricWitness.from_edges(1, 3, [(0, 1, Fraction(1, 2)), (1, 2, 1), (2, 3, Fraction(1, 3))])
        assert tuple(w.dist[0]) == (0, Fraction(1, 2), Fraction(3, 2), Fraction(11, 6))
        assert tuple(w.dist[3]) == (Fraction(11, 6), Fraction(4, 3), Fraction(1, 3), 0)
        assert all(type(x) is Fraction for row in w.dist for x in row)
        w.validate_metric()

    def test_from_edges_int_lengths_give_ints(self):
        w = MetricWitness.from_edges(2, 1, [(0, 2, 1), (1, 2, 3)])
        assert w.dist.tolist() == [[0, 4, 1], [4, 0, 3], [1, 3, 0]]
        assert all(type(x) is int for row in w.dist for x in row)

    def test_from_edges_zero_length_edge_merges_points(self):
        w = MetricWitness.from_edges(1, 2, [(0, 1, 0), (1, 2, Fraction(5, 2))])
        assert tuple(w.dist[0]) == (0, 0, Fraction(5, 2))
        assert social_cost(w, 0) == 0

    @pytest.mark.parametrize("order", [1, -1])
    def test_from_edges_repeated_edge_keeps_shorter(self, order):
        edges = [(0, 1, 5), (1, 0, 2)][::order] + [(1, 2, 1)]
        w = MetricWitness.from_edges(1, 2, edges)
        assert tuple(w.dist[0]) == (0, 2, 3)

    def test_from_edges_rejects_disconnected_graph(self):
        with pytest.raises(DataFormatError, match="not connected"):
            MetricWitness.from_edges(2, 2, [(0, 2, 1), (1, 3, 1)])

    @pytest.mark.parametrize("length", [-1, Fraction(-1, 2), 0.5])
    def test_from_edges_rejects_bad_lengths(self, length):
        with pytest.raises(DataFormatError, match="edge lengths"):
            MetricWitness.from_edges(1, 1, [(0, 1, length)])

    def test_from_points_float_table_equals_cdist(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(11)
        for dim in range(1, 17):
            voters = rng.normal(size=(9, dim)) * 10.0 ** rng.integers(-3, 4, size=dim)
            cands = rng.uniform(-3, 3, size=(4, dim))
            table = MetricWitness.from_points(list(voters), list(cands)).dist
            points = np.vstack([voters, cands])
            assert np.array_equal(table, cdist(points, points)), dim

    @pytest.mark.parametrize("voters", [[(0, 1)], [(0.0, 1.0)]])
    def test_from_points_rejects_mixed_dimensions(self, voters):
        with pytest.raises(DataFormatError, match="same number of coordinates"):
            MetricWitness.from_points(voters, [(1,)])

    def test_from_points_exact_input_respects_norm(self):
        voters, cands = [(0, 0)], [(3, 4)]
        euclidean = MetricWitness.from_points(voters, cands)
        assert not euclidean.exact and euclidean.vc(0, 0) == 5.0
        assert MetricWitness.from_points([(0.0, 0.0)], [(3.0, 4.0)]).vc(0, 0) == 5.0
        # 1-D exact points stay exact
        assert MetricWitness.from_points([Fraction(1, 2)], [Fraction(2)]).vc(0, 0) == Fraction(3, 2)


class TestMetricWitnessTable:
    def test_exact_entries_give_a_read_only_object_table(self):
        w = MetricWitness(1, 1, ((0, Fraction(1, 2)), (Fraction(1, 2), 0)))
        assert w.exact and w.dist.dtype == object and not w.dist.flags.writeable
        assert [type(x) for x in w.dist.flat] == [int, Fraction, Fraction, int]

    @pytest.mark.parametrize("table", [((0, 1.5), (1.5, 0)), ((0, 1), (1, 0.0)), ((0, Fraction(1, 2)), (0.5, 0))])
    def test_mixed_nested_tuple_gives_a_read_only_float_table(self, table):
        w = MetricWitness(1, 1, table)
        assert not w.exact and w.dist.dtype == np.float64 and not w.dist.flags.writeable
        assert w.dist.tolist() == [[float(x) for x in row] for row in table]

    def test_float_array_is_kept_without_a_copy(self):
        table = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert MetricWitness(1, 1, table).dist is table

    def test_wrong_shape_is_rejected(self):
        for table in (((0, 1), (1,)), ((0, 1, 2),) * 3, np.zeros((3, 3))):
            with pytest.raises(DataFormatError, match="2x2"):
                MetricWitness(1, 1, table)

    @pytest.mark.parametrize("spot", [(0, 2), (0, 0), (1, 2, "one way")])
    def test_validate_metric_exact_has_no_slack(self, spot):
        # points 0, 1 and 2 on a line: every entry is exact and the triangle 0-1-2 is tight
        table = MetricWitness.from_points([0], [1, 2]).dist.copy()
        table[spot[0], spot[1]] += Fraction(1, 10**12)
        if len(spot) == 2:
            table[spot[1], spot[0]] = table[spot[0], spot[1]]
        with pytest.raises(DataFormatError):
            MetricWitness(1, 2, table).validate_metric()
        # in floats the same table is within TAU_METRIC
        MetricWitness(1, 2, table.astype(np.float64)).validate_metric()

    def test_validate_metric_float_slack_is_tau_metric(self):
        # slack is TAU_METRIC times the largest entry, here 2
        for off, ok in ((TAU_METRIC, True), (3 * TAU_METRIC, False)):
            table = MetricWitness.from_points([0.0], [1.0, 2.0]).dist.copy()
            table[0, 2] = table[2, 0] = 2 + 2 * off
            w = MetricWitness(1, 2, table)
            if ok:
                w.validate_metric()
            else:
                with pytest.raises(DataFormatError, match="triangle"):
                    w.validate_metric()

    def test_validate_metric_checks_large_exact_tables_in_floats(self):
        # 81 points: past the exact check's size, so a 1e-12 excess passes
        table = MetricWitness.from_points(list(range(79)), [79, 80]).dist.copy()
        table[0, 80] = table[80, 0] = 80 + Fraction(1, 10**12)
        MetricWitness(79, 2, table.copy()).validate_metric()
        table[0, 80] = table[80, 0] = 81
        with pytest.raises(DataFormatError, match="triangle"):
            MetricWitness(79, 2, table).validate_metric()


class TestComparisonGraph:
    def test_unanimous(self):
        e = Election.from_rankings([(0, 1)] * 3, 2)
        g = comparison_graph(e)
        assert g.n == 3 and g.counts == ((0, 3), (0, 0))

    def test_partial_support(self):
        e = election_of(2, ["0 > 1", ""])
        g = comparison_graph(e)
        assert g.n == 2 and g.counts == ((0, 1), (0, 0))

    @given(small_election())
    @settings(max_examples=40)
    def test_total_orders_complement(self, e):
        if e.n == 0:
            return
        g = comparison_graph(e)
        for a in range(e.m):
            for b in range(a + 1, e.m):
                assert g.counts[a][b] + g.counts[b][a] == g.n

    def test_pair_counts_cached_and_read_only(self):
        e = Election.from_rankings([(0, 1, 2), (2, 0, 1), (0, 1, 2)], 3)
        counts = e.pair_counts
        assert counts is e.pair_counts and counts.dtype == np.int64
        assert counts.tolist() == [[0, 3, 2], [0, 0, 2], [1, 1, 0]]
        assert comparison_graph(e).counts == tuple(map(tuple, counts.tolist()))
        with pytest.raises(ValueError):
            counts[0, 1] = 0

    def test_no_voters(self):
        e = Election.from_rankings([], 3)
        assert not e.pair_counts.any()
        with pytest.raises(DataFormatError, match="at least one voter"):
            comparison_graph(e)

    @given(small_election())
    @settings(max_examples=40)
    def test_recount_matches_brute_force(self, e):
        if e.n == 0:
            return
        g = comparison_graph(e)
        for a in range(e.m):
            for b in range(e.m):
                if a != b:
                    assert g.counts[a][b] == sum(1 for i in range(e.n) if prefers(e, i, a, b))


def veto_counts(e: Election) -> list[int]:
    """Voters stating each candidate below every other one: level m - 1 puts it alone at the bottom."""
    return (e.multiplicity @ (e.levels == e.m - 1)).tolist()


class TestScores:
    def test_veto_instance_scores(self):
        e = inst.veto_instance(4).election
        assert plurality_counts(e)[0] == 0 and veto_counts(e)[0] == 1

    def test_unanimous_plurality(self):
        e = Election.from_rankings([(1, 0, 2)] * 4, 3)
        assert plurality_counts(e) == (0, 4, 0)

    def test_disjoint_blocks_zero_coverage(self):
        e = inst.ktop_lower_bound(5, 2, Fraction(1, 100)).election
        assert all(len(t) == 2 and 4 not in t for t in e.ktop)  # the centre candidate is in nobody's list

    @given(small_election())
    @settings(max_examples=40)
    def test_total_order_sums(self, e):
        if e.n == 0:
            return
        assert sum(plurality_counts(e)) == e.n and sum(veto_counts(e)) == e.n


class TestTextFormat:
    def test_roundtrip_with_ties_and_omissions(self):
        text = "3 4\n0 > 1 = 2 > 3\n2 > 0\n\n"
        e = election_from_text(text)
        assert e.ktop[0] is None and e.ktop[1] == (2, 0) and e.ktop[2] is None
        assert e.prefs[2] == frozenset()
        assert election_from_text(election_to_text(e)) == e

    def test_ktop_semantics_of_omission(self):
        e = election_from_text("1 3\n2\n")
        assert e.prefs[0] == {(2, 0), (2, 1)}

    def test_bad_header(self):
        with pytest.raises(DataFormatError):
            election_from_text("nope\n")

    def test_duplicate_candidate(self):
        with pytest.raises(DataFormatError):
            election_from_text("1 3\n0 > 0\n")

    @given(small_election())
    @settings(max_examples=60)
    def test_roundtrip_total_orders(self, e):
        assert election_from_text(election_to_text(e)) == e

    @given(weak_order_text())
    @settings(max_examples=100, deadline=None)
    def test_parse_matches_pair_sets_and_round_trips(self, case):
        text, prefs, ktop = case
        e = election_from_text(text)
        assert e.prefs == tuple(prefs)
        check_arrays(e, prefs, ktop)
        assert election_from_text(election_to_text(e)) == e

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty election file"),
            ("3\n", "header must be 'n m'"),
            ("a b\n", "bad header: 'a b'"),
            ("3 2\n0 > 1\n", "expected 3 ballot lines, found 1"),
            ("2 3\n0\n1\n2\n", "expected 2 ballot lines, found 3"),
            ("1 3\n0\n\n2\n\n", "expected 1 ballot lines, found 3"),
            ("1 3\n0 > x\n", "voter 0: bad token in '0 > x'"),
            ("1 3\n0 >> 1\n", "voter 0: bad token in '0 >> 1'"),
            ("1 3\n0 1\n", "voter 0: bad token in '0 1'"),
            ("1 3\n0 1 2\n", "voter 0: bad token in '0 1 2'"),
            ("1 3\n0 = \n", "voter 0: bad token in '0 ='"),
            ("2 3\n0 > 1\n2 = 1 > 2\n", "voter 1: candidate listed twice"),
            ("2 3\n\n0 > 3\n", "voter 1: candidate id out of range"),
            ("2 3\n1 = 1\nx\n", "voter 0: candidate listed twice"),
            ("1 3\n5 = 5\n", "voter 0: candidate listed twice"),
            ("-1 3\n", "need n >= 0 and m >= 1"),
            ("1 0\n\n", "need n >= 0 and m >= 1"),
        ],
    )
    def test_malformed_input(self, text, message):
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            election_from_text(text)

    def test_trailing_blank_lines_are_not_ballots(self):
        e = election_from_text("2 3\n0\n1 > 2\n\n  \n")
        assert e.n == 2 and e.ktop == ((0,), (1, 2))
        # blank lines inside the n ballot lines stay silent ballots
        assert election_from_text("2 3\n0\n\n\n").prefs[1] == frozenset()

    def test_empty_list_is_no_list(self):
        # an empty list states nothing: it is written as an empty line and read back as no list
        e = Election.from_ktop([[], [0, 1]], 3)
        assert e.ktop == (None, (0, 1)) and e.listed.tolist() == [0, 2]
        assert election_to_text(e) == "2 3\n\n0 > 1\n"
        assert election_from_text(election_to_text(e)) == e
        check_arrays(e, [frozenset(), ktop_pairs((0, 1), 3)], [(), (0, 1)])

    def test_roundtrip_truncated(self):
        e = truncate_to_ktop(inst.impartial_culture(6, 5, seed=1).election, 2)
        assert election_from_text(election_to_text(e)) == e


class TestInduction:
    def test_tiebreak_override(self):
        # voter equidistant from both candidates
        w = MetricWitness(1, 2, ((0, 1, 1), (1, 0, 2), (1, 2, 0)))
        asc = induce_election(w, "index_asc")
        desc = induce_election(w, "index_desc")
        assert ranking(asc, 0) == (0, 1) and ranking(desc, 0) == (1, 0)

    def test_line_single_peaked(self):
        gi = inst.euclidean(6, 4, 1, seed=9)
        e, w = gi.election, gi.witness
        assert check_consistent(w, e)
        # along a line, each voter's ranking is single-peaked in candidate position
        order = sorted(range(4), key=lambda c: w.vc(0, c))
        assert ranking(e, 0)[0] == order[0]
