"""Shared corpora and hypothesis strategies for the unit and acceptance suites."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from metricvote import instances as inst
from metricvote.core import (
    TAU_METRIC,
    Election,
    MetricWitness,
    check_consistent,
    election_from_text,
    mask_voters,
    truncate_to_ktop,
)
from metricvote.errors import DataFormatError
from metricvote.instances import GeneratedInstance
from metricvote.mechanisms import MatchingResult


def _size_plan(rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """200 (n, m, dim) triples skewed small with a heavy tail up to (200, 16)."""
    plan = []
    for _ in range(140):
        plan.append((int(rng.integers(8, 61)), int(rng.integers(3, 9)), int(rng.integers(1, 4))))
    for _ in range(40):
        plan.append((int(rng.integers(20, 121)), int(rng.integers(9, 13)), int(rng.integers(1, 4))))
    for _ in range(18):
        plan.append((int(rng.integers(40, 201)), int(rng.integers(13, 17)), int(rng.integers(1, 4))))
    plan.append((200, 16, 2))  # both bounds realised
    plan.append((197, 13, 3))
    return plan


def election_of(m: int, lines) -> Election:
    """The election read from the line format with these ballot lines, one per voter."""
    return election_from_text(f"{len(lines)} {m}\n" + "".join(f"{line}\n" for line in lines))


def ranking(e: Election, i: int) -> tuple[int, ...] | None:
    """Voter i's full ranking when its top list names every candidate, else None."""
    top = e.ktop[i]
    return top if top is not None and len(top) == e.m else None


def relation(e: Election) -> np.ndarray:
    """(u, m, m) bool array: entry [j, a, b] says ballot j states a > b."""
    return e.levels[:, :, None] < e.levels[:, None, :]


def prefers(e: Election, i: int, a: int, b: int) -> bool:
    """Whether voter i states a > b; False for out-of-range candidates."""
    return 0 <= a < e.m and 0 <= b < e.m and bool(relation(e)[e.ballot_of[i], a, b])


def bottom(e: Election, i: int) -> int | None:
    """Voter i's unique minimal candidate (stated below all others), or None."""
    below = np.flatnonzero(relation(e)[e.ballot_of[i]].sum(axis=0) == e.m - 1)
    return int(below[0]) if len(below) else None


def is_total(e: Election, i: int) -> bool:
    """Whether voter i's ballot states every pair."""
    return int(relation(e)[e.ballot_of[i]].sum()) == e.m * (e.m - 1) // 2


# -- references read from pair sets alone ---------------------------------------


def ktop_pairs(order, m: int) -> frozenset[tuple[int, int]]:
    """Expand an ordered k-top list into its pair set.

    Listed candidates are ranked among themselves in list order and above
    every omitted candidate; omitted candidates stay mutually incomparable.
    """
    order = list(order)
    listed = set(order)
    if len(listed) != len(order):
        raise DataFormatError("k-top list contains duplicates")
    omitted = [c for c in range(m) if c not in listed]
    pairs = []
    for pos, a in enumerate(order):
        pairs.extend((a, b) for b in order[pos + 1 :])
        pairs.extend((a, c) for c in omitted)
    return frozenset(pairs)


def ref_ballots(prefs) -> list[int]:
    """Each voter's ballot, numbering distinct pair sets by their first voter."""
    number: dict = {}
    return [number.setdefault(p, len(number)) for p in prefs]


def ref_top(p, m: int) -> int | None:
    """The candidate stated above every other one, or None."""
    return next((c for c in range(m) if sum((c, d) in p for d in range(m)) == m - 1), None)


def ref_second(p, m: int) -> int | None:
    """The candidate stated above all but the top, when there is a top, or None."""
    top = ref_top(p, m)
    if top is None:
        return None
    return next((c for c in range(m) if c != top and sum((c, d) in p for d in range(m)) == m - 2), None)


def top_of(e: Election, i: int) -> int | None:
    """Voter i's top, read from its pair set (``e.prefs``)."""
    return ref_top(e.prefs[i], e.m)


def second_of(e: Election, i: int) -> int | None:
    """Voter i's second choice, read from its pair set (``e.prefs``)."""
    return ref_second(e.prefs[i], e.m)


def ref_bottom(p, m: int) -> int | None:
    """The candidate stated below every other one, or None."""
    return next((c for c in range(m) if sum((d, c) in p for d in range(m)) == m - 1), None)


def ref_counts(prefs, m: int) -> list[list[int]]:
    """Entry [a][b]: the voters whose pair set holds (a, b)."""
    return [[sum((a, b) in p for p in prefs) for b in range(m)] for a in range(m)]


def ref_ktop(p, m: int, length: int) -> tuple[int, ...] | None:
    """The first ``length`` candidates by the number stated above them, ties by index; None for 0."""
    order = sorted(range(m), key=lambda c: (sum((d, c) in p for d in range(m)), c))
    return tuple(order[:length]) if length else None


def vc(metric: MetricWitness, voter: int, candidate: int):
    """The distance from a voter to a candidate: an int or Fraction when the
    table is exact, else a float.  Ids outside [0, n) and [0, m) raise, where
    a negative one would index from the end of the table."""
    if not (0 <= voter < metric.n and 0 <= candidate < metric.m):
        raise IndexError(f"voter {voter} or candidate {candidate} outside a {metric.n} x {metric.m} witness")
    return metric.dist.item(voter, metric.n + candidate)


def check_witness(gi: GeneratedInstance) -> None:
    """A shipped witness is a metric consistent with the election it ships with."""
    if gi.witness is not None:
        gi.witness.validate_metric()
        assert check_consistent(gi.witness, gi.election), f"{gi.generator}: witness inconsistent with election"


def ref_consistent(metric: MetricWitness, e: Election, tol: float = TAU_METRIC) -> bool:
    """Voter by voter, whether each pair of the voter's pair set puts the nearer
    candidate first: exactly on exact tables, within ``tol`` times the larger
    distance (at least 1) on float ones."""
    for i, p in enumerate(e.prefs):
        for a, b in p:
            da, db = vc(metric, i, a), vc(metric, i, b)
            slack = 0 if metric.exact else tol * max(1.0, abs(da), abs(db))
            if da > db + slack:
                return False
    return True


def matching_blocks(r: MatchingResult) -> dict[int, tuple[int, ...]]:
    """The voters matched to each candidate, ascending; key -1 holds the unmatched voters."""
    out: dict[int, list[int]] = {}
    for i, k in enumerate(r.assignment):
        out.setdefault(k, []).append(i)
    return {k: tuple(v) for k, v in sorted(out.items())}


@pytest.fixture(scope="session")
def euclidean_corpus():
    """200 seeded Euclidean instances with ground-truth witnesses (n <= 200, m <= 16)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(20240601)))
    corpus = []
    for i, (n, m, dim) in enumerate(_size_plan(rng)):
        corpus.append(inst.euclidean(n, m, dim, seed=1000 + i))
    return corpus


@pytest.fixture(scope="session")
def small_lp_corpus():
    """100 instances with n <= 12, m <= 4: full rankings, k-top, and induced."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(77)))
    corpus = []
    for i in range(40):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(2, 5))
        corpus.append(inst.impartial_culture(n, m, seed=300 + i).election)
    for i in range(30):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(2, 5))
        e = inst.impartial_culture(n, m, seed=500 + i).election
        k = int(rng.integers(1, m + 1))
        corpus.append(truncate_to_ktop(e, k))
    for i in range(30):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 3))
        corpus.append(inst.euclidean(n, m, dim, seed=700 + i).election)
    return corpus


@st.composite
def weak_order(draw, m: int, annotate: bool = True) -> tuple[frozenset, tuple[int, ...] | None, str]:
    """(pair set, top list or None, ballot line): a random weak order over m
    candidates, an ordered partition drawn as a permutation cut into groups.
    Ties and the silent ballot (one group) are included.  When every group
    but the last is a single candidate the ballot is a k-top list, which is
    sometimes given as an annotation, unless ``annotate`` is False.  The line
    is the list when there is one, the groups joined by ``=`` and ``>``
    otherwise."""
    perm = draw(st.permutations(range(m)))
    cuts = draw(st.lists(st.booleans(), min_size=m - 1, max_size=m - 1))
    groups = [[perm[0]]]
    for c, cut in zip(perm[1:], cuts):
        if cut:
            groups.append([c])
        else:
            groups[-1].append(c)
    pairs = frozenset((a, b) for gi, g in enumerate(groups) for a in g for h in groups[gi + 1 :] for b in h)
    listed = [g[0] for g in groups[:-1]]
    if annotate and all(len(g) == 1 for g in groups[:-1]) and listed and draw(st.booleans()):
        if len(groups[-1]) == 1 and draw(st.booleans()):
            listed.append(groups[-1][0])  # lists of m - 1 and m candidates state the same pairs
        assert ktop_pairs(listed, m) == pairs
        return pairs, tuple(listed), " > ".join(map(str, listed))
    return pairs, None, " > ".join(" = ".join(map(str, g)) for g in groups)


@st.composite
def weak_order_profiles(draw):
    """(m, pair sets, top lists, ballot lines): random weak orders (ties,
    k-top lists and empty ballots included), cast by voters drawn with
    repetition from a small pool of ballots."""
    m = draw(st.integers(2, 4))
    pool = [draw(weak_order(m)) for _ in range(draw(st.integers(1, 3)))]
    voters = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
    if not draw(st.booleans()):
        voters.append(voters[0])  # a repeated ballot, so merging applies
    cast = [pool[i] for i in voters]
    return m, tuple(b[0] for b in cast), tuple(b[1] for b in cast), tuple(b[2] for b in cast)


@st.composite
def partial_order_elections(draw):
    """Elections of :func:`weak_order_profiles`, read from their ballot lines."""
    m, _, _, lines = draw(weak_order_profiles())
    return election_of(m, lines)


@st.composite
def ktop_elections(draw):
    """k-top truncations of total orders, m <= 5 and n <= 8: every voter has a unique top."""
    m = draw(st.integers(2, 5))
    rankings = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=8))
    return truncate_to_ktop(Election.from_rankings(rankings, m), draw(st.integers(1, m)))


@st.composite
def ballot_elections(draw):
    """Weak orders, k-top truncations of total orders, and masked voters."""
    kind = draw(st.sampled_from(["partial", "ktop", "masked"]))
    if kind == "ktop":
        return draw(ktop_elections())
    e = draw(partial_order_elections())
    if kind == "masked":
        e = mask_voters(e, draw(st.sets(st.integers(0, e.n - 1))))
    return e
