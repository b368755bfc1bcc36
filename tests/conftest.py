"""Shared corpora and hypothesis strategies for the unit and acceptance suites."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from metricvote import instances as inst
from metricvote.core import Election, mask_voters, transitive_closure, truncate_to_ktop
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


def ranking(e: Election, i: int) -> tuple[int, ...] | None:
    """Voter i's full ranking when its top list names every candidate, else None."""
    top = e.ktop[i]
    return top if top is not None and len(top) == e.m else None


def prefers(e: Election, i: int, a: int, b: int) -> bool:
    """Whether voter i states a > b; False for out-of-range candidates."""
    return 0 <= a < e.m and 0 <= b < e.m and bool(e.ballots[e.ballot_of[i], a, b])


def bottom(e: Election, i: int) -> int | None:
    """Voter i's unique minimal candidate (stated below all others), or None."""
    below = np.flatnonzero(e.ballots[e.ballot_of[i]].sum(axis=0) == e.m - 1)
    return int(below[0]) if len(below) else None


def is_total(e: Election, i: int) -> bool:
    """Whether voter i's ballot states every pair."""
    return int(e.ballots[e.ballot_of[i]].sum()) == e.m * (e.m - 1) // 2


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
def partial_order_elections(draw):
    """Random closed partial orders (empty and non-weak ones included), cast
    by voters drawn with repetition from a small pool of ballots."""
    m = draw(st.integers(2, 4))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(m)))
        allowed = [(perm[i], perm[j]) for i in range(m) for j in range(i + 1, m)]
        pool.append(transitive_closure(draw(st.lists(st.sampled_from(allowed), unique=True))))
    voters = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
    if not draw(st.booleans()):
        voters.append(voters[0])  # a repeated ballot, so merging applies
    return Election(len(voters), m, tuple(pool[i] for i in voters))


@st.composite
def ballot_elections(draw):
    """Partial orders, k-top truncations of total orders, and masked voters."""
    kind = draw(st.sampled_from(["partial", "ktop", "masked"]))
    if kind == "ktop":
        m = draw(st.integers(2, 5))
        rankings = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=8))
        return truncate_to_ktop(Election.from_rankings(rankings, m), draw(st.integers(1, m)))
    e = draw(partial_order_elections())
    if kind == "masked":
        e = mask_voters(e, draw(st.sets(st.integers(0, e.n - 1))))
    return e
