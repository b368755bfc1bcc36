"""Ordinal mechanisms: knockout elicitation, tournament rules, and matchings.

All rules are pure given an election (plus a seed where pairings are
shuffled); the knockout oracle is inherently sequential.  Every
candidate's matching score comes from one minimum cut over candidate
subsets, or, when there are too many subsets for the ballots, from one
shared max-flow.  SciPy is imported on the first max-flow, not with this
module, so the rules that run none never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import Election, Transcript, _check_candidates, _first_appearance, _pair_counts, _row_keys, _subset_counts, plurality_counts, seeded_rng
from .errors import ConfigError, CoverageError, TheoremFalsificationError


def majority_oracle(e: Election, a: int, b: int) -> int:
    """Return the pairwise loser between a and b; abstainers count for neither.

    The smaller candidate index loses a tied comparison; the chain
    lower-bound construction needs exactly this rule.
    """
    if a == b:
        raise ConfigError("oracle needs distinct candidates")
    _check_candidates(e, a, b)
    na, nb = int(e.pair_counts[a, b]), int(e.pair_counts[b, a])
    if na > nb:
        return b
    if nb > na:
        return a
    return min(a, b)


def _make_pairs(survivors: list[int], pairing: str, rng) -> list[tuple[int, int]]:
    order = list(survivors)
    if pairing == "reversed":
        order.reverse()
    elif pairing == "shuffle":
        order = [order[i] for i in rng.permutation(len(order))]
    elif pairing != "input":
        raise ConfigError(f"unknown pairing strategy {pairing!r}")
    return [(order[2 * i], order[2 * i + 1]) for i in range(len(order) // 2)]


def domination_root(
    candidates: Sequence[int],
    oracle: Callable[[int, int], int],
    pairing: str = "input",
    seed: int | None = None,
    schedule: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> tuple[int, Transcript]:
    """Knockout elicitation: pair the survivors, drop every loser, repeat.

    Elicits exactly ``m - 1`` comparisons.  With an odd survivor count one
    candidate receives a bye.  ``schedule`` overrides the pairing strategy
    with an explicit round-by-round pair list (adversarial constructions).
    """
    survivors = list(dict.fromkeys(candidates))
    if len(survivors) != len(list(candidates)):
        raise ConfigError("duplicate candidates")
    if not survivors:
        raise ConfigError("need at least one candidate")
    rng = seeded_rng(0 if seed is None else seed)
    transcript = Transcript()
    round_no = 0
    while len(survivors) > 1:
        if schedule is not None:
            if round_no >= len(schedule):
                raise ConfigError("pairing schedule exhausted before a winner emerged")
            pairs = [tuple(p) for p in schedule[round_no]]
            alive = set(survivors)
            flat = [c for p in pairs for c in p]
            if len(set(flat)) != len(flat) or not set(flat) <= alive:
                raise ConfigError(f"round {round_no}: schedule does not match the survivors")
            if len(pairs) != len(survivors) // 2:
                raise ConfigError(f"round {round_no}: schedule must contain floor(S/2) pairings")
        else:
            pairs = _make_pairs(survivors, pairing, rng)
        eliminated = set()
        for a, b in pairs:
            loser = oracle(a, b)
            if loser not in (a, b):
                raise ConfigError(f"oracle returned {loser} for pair ({a}, {b})")
            transcript.record_comparison(a, b, loser)
            eliminated.add(loser)
        survivors = [c for c in survivors if c not in eliminated]
        round_no += 1
    return survivors[0], transcript


def run_dr(e: Election, pairing: str = "input", seed: int | None = None, schedule=None) -> tuple[int, Transcript]:
    """DominationRoot on an election via the majority oracle."""
    oracle = lambda a, b: majority_oracle(e, a, b)
    return domination_root(range(e.m), oracle, pairing=pairing, seed=seed, schedule=schedule)


# -- kings --------------------------------------------------------------------


def _two_hop(adj: np.ndarray) -> np.ndarray:
    """Entry (a, b) iff b is a itself or lies at most two edges away from a."""
    return adj | adj @ adj | np.eye(len(adj), dtype=bool)


def king_vertex(adj: np.ndarray) -> int:
    """A vertex reaching every other in at most two hops.

    ``adj`` is an (m, m) bool adjacency matrix, such as ``Election.pair_counts``
    thresholded at a vote count.  Takes the maximum out-degree vertex, the
    lowest index among equals (a king in any digraph containing a
    tournament), and verifies reachability; failure would falsify the king
    theorem and raises accordingly.
    """
    v = int(np.argmax(adj.sum(axis=1)))
    if not _two_hop(adj)[v].all():
        raise TheoremFalsificationError(
            f"max out-degree vertex {v} is not a 2-hop king; input lacks a tournament?"
        )
    return v


# -- tournament rules ---------------------------------------------------------


def _uncovered_pair(counts: np.ndarray, need: int) -> tuple[int, int] | None:
    """First pair a < b, in ``combinations`` order, compared by fewer than ``need`` voters."""
    short = np.argwhere(np.triu(counts + counts.T < need, 1))
    return (int(short[0, 0]), int(short[0, 1])) if len(short) else None


def copeland(e: Election) -> int:
    """Copeland winner; a drawn pair contributes half a win to both sides.

    Requires full pairwise information: every candidate pair must be
    compared by at least one voter.  Scores are doubled to stay integral;
    ties break towards the smaller index.
    """
    counts = _pair_counts(e)
    pair = _uncovered_pair(counts, 1)
    if pair is not None:
        a, b = pair
        raise CoverageError(pair, f"no voter compares candidates {a} and {b}")
    off = ~np.eye(e.m, dtype=bool)
    score = 2 * (counts > counts.T).sum(axis=1) + ((counts == counts.T) & off).sum(axis=1)
    return int(np.argmax(score))


def balanced_rule(e: Election, alpha) -> int:
    """King of the digraph thresholded at alpha/2.

    Requires that for every candidate pair at least an alpha fraction of
    the voters compared them; the offending pair is named on violation.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    counts = _pair_counts(e)
    pair = _uncovered_pair(counts, math.ceil(alpha * e.n))
    if pair is not None:
        a, b = pair
        coverage = Fraction(int(counts[a, b] + counts[b, a]), e.n)
        raise CoverageError(pair, f"pair ({a}, {b}) covered by {coverage} < alpha = {alpha}")
    return king_vertex(counts >= math.ceil(alpha / 2 * e.n))


def _check_exactly_k(e: Election, k: int) -> None:
    """Require k in [1, m] and a top list of exactly k candidates from every voter."""
    if not 1 <= k <= e.m:
        raise ConfigError(f"k must be in [1, {e.m}], got {k}")
    other = np.flatnonzero(e.listed != k)
    if len(other):
        raise ConfigError(f"voter {other[0]} does not carry an exactly-{k}-top annotation")


def ktop_rule(e: Election, k: int) -> int:
    """Winner under k-top ballots: a 2-hop king at support threshold k/(3m).

    The support digraph has an edge a -> b when at least k/(3m) of the
    voters state a > b; counts are integers, so that holds iff the count is
    at least ceil(k n / (3m)).  Candidates are scanned by descending k-top
    coverage, the voters listing them, then index.  Every list has exactly
    k candidates, at levels 0..k-1, so coverage counts the levels below k.
    The guarantee says a king always exists, so exhausting the scan raises
    a falsification error.
    """
    _check_exactly_k(e, k)
    support = _pair_counts(e) >= math.ceil(Fraction(k, 3 * e.m) * e.n)
    order = np.argsort(-(e.multiplicity @ (e.levels < k)), kind="stable")
    kings = order[_two_hop(support).all(axis=1)[order]]
    if len(kings) == 0:
        raise TheoremFalsificationError(f"no 2-hop king at threshold {k}/(3*{e.m})")
    return int(kings[0])


# -- plurality matching -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DominationGraph:
    """Bipartite graph certifying a focal candidate's quality.

    Left side: voters.  Right side: candidates, where candidate k carries
    the capacity of voters whose top choice is k.  Voter i connects to k
    when the focal candidate is (certainly) at least as good for i as k.
    This folding is equivalent to the voter-vs-voter form because a right
    voter j matters only through top(j).

    The edges are stored per ballot, as in :class:`~metricvote.core.Election`:
    ``neighbourhoods`` is a read-only bool array of shape (u, m) whose row j
    marks the candidates adjacent to every voter casting ballot j, and
    ``ballot_of`` (shape (n,)) gives each voter's row.
    """

    focal: int
    capacities: tuple[int, ...]
    neighbourhoods: np.ndarray
    ballot_of: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("neighbourhoods", bool), ("ballot_of", np.intp)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.ballot_of)


@dataclass(frozen=True)
class MatchingResult:
    size: int
    usage: tuple[int, ...]
    phi: Fraction
    #: matched candidate per voter, -1 when unmatched (the V^0 block)
    assignment: tuple[int, ...]


def plurality_capacities(e: Election) -> tuple[int, ...]:
    """Plurality counts as right-side capacities; every voter needs a unique top."""
    caps = plurality_counts(e)
    if sum(caps) != e.n:
        i = next(i for i in range(e.n) if e.top(i) is None)
        raise ConfigError(f"voter {i} has no unique top; supply capacities explicitly")
    return caps


def build_domination_graph(
    e: Election, focal: int, capacities: Sequence[int] | None = None
) -> DominationGraph:
    """Domination graph of ``focal``; edges use only certain comparisons.

    Row j marks the candidates ballot j ranks below the focal one, and the
    focal candidate itself; the voters casting ballot j share it.
    """
    if not 0 <= focal < e.m:
        raise ConfigError(f"focal candidate {focal} out of range")
    if capacities is None:
        capacities = plurality_capacities(e)
    if len(capacities) != e.m:
        raise ConfigError("capacity vector must have one entry per candidate")
    beaten = e.levels[:, focal, None] < e.levels
    beaten[:, focal] = True
    return DominationGraph(focal, tuple(int(c) for c in capacities), beaten, e.ballot_of)


#: :func:`phi_scores` reads the matching sizes off the subset tables when
#: 2**m is at most this many times the number of distinct ballots, and
#: runs the max-flow above that.  On impartial-culture total orders (n = 500,
#: m = 12..16 and n = 20000, m = 17..20; 2-vCPU VM) the tables took 2-5
#: times less time at ratios up to 16, were about even at 26 and lost from
#: 52 on.
_SUBSETS_PER_BALLOT = 16


def _clipped(capacities: Sequence[int], n: int) -> np.ndarray:
    """Capacities clipped to [0, n], exactly: a candidate never takes more than the n voters."""
    return np.array([min(max(int(c), 0), n) for c in capacities], dtype=np.int64)


def _max_flow(rows: np.ndarray, size: np.ndarray, part: np.ndarray, capacities: Sequence[int], n: int):
    """One Dinic max-flow over domination graphs laid side by side.

    Class c (neighbourhood ``rows[c]``, ``size[c]`` voters) belongs to graph
    ``part[c]``; the classes of one graph are contiguous.  Nodes: 0 source,
    then every class, then m candidates per graph, then the sink; edges run
    source -> class (class size) -> open candidate of its graph (class size)
    -> sink (candidate capacity), with candidates of capacity <= 0 closed.
    The graphs share only the source and the sink.  Capacities are clipped
    to n, which keeps them inside the solver's int32 range.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    kn, m = rows.shape
    parts = int(part[-1]) + 1
    caps = _clipped(capacities, n)
    is_open = caps > 0
    open_k = np.flatnonzero(is_open)
    ci, k = np.nonzero(rows & is_open)
    snk = 1 + kn + parts * m
    cand = 1 + kn + np.add.outer(m * np.arange(parts), open_k).reshape(-1)
    tails = np.concatenate([np.zeros(kn, dtype=np.intp), 1 + ci, cand])
    heads = np.concatenate([1 + np.arange(kn), 1 + kn + m * part[ci] + k, np.full(len(cand), snk)])
    weights = np.concatenate([size, size[ci], np.tile(caps[open_k], parts)])
    net = csr_matrix((weights, (tails, heads)), shape=(snk + 1, snk + 1))
    return maximum_flow(net, 0, snk, method="dinic").flow


def max_matching(g: DominationGraph) -> MatchingResult:
    """Maximum capacitated bipartite matching via max-flow.

    Voters whose neighbourhood rows are equal (zero-capacity candidates
    included) form one class, numbered by its first voter, whatever the
    ballot numbering; a class's size is its voter count.  The network is
    the one-graph case of :func:`_max_flow`, which :func:`phi_scores` runs
    on all m graphs at once when it does not use the subset tables.  The
    class flows are expanded to voters class by class: ascending voters
    take the flow to ascending candidates, and the rest get -1.

    The library itself needs only the fractions, but this function stays
    public: its assignment is PluralityMatching's certificate, the matching
    that witnesses a candidate's fraction.  The assignment depends on which
    maximum flow the solver returns, so the method is named rather than
    left to SciPy's default.
    """
    m = len(g.capacities)
    if g.n == 0:
        return MatchingResult(0, (0,) * m, Fraction(0), ())
    first, voter_class = _first_appearance(_row_keys(g.neighbourhoods)[g.ballot_of])
    kn = len(first)
    size = np.bincount(voter_class, minlength=kn)
    flow = _max_flow(g.neighbourhoods[g.ballot_of[first]], size, np.zeros(kn, dtype=np.intp), g.capacities, g.n)
    flow = flow[1 : 1 + kn, 1 + kn : 1 + kn + m].toarray()
    matched = flow.sum(axis=1)
    # one entry per matched voter, class by class, candidates ascending
    cand = np.repeat(np.tile(np.arange(m), kn), flow.reshape(-1))
    rank = np.arange(len(cand)) - np.repeat(np.cumsum(matched) - matched, matched)
    # voters class by class, ascending within each class
    voters = np.argsort(voter_class, kind="stable")
    assignment = np.full(g.n, -1)
    assignment[voters[np.repeat(np.cumsum(size) - size, matched) + rank]] = cand
    total = int(matched.sum())
    return MatchingResult(total, tuple(flow.sum(axis=0).tolist()), Fraction(total, g.n), tuple(assignment.tolist()))


def _matched_by_cut(e: Election, capacities: Sequence[int]) -> np.ndarray:
    """Every candidate's matching size as a minimum over candidate subsets K.

    Candidate a's matching size is min over K of cap(K) + n - F_a(K), where
    F_a(K) counts the voters whose neighbourhood in a's domination graph
    lies inside K (see :func:`phi_scores`).  Each neighbourhood is an m-bit
    key: bit c is set when the ballot states a > c, and bit a always is.
    :func:`core._subset_counts` gives F_a(K) - cap(K) for every a and K at
    once, in exact int64: cap(K), the sum of the clipped capacities in K, is
    the subset sum of the capacities placed, negated, at the one-candidate
    sets.
    """
    base = np.zeros(1 << e.m, dtype=np.int64)
    base[1 << np.arange(e.m)] = -_clipped(capacities, e.n)
    return e.n - _subset_counts(e, base=base).max(axis=1)


def _matched_by_flow(e: Election, capacities: Sequence[int]) -> np.ndarray:
    """Every candidate's matching size from one max-flow; needs at least one voter.

    The m domination graphs are laid side by side in one network (see
    :func:`_max_flow`), each with its ballots grouped into classes of equal
    neighbourhood rows.  The graphs meet only at the source and the sink,
    so the union's maximum flow is the sum of the graphs' maxima, and any
    maximum flow of the union, restricted to one graph, is a maximum flow
    of that graph.  Candidate j's matching size is therefore the flow on
    the source edges of graph j.
    """
    rows, size = [], []
    for j in range(e.m):
        g = build_domination_graph(e, j, capacities)
        # classes in key order, each represented by its last ballot (a stable sort costs more)
        keys, ballot_class = np.unique(_row_keys(g.neighbourhoods), return_inverse=True)
        ballot_class = ballot_class.reshape(-1)
        rep = np.empty(len(keys), dtype=np.intp)
        rep[ballot_class] = np.arange(len(ballot_class))
        rows.append(g.neighbourhoods[rep])
        size.append(np.bincount(ballot_class, weights=e.multiplicity).astype(np.int64))
    part = np.repeat(np.arange(e.m), [len(r) for r in rows])
    rows, size = np.concatenate(rows), np.concatenate(size)
    source = _max_flow(rows, size, part, capacities, e.n)[0, 1 : 1 + len(size)].toarray().reshape(-1)
    return np.bincount(part, weights=source, minlength=e.m)


def phi_scores(e: Election, capacities: Sequence[int] | None = None) -> tuple[Fraction, ...]:
    """Matching fraction of every candidate's domination graph.

    Each fraction equals
    ``max_matching(build_domination_graph(e, j, capacities)).phi``.  The
    sizes come from the min-cut (Hall) identity: with N_a(i) voter i's
    neighbourhood in a's graph and cap the capacities clipped to [0, n],
    a's matching size is the minimum over candidate subsets K of
    cap(K) + #{voters i : N_a(i) is not inside K}.

    Proof.  Max-flow equals min-cut in :func:`_max_flow`'s network.  For
    any K, cutting the sink edges of K and the source edges of the classes
    with a neighbour outside K separates source from sink, so the matching
    is no larger than the minimum.  Conversely, take a minimum cut and let
    K be the candidates on its source side.  A class on the source side
    with a neighbour outside K pays that middle edge, whose capacity equals
    its source edge's, so the cut pays at least the class size for every
    class with a neighbour outside K, and the sink edges of K besides.
    Closed candidates have capacity 0 and cost nothing in K, which makes
    it harmless that the network leaves them out.

    When 2**m is at most ``_SUBSETS_PER_BALLOT`` times the number of
    distinct ballots, :func:`_matched_by_cut` evaluates the minimum over
    all 2**m subsets at once; above that, :func:`_matched_by_flow` runs the
    max-flow.
    """
    if capacities is None:
        capacities = plurality_capacities(e)
    if len(capacities) != e.m:
        raise ConfigError("capacity vector must have one entry per candidate")
    if e.n == 0:
        return (Fraction(0),) * e.m
    by_cut = 2**e.m <= _SUBSETS_PER_BALLOT * len(e.levels)
    matched = (_matched_by_cut if by_cut else _matched_by_flow)(e, capacities)
    return tuple(Fraction(int(x), e.n) for x in matched)


def plurality_matching(e: Election) -> tuple[int, tuple[Fraction, ...]]:
    """Candidate maximising the matching fraction; some candidate reaches 1
    on total orders.  Ties break towards the smaller index."""
    phis = phi_scores(e)
    best = max(phis)
    return phis.index(best), phis


@dataclass(frozen=True)
class ProbeResult:
    best_candidate: int
    best_fraction: Fraction
    threshold: Fraction
    holds: bool


def conjecture_probe(e: Election, k: int) -> ProbeResult:
    """Empirical probe of the k-top matching conjecture.

    Computes the best certain-edge matching fraction over all candidates
    and reports whether it reaches k/m.  The outcome is logged evidence,
    not a proof.
    """
    _check_exactly_k(e, k)
    phis = phi_scores(e)
    best = max(phis)
    threshold = Fraction(k, e.m)
    return ProbeResult(phis.index(best), best, threshold, best >= threshold)
