"""Election data model: weak preference orders, metrics, and derived counts.

Candidates and voters are 0-based integers throughout.  A voter's stated
preferences are a weak order: the candidates fall into ranked groups, every
candidate is stated above every candidate of a lower group, and candidates
of one group are not compared.  Elections are built from total rankings
(``Election.from_rankings``), ordered top lists (``Election.from_ktop``,
the omitted candidates forming one last group) or the line format
(``election_from_text``), whose ``=`` ties express any weak order, silent
voters included: every election has a text that reads back equal.  Each
constructor takes the candidate count m (the text format in its header);
none infers it from the ids it reads.

An :class:`Election` stores every distinct ballot once, as three read-only
arrays:

* ``levels``, shape (u, m) and dtype ``np.min_scalar_type(m)``:
  ``levels[j, c]`` counts the candidates ballot j states above c, so the
  ballot states a > b exactly when ``levels[j, a] < levels[j, b]``.  This
  rank is canonical: a weak order has one level vector, whose top group
  sits at level 0, and a silent ballot is the all-zero row;
* ``multiplicity``, shape (u,): how many voters cast each ballot;
* ``ballot_of``, shape (n,): the ballot of each voter, so per-voter
  identities (sampled voters, witnesses) stay reproducible.

Ballots are numbered in order of first appearance among the voters.  This
makes the arrays canonical (equal elections have equal arrays), and it is
the numbering a pass over the voters that merges repeated pair sets would
give, so ``lp.build_metric_lp``, which emits one variable block per
ballot, lays out its variables and rows in voter order whichever
constructor built the election.  Top, second choice and totality are
computed per ballot from the levels on first use and cached, as arrays
with one entry per ballot (``_top``, ``_second``, ``_total``).
``listed`` (shape (n,)) is the length of each voter's ordered top list, 0
when the voter's information did not arrive as a list (an empty list
states nothing).  The list is read from the ballot: the ``listed[i]``
candidates of lowest level.  The length is kept per voter because lists
of m - 1 and m candidates state the same pairs.  ``Election.prefs`` and
``Election.ktop`` are derived, cached per-voter views, which the
benchmark's tracer and the tests' references read; mechanisms read the
arrays instead, and the pair counts every tournament rule and the LP bound
start from are cached once as ``Election.pair_counts``.

Large electorates are read and counted a block of voters or ballots at a
time (``_BLOCK``): rankings given as lists are read as bytes, and their
levels, the pair counts and the subset tables of ``_subset_counts`` are
built block by block, so no int64 or float64 temporary holds one entry per
voter and candidate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError

#: Relative tolerance for metric checks (triangle inequality, consistency).
TAU_METRIC = 1e-9


def seeded_rng(seed) -> np.random.Generator:
    """The generator of every seeded draw in the toolkit: PCG64, pinned.  An
    int or int sequence seeds it through ``SeedSequence(seed)``, as does a
    ``SeedSequence`` itself."""
    return np.random.Generator(np.random.PCG64(seed))


#: Entries per block in the loops over a (voter or ballot, candidate) table:
#: ``_levels_from_rankings``, ``Election.pair_counts`` and
#: ``_subset_counts`` take ``_BLOCK // m`` rows at a time.  Their
#: int64 and float64 temporaries then hold 2**16 entries, 0.5 MiB, whatever
#: the electorate's size, where whole-table ones took 80 MB each at 10**6
#: voters and 10 candidates.
_BLOCK = 1 << 16


def _blocks(rows: int, m: int, least: int = 1) -> Iterator[slice]:
    """Consecutive slices covering ``range(rows)``, ``max(_BLOCK // m, least)`` rows each."""
    step = max(_BLOCK // m, least)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _subset_counts(e: Election, above: bool = False, base: np.ndarray | None = None) -> np.ndarray:
    """Per candidate r and candidate set K, the number of voters whose key
    for r lies inside K, as an (m, 2**m) int64 table indexed by K's bit mask.

    A ballot's key for r is an m-bit mask with bit r set, and bit c set when
    the ballot states r above c, or, with ``above``, c above r.  Every row
    starts from ``base``, int64 values per set (zeros when None), the voter
    count of every key is added a block of ballots at a time (see
    ``_BLOCK``), and a subset-sum (zeta) transform over the m bits turns
    the table into the counts plus the subset sums of ``base``, in place.
    The counts are float sums of multiplicities, exact below 2**53, as in
    ``Election.pair_counts``.
    """
    m = e.m
    bit = 1 << np.arange(m)
    key_type = np.min_scalar_type((1 << m) - 1)
    table = np.empty((m, 1 << m), dtype=np.int64)
    table[:] = 0 if base is None else base
    # a block holds at least 2**m ballots, so its m bincounts cost no more than its keys
    for block in _blocks(len(e.levels), m, least=1 << m):
        columns = np.ascontiguousarray(e.levels[block].T)
        keys = np.empty(columns.shape, dtype=key_type)
        keys[:] = bit[:, None]
        for c in range(m):
            keys += ((columns > columns[c]) if above else (columns < columns[c])) * key_type.type(bit[c])
        weight = e.multiplicity[block].astype(np.float64)
        for row, key in zip(table, keys):
            row += np.bincount(key, weights=weight, minlength=1 << m).astype(np.int64)
    flat = table.reshape(-1)
    for b in range(m):
        pairs = flat.reshape(-1, 2, 1 << b)
        pairs[:, 1] += pairs[:, 0]
    return table


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Int64 keys, equal exactly for equal rows of a 2-D array of small
    non-negative integers: each block of columns is packed into the bits of
    one integer, so a 1-D sort (much faster than one over rows) groups them."""
    bits = max(int(rows.max(initial=0)).bit_length(), 1)
    # compacted keys stay below len(rows), so a shifted key plus a block fits in 63 bits
    width = max((63 - len(rows).bit_length()) // bits, 1)
    key = np.zeros(len(rows), dtype=np.int64)
    for lo in range(0, rows.shape[1], width):
        if lo:
            key = np.unique(key, return_inverse=True)[1].reshape(-1).astype(np.int64, copy=False)
        # shift-and-or, last column first so the block's first column takes the lowest
        # bits; an integer matmul with the bit weights runs without BLAS and is slower
        for column in rows[:, lo : lo + width].T[::-1]:
            key <<= bits
            key |= column
    return key


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal entries, or equal rows via :func:`_row_keys`, by first appearance.

    Returns the index of each group's first row and the group of every row.
    Every temporary has one entry per row or group, so each is dropped as
    soon as it has been read: at 10**6 rows they hold 8 MB each.
    """
    if keys.ndim == 2:
        keys = _row_keys(keys)
    # an unstable sort is several times faster than the stable one np.unique's
    # return_index needs; each group's first row is then its least index
    perm = np.argsort(keys)
    ordered = keys[perm]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    del keys, ordered
    first = np.minimum.reduceat(perm, np.flatnonzero(new))
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    first = first[order]
    del order
    run = np.cumsum(new)
    del new
    run -= 1
    group = np.empty_like(perm)
    group[perm] = number[run]
    return first, group


def _byte_rows(rows: list) -> np.ndarray | None:
    """Lists or tuples of one length read through ``bytes`` as one (n, width) uint8 array.

    ``bytes`` takes integers in [0, 256) only, so where it succeeds
    ``np.array`` would have read the same ids, in an integer dtype, unless
    every entry is a bool: then it reads bools, which are rejected.  Rows
    whose first entry is a bool are therefore left to ``np.array``, as are
    other row types, such as sets, whose iteration order is no ranking.
    Returns None when the read does not apply.
    """
    if not rows or not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return None
    if not rows[0] or isinstance(rows[0][0], bool):
        return None
    try:
        flat = bytes(itertools.chain.from_iterable(rows))
    except (TypeError, ValueError):  # an entry that is not an int in [0, 256)
        return None
    return np.frombuffer(flat, dtype=np.uint8).reshape(len(rows), -1)


def _array_rows(rows: list, m: int) -> np.ndarray:
    """Rows read with one ``np.array``; rows of unequal lengths raise :class:`DataFormatError`."""
    if not rows:
        return np.zeros((0, m), dtype=np.int64)
    try:
        return np.array(rows)
    except ValueError:  # rows of unequal lengths
        pass
    try:
        lens = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    except TypeError:  # a row without a length
        raise DataFormatError("rankings must be rows of integer candidate ids") from None
    short = np.flatnonzero(lens != m)
    if len(short):
        raise DataFormatError(f"voter {short[0]}: ranking must list all {m} candidates")
    return np.empty(0, dtype=object)  # no row is short, so some entry is a sequence


def _levels_from_lists(lists: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """Per-voter level vectors of ordered top lists, built without per-pair loops.

    A listed candidate's level is its list position, and every omitted
    candidate shares the level just below the list: omitted candidates beat
    no one, and a list of m - 1 candidates states the same pairs as the
    full ranking that ends with the omitted one.
    """
    if m < 1:
        raise DataFormatError("need n >= 0 and m >= 1")
    n = len(lists)
    lens = np.fromiter(map(len, lists), dtype=np.intp, count=n)
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=int(lens.sum()))
    voter = np.repeat(np.arange(n), lens)
    bad = (flat < 0) | (flat >= m)
    if bad.any():
        raise DataFormatError(f"voter {voter[np.argmax(bad)]}: k-top entry out of range")
    if (np.bincount(voter * m + flat, minlength=n * m) > 1).any():
        raise DataFormatError("k-top list contains duplicates")
    level = np.repeat(lens.astype(np.min_scalar_type(m)), m).reshape(n, m)
    level[voter, flat] = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
    return level


def _levels_from_rankings(rows: np.ndarray, m: int) -> np.ndarray:
    """Per-voter level vectors of total orders given as an (n, m) integer array."""
    if m < 1:
        raise DataFormatError("need n >= 0 and m >= 1")
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        bad = (rows < 0) | (rows >= m)
        raise DataFormatError(f"voter {np.argmax(bad.any(axis=1))}: k-top entry out of range")
    level = np.full(rows.shape, m, dtype=np.min_scalar_type(m))
    for block in _blocks(len(rows), m):
        chunk, out = rows[block], level[block]
        # one flat scatter, faster than the 2-D fancy index: entry (i, chunk[i, p]) gets p
        spots = chunk + np.arange(0, chunk.size, m)[:, None]
        out.reshape(-1)[spots.reshape(-1)] = np.tile(np.arange(m, dtype=level.dtype), len(chunk))
        # every row names m candidates in range, so a candidate left out means a repeated one
        if (out == m).any():
            raise DataFormatError("k-top list contains duplicates")
    return level


def _relation(levels: np.ndarray) -> np.ndarray:
    """The (u, m, m) bool relation of level vectors: entry [j, a, b] says ballot j states a > b."""
    return levels[:, :, None] < levels[:, None, :]


def _sole(mask: np.ndarray) -> np.ndarray:
    """Per row, the index of the only True entry, or -1 when there is not exactly one."""
    return np.where(mask.sum(axis=1) == 1, mask.argmax(axis=1), -1)


class Election:
    """An election: ``n`` voters and ``m`` candidates with weak-order ballots.

    Built from rankings (``from_rankings``), top lists (``from_ktop``) or
    text (:func:`election_from_text`, which reads back every election
    :func:`election_to_text` writes), and by ``restrict``, ``mask_voters``
    and ``truncate_to_ktop`` from another election; each writes the level
    arrays of the module docstring directly.

    ``listed[i]`` is the length of voter i's ordered top list, 0 when the
    voter's information did not arrive as a list.  At m = 1 every ballot,
    the silent one included, is the total order (0,), so every voter is
    annotated with it (``listed[i] == 1``).  At m >= 2 a ballot without a
    list is never total: a line of ``>`` alone is read as a list, and a
    masked voter is silent.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build an Election with from_rankings, from_ktop or election_from_text")

    @classmethod
    def _of(cls, n: int, m: int, levels: np.ndarray, ballot_of: np.ndarray, listed) -> "Election":
        """Election from distinct, used level vectors numbered by first appearance."""
        e = cls.__new__(cls)
        e._fill(n, m, levels, ballot_of, listed)
        return e

    def _fill(self, n, m, levels, ballot_of, listed) -> None:
        """Store the read-only arrays, counting ``multiplicity``; at m = 1, annotate every voter with its list."""
        levels = np.ascontiguousarray(levels, dtype=np.min_scalar_type(m))
        ballot_of = np.ascontiguousarray(ballot_of, dtype=np.intp)
        multiplicity = np.bincount(ballot_of, minlength=len(levels))
        listed = np.array(listed, dtype=np.intp)
        fields = {"n": n, "m": m, "levels": levels, "multiplicity": multiplicity, "ballot_of": ballot_of}
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if m == 1:
            listed[:] = 1
        for arr in (levels, ballot_of, multiplicity, listed):
            arr.setflags(write=False)
        object.__setattr__(self, "listed", listed)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Election._of, (self.n, self.m, self.levels, self.ballot_of, self.listed))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.n, self.m) == (other.n, other.m)
            and np.array_equal(self.ballot_of, other.ballot_of)
            and np.array_equal(self.listed, other.listed)
            and np.array_equal(self.levels, other.levels)
        )

    def __hash__(self) -> int:
        arrays = (self.levels, self.ballot_of, self.listed)
        return hash((self.n, self.m, self.levels.shape, *(a.tobytes() for a in arrays)))

    def __repr__(self) -> str:
        return f"Election(n={self.n}, m={self.m}, ballots={len(self.levels)})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rankings(cls, rankings: Sequence[Sequence[int]] | np.ndarray, m: int) -> "Election":
        """Build an election from total orders (best candidate first) of all ``m`` candidates.

        ``rankings`` is a sequence of rankings or a 2-D integer array with
        one ranking per row; ``m`` is required, so an election with no
        voters still has its candidates.  Lists and tuples of ids below 256
        are read as bytes (see :func:`_byte_rows`); any other sequence is
        read with one ``np.array``, and an entry that is not an integer,
        such as a float or a string, gives it a dtype that is not an integer
        one, which raises :class:`DataFormatError`.  The level vectors are then
        written a block of voters at a time.
        """
        if not isinstance(rankings, np.ndarray):
            rows = rankings if isinstance(rankings, list) else list(rankings)
            rankings = _byte_rows(rows)
            if rankings is None:
                rankings = _array_rows(rows, m)
        if rankings.ndim != 2 or (rankings.size and rankings.dtype.kind not in "iu"):
            raise DataFormatError("rankings must be rows of integer candidate ids")
        if rankings.shape[1] != m:
            raise DataFormatError(f"voter 0: ranking must list all {m} candidates")
        n = len(rankings)
        levels = _levels_from_rankings(rankings, m)
        del rankings  # a list's byte copy need not outlive its levels
        first, ballot_of = _first_appearance(levels)
        return cls._of(n, m, levels[first], ballot_of, np.full(n, m))

    @classmethod
    def from_ktop(cls, lists: Sequence[Sequence[int]], m: int) -> "Election":
        """Build an election from per-voter ordered top lists."""
        lists = [tuple(t) for t in lists]
        levels = _levels_from_lists(lists, m)
        first, ballot_of = _first_appearance(levels)
        return cls._of(len(lists), m, levels[first], ballot_of, [len(t) for t in lists])

    # -- accessors ---------------------------------------------------------

    @functools.cached_property
    def prefs(self) -> tuple[frozenset[tuple[int, int]], ...]:
        """Per-voter pair sets, derived from the levels; voters casting one
        ballot share one frozenset."""
        sets = [frozenset(map(tuple, np.argwhere(b).tolist())) for b in _relation(self.levels)]
        return tuple(sets[j] for j in self.ballot_of.tolist())

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """Per ballot, the candidates by level, ties by index."""
        return np.argsort(self.levels, axis=1, kind="stable")

    @functools.cached_property
    def pair_counts(self) -> np.ndarray:
        """Read-only (m, m) int64 array: entry (a, b) counts the voters stating a > b.

        A block of ballots at a time (see ``_BLOCK``), row a compares level
        a with every level, one column of the block's transposed levels at
        a time, weighted by multiplicity; the float sums are exact, since
        every count is an integer below 2**53.
        """
        counts = np.zeros((self.m, self.m))
        for block in _blocks(len(self.levels), self.m):
            columns = np.ascontiguousarray(self.levels[block].T)
            weight = self.multiplicity[block].astype(np.float64)
            for a, row in enumerate(columns):
                counts[a] += (row < columns) @ weight
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        return counts

    @functools.cached_property
    def _covering(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The covering pairs of every ballot, as index arrays (ballot, p, q):
        the ballot states p > q and nothing between them.  Every pair LP of
        the election reads them."""
        stated = _relation(self.levels)
        return np.nonzero(stated & ~np.matmul(stated, stated))

    @functools.cached_property
    def ktop(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per-voter top lists read from the levels; None for voters without one."""
        order = self._order.tolist()
        return tuple(tuple(order[j][:k]) if k else None for j, k in zip(self.ballot_of.tolist(), self.listed.tolist()))

    @functools.cached_property
    def _total(self) -> np.ndarray:
        """Per ballot, whether it is a total order: a weak order states as
        many pairs as its levels sum to."""
        return self.levels.sum(axis=1) == self.m * (self.m - 1) // 2

    @functools.cached_property
    def _top(self) -> np.ndarray:
        """Per ballot, the only candidate at level 0, or -1."""
        return _sole(self.levels == 0)

    @functools.cached_property
    def _second(self) -> np.ndarray:
        """Per ballot with a top, the only candidate at level 1, or -1."""
        return np.where(self._top >= 0, _sole(self.levels == 1), -1)

    @property
    def all_total(self) -> bool:
        return bool(self._total.all())

    def restrict(self, voters: Sequence[int]) -> "Election":
        """Sub-election on the given voter multiset (order preserved)."""
        voters = _voter_ids(voters, self.n)
        cast = self.ballot_of[voters]
        first, ballot_of = _first_appearance(cast)
        return Election._of(len(ballot_of), self.m, self.levels[cast[first]], ballot_of, self.listed[voters])


def _voter_ids(voters, n: int) -> np.ndarray:
    """Voter ids as an index array; every id must lie in [0, n)."""
    ids = np.asarray(voters, dtype=np.intp).reshape(-1)
    bad = ids[(ids < 0) | (ids >= n)]
    if len(bad):
        raise DataFormatError(f"voter id {bad[0]} out of range [0, {n})")
    return ids


def truncate_to_ktop(e: Election, k: int) -> Election:
    """Keep only the top ``k`` of every voter's total order.

    On a total order a candidate's level is its rank position; capping the
    levels at k leaves the k top-ranked candidates in order, above one
    group of the rest.
    """
    if not 1 <= k <= e.m:
        raise DataFormatError(f"k must be in [1, {e.m}], got {k}")
    short = np.flatnonzero(e.listed != e.m)
    if len(short):
        raise DataFormatError(f"voter {short[0]} has no total order to truncate")
    levels = np.minimum(e.levels, k)
    first, number = _first_appearance(levels)
    return Election._of(e.n, e.m, levels[first], number[e.ballot_of], np.full(e.n, k))


def mask_voters(e: Election, voters: Iterable[int]) -> Election:
    """Blank out the given voters (their pair set becomes empty)."""
    gone = np.zeros(e.n, dtype=bool)
    gone[_voter_ids(list(voters), e.n)] = True
    levels = e.levels
    silent = np.flatnonzero(~levels.any(axis=1))
    if len(silent) == 0:
        silent = [len(levels)]
        levels = np.concatenate([levels, np.zeros((1, e.m), dtype=levels.dtype)])
    cast = np.where(gone, silent[0], e.ballot_of)
    first, ballot_of = _first_appearance(cast)
    return Election._of(e.n, e.m, levels[cast[first]], ballot_of, np.where(gone, 0, e.listed))


# -- comparison graph and plurality counts ----------------------------------


@dataclass(frozen=True)
class ComparisonGraph:
    """Per-ordered-pair support counts out of ``n`` voters."""

    n: int
    counts: tuple[tuple[int, ...], ...]


def _need_voters(e: Election) -> None:
    """Reject an election with no voters, which has no tournament, pair LP or voter draw."""
    if e.n < 1:
        raise DataFormatError("the election needs at least one voter")


def _check_candidates(e: Election | MetricWitness, *candidates: int) -> None:
    """Reject a candidate id outside [0, m) of an election or a witness: a
    negative one would silently index from the end."""
    for c in candidates:
        if not 0 <= c < e.m:
            raise ConfigError(f"candidate {c} out of range [0, {e.m})")


def _pair_counts(e: Election) -> np.ndarray:
    """``e.pair_counts``, for the rules that need at least one voter."""
    _need_voters(e)
    return e.pair_counts


def comparison_graph(e: Election) -> ComparisonGraph:
    """Fraction of voters who certainly prefer a to b, for every ordered pair."""
    return ComparisonGraph(e.n, tuple(map(tuple, _pair_counts(e).tolist())))


def plurality_counts(e: Election) -> tuple[int, ...]:
    """Voters whose unique top is each candidate; voters without one count for none."""
    counts = np.zeros(e.m, dtype=np.int64)
    keep = e._top >= 0
    np.add.at(counts, e._top[keep], e.multiplicity[keep])
    return tuple(counts.tolist())


# -- metrics ----------------------------------------------------------------


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def _shortest_paths(d: np.ndarray) -> None:
    """Close ``d`` under all-pairs shortest paths in place (Floyd–Warshall)."""
    for k in range(len(d)):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)


@dataclass(frozen=True, eq=False)
class MetricWitness:
    """Symmetric distance table on voters followed by candidates.

    ``dist`` is one read-only (n + m, n + m) array whose dtype says whether
    the table is exact.  When every entry given is an int or a Fraction the
    dtype is object and the array holds those numbers, so social costs and
    ratios are exact; otherwise it is float64.  A C-contiguous array given
    with its final dtype is kept without a copy and made read-only.
    Off-diagonal zeros are allowed (pseudo-metric with merged points).
    """

    n: int
    m: int
    dist: np.ndarray

    def __post_init__(self) -> None:
        size = self.n + self.m
        dist = self.dist
        if getattr(dist, "dtype", object) == object:
            dist = np.ascontiguousarray(dist, dtype=object)
            if dist.shape == (size, size) and not all(map(_is_exact, dist.flat)):
                dist = dist.astype(np.float64)
        else:
            dist = np.ascontiguousarray(dist, dtype=np.float64)
        if dist.shape != (size, size):
            raise DataFormatError(f"distance table must be {size}x{size}")
        dist.setflags(write=False)
        object.__setattr__(self, "dist", dist)

    @classmethod
    def from_points(cls, voter_points, candidate_points) -> "MetricWitness":
        """Euclidean distances between explicit coordinates, exact for exact input in 1-D."""
        vp = [tuple(p) if isinstance(p, (tuple, list, np.ndarray)) else (p,) for p in voter_points]
        cp = [tuple(p) if isinstance(p, (tuple, list, np.ndarray)) else (p,) for p in candidate_points]
        pts = vp + cp
        if len(set(map(len, pts))) > 1:
            raise DataFormatError("every point needs the same number of coordinates")
        exact = all(len(p) == 1 for p in pts) and all(_is_exact(x) for p in pts for x in p)
        arr = np.array(pts, dtype=object if exact else np.float64)
        # one coordinate at a time: SciPy's cdist sums in this order, so a float
        # table equals it bitwise (a pairwise .sum(axis=-1) does not from 8-D up)
        table = np.zeros((len(pts), len(pts)), dtype=arr.dtype)
        for col in arr.T:
            diff = col[:, None] - col[None, :]
            table += np.abs(diff) if exact else diff * diff
        return cls(len(vp), len(cp), table if exact else np.sqrt(table))

    @classmethod
    def from_edges(cls, n: int, m: int, edges: list) -> "MetricWitness":
        """Exact shortest-path metric of a connected graph on voters, then candidates.

        ``edges`` is a list of ``(p, q, length)`` with int or Fraction lengths
        >= 0; a repeated edge keeps its shortest length.  Entries are
        Fractions when any length is one, ints otherwise.  The closure runs on
        ints scaled by the common denominator: Fraction arithmetic is slower.
        """
        size = n + m
        if not all(_is_exact(w) and w >= 0 for _, _, w in edges):
            raise DataFormatError("edge lengths must be ints or Fractions >= 0")
        scale = math.lcm(*(w.denominator for _, _, w in edges))
        d = np.full((size, size), math.inf, dtype=object)
        np.fill_diagonal(d, 0)
        for p, q, w in edges:
            w = int(w * scale)
            if w < d[p, q]:
                d[p, q] = d[q, p] = w
        _shortest_paths(d)
        if (d == math.inf).any():
            raise DataFormatError("graph is not connected")
        if any(isinstance(w, Fraction) for _, _, w in edges):
            d = d * Fraction(1, scale)
        return cls(n, m, d)

    def as_array(self) -> np.ndarray:
        """The table in float64: ``dist`` itself, or a rounded copy of an exact table."""
        return np.asarray(self.dist, dtype=np.float64)

    @property
    def exact(self) -> bool:
        return self.dist.dtype == object

    def validate_metric(self) -> None:
        """Check symmetry, zero diagonal, nonnegativity, triangle inequality.

        Exact tables of at most 80 points are checked with no slack; any
        other table in floats, within ``TAU_METRIC`` times its largest entry
        (at least 1).
        """
        d = self.dist
        if self.exact and len(d) <= 80:
            # compared as ints scaled by the common denominator, Fraction arithmetic
            # being slower; // 1 turns each integral Fraction into an int
            d, slack = d * math.lcm(*(x.denominator for x in d.flat)) // 1, 0
        else:
            d = self.as_array()
            slack = TAU_METRIC * max(1.0, float(d.max(initial=0.0)))
        if (np.abs(np.diag(d)) > slack).any():
            raise DataFormatError("nonzero diagonal")
        if (np.abs(d - d.T) > slack).any() or (d < -slack).any():
            raise DataFormatError("asymmetric or negative entries")
        for k in range(len(d)):
            if (d > d[:, k : k + 1] + d[k : k + 1, :] + slack).any():
                raise DataFormatError(f"triangle violated through point {k}")


def social_cost(metric: MetricWitness, a: int):
    """Sum of voter distances to candidate ``a`` (exact for exact tables)."""
    _check_candidates(metric, a)
    cost = metric.dist[: metric.n, metric.n + a].sum()
    return cost if metric.exact else float(cost)


def social_costs(metric: MetricWitness):
    return tuple(social_cost(metric, a) for a in range(metric.m))


def realized_distortion(metric: MetricWitness, winner: int):
    """SC(winner) / min_a SC(a); ``inf`` when the optimum has zero cost."""
    _check_candidates(metric, winner)
    costs = social_costs(metric)
    best = min(costs)
    sw = costs[winner]
    if best == 0:
        return Fraction(1) if sw == 0 else math.inf
    if metric.exact:
        return Fraction(sw) / Fraction(best)
    return float(sw) / float(best)


def check_consistent(metric: MetricWitness, e: Election) -> bool:
    """True iff every stated pair is respected by the metric.

    Exact tables are compared with no slack; float tables within
    ``TAU_METRIC`` times the larger of the two distances (at least 1).
    """
    if metric.n != e.n or metric.m != e.m:
        raise DataFormatError("metric dimensions do not match the election")
    voter, a, b = np.nonzero(_relation(e.levels)[e.ballot_of])
    vc = metric.dist[: e.n, e.n :]
    da, db = vc[voter, a], vc[voter, b]
    if not metric.exact:
        db = db + TAU_METRIC * np.maximum(np.maximum(1.0, np.abs(da)), np.abs(db))
    return not (da > db).any()


# -- profile induction -------------------------------------------------------


def rankings_from_witness(metric: MetricWitness, tiebreak: str = "index_asc") -> list[tuple[int, ...]]:
    """Total orders induced by distance, equal distances broken by index.

    ``index_asc`` prefers the smaller candidate index on ties (default);
    ``index_desc`` the larger, which some adversarial constructions need.
    """
    if tiebreak not in ("index_asc", "index_desc"):
        raise DataFormatError(f"unknown tiebreak {tiebreak!r}")
    idx = np.arange(metric.m) * (1 if tiebreak == "index_asc" else -1)
    return [tuple(np.lexsort((idx, row)).tolist()) for row in metric.dist[: metric.n, metric.n :]]


def induce_election(metric: MetricWitness, tiebreak: str = "index_asc") -> Election:
    return Election.from_rankings(rankings_from_witness(metric, tiebreak), metric.m)


# -- transcripts -------------------------------------------------------------


@dataclass
class Transcript:
    """Ordered log of the comparisons a knockout elicits (single-writer)."""

    events: list = field(default_factory=list)

    def record_comparison(self, a: int, b: int, loser: int) -> None:
        self.events.append({"type": "compare", "a": a, "b": b, "loser": loser})

    @property
    def comparisons(self) -> int:
        return len(self.events)


# -- line-based text format ---------------------------------------------------


def election_to_text(e: Election) -> str:
    """Serialise to the line format: header ``n m``, one ballot line per voter.

    Annotated voters are written as their ordered list (omitted candidates
    are implicitly ranked below); other voters as their weak order, with
    ``=`` between tied candidates.
    """
    stated = e.levels.any(axis=1)
    order = e._order.tolist()
    texts: dict[tuple[int, int], str] = {}
    lines = [f"{e.n} {e.m}"]
    for i, (j, k) in enumerate(zip(e.ballot_of.tolist(), e.listed.tolist())):
        if (j, k) not in texts:
            if k:
                texts[j, k] = " > ".join(str(c) for c in order[j][:k])
            elif not stated[j]:
                texts[j, k] = ""
            else:
                level = e.levels[j].tolist()
                groups: dict[int, list[str]] = {}
                for c in order[j]:
                    groups.setdefault(level[c], []).append(str(c))
                texts[j, k] = " > ".join(" = ".join(g) for g in groups.values())
        lines.append(texts[j, k])
    return "\n".join(lines) + "\n"


def election_from_text(text: str) -> Election:
    """Parse the line format written by :func:`election_to_text`.

    Each ballot line becomes a level vector: a listed candidate's level is
    the number of candidates listed before its ``=`` group, and every
    omitted candidate's is the number listed (an empty line puts all
    candidates at level 0).  These are the canonical levels of the
    module docstring, so equal pair sets give equal vectors.
    """
    lines = text.splitlines()
    if not lines:
        raise DataFormatError("empty election file")
    head = lines[0].split()
    if len(head) != 2:
        raise DataFormatError("header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise DataFormatError(f"bad header: {lines[0]!r}") from exc
    if n < 0 or m < 1:
        raise DataFormatError("need n >= 0 and m >= 1")
    body = lines[1:]
    while len(body) > n and not body[-1].strip():
        body.pop()
    if len(body) != n:
        raise DataFormatError(f"expected {n} ballot lines, found {len(body)}")
    listed_all, marks, counts, lengths = [], [], [], []
    for i, line in enumerate(body):
        # candidates at even positions, separators at odd ones
        tokens = line.replace(">", " > ").replace("=", " = ").split()
        between = tokens[1::2]
        gt = between.count(">")
        try:
            listed = list(map(int, tokens[::2]))
        except ValueError as exc:
            raise DataFormatError(f"voter {i}: bad token in {line.strip()!r}") from exc
        if len(between) != max(len(listed) - 1, 0) or gt + between.count("=") != len(between):
            raise DataFormatError(f"voter {i}: bad token in {line.strip()!r}")
        if len(set(listed)) != len(listed):
            raise DataFormatError(f"voter {i}: candidate listed twice")
        if listed and (min(listed) < 0 or max(listed) >= m):
            raise DataFormatError(f"voter {i}: candidate id out of range")
        listed_all += listed
        # one mark per listed candidate: ">" where a new group starts
        marks += [">", *between] if listed else []
        counts.append(len(listed))
        lengths.append(len(listed) if gt == len(between) else 0)
    counts = np.array(counts, dtype=np.intp)
    # every line's first mark is ">", so each group start found stays within its line
    spot = np.arange(len(marks))
    start = np.maximum.accumulate(np.where(np.array(marks, dtype="U1") == ">", spot, 0))
    line_start = np.repeat(np.cumsum(counts) - counts, counts)
    level = np.repeat(counts.astype(np.min_scalar_type(m)), m).reshape(n, m)
    level[np.repeat(np.arange(n), counts), np.array(listed_all, dtype=np.intp)] = start - line_start
    first, ballot_of = _first_appearance(level)
    return Election._of(n, m, level[first], ballot_of, lengths)
