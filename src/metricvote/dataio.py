"""Ingestion of score-based ballots into partial-order elections.

A score table holds (voter, candidate, integer score) rows; within one
voter higher score means more preferred, scored candidates rank above all
unscored ones, and unscored candidates stay mutually incomparable (this
realises the race-results convention where two non-finishers cannot be
compared).  Candidate and voter ids are assigned by first appearance so
ingestion is deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Election
from .errors import ConfigError, DataFormatError

#: Contest scoring weights: 12 points to the top choice, down to 1 for the
#: tenth, and the race-championship vector.
EUROVISION_WEIGHTS = (12, 10, 8, 7, 6, 5, 4, 3, 2, 1)
F1_WEIGHTS = (25, 18, 15, 12, 10, 8, 6, 4, 2, 1)


@dataclass(frozen=True)
class ScoringRule:
    """Positional weights applied by rank; must be nonincreasing."""

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.weights)
        if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
            raise ConfigError("scoring weights must be nonincreasing")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class Schema:
    """Column mapping for CSV ingestion.

    With ``rank_column`` set, rows carry finishing ranks instead of scores
    (1 = best); non-numeric rank cells mean "did not finish" and the row
    is dropped, leaving that candidate unscored for the voter.
    """

    voter: str
    candidate: str
    score: str | None = None
    rank_column: str | None = None
    drop_zero_scores: bool = False


SCHEMAS = {
    # Kaggle Eurovision layout: one row per (jury country, finalist, points)
    "eurovision": Schema(voter="From country", candidate="To country", score="Points", drop_zero_scores=True),
    # Kaggle F1 results layout: one row per (race, driver, finishing position)
    "f1": Schema(voter="raceId", candidate="driverId", rank_column="positionText"),
}


def parse_schema(spec: str) -> Schema:
    """Parse a CLI schema spec: a named schema or ``generic:voter,candidate,score``."""
    if spec in SCHEMAS:
        return SCHEMAS[spec]
    if spec.startswith("generic:"):
        cols = spec[len("generic:") :].split(",")
        if len(cols) != 3:
            raise ConfigError("generic schema needs exactly three column names")
        return Schema(voter=cols[0], candidate=cols[1], score=cols[2])
    raise ConfigError(f"unknown schema {spec!r} (named: {sorted(SCHEMAS)} or generic:v,c,s)")


@dataclass(frozen=True)
class ScoreTable:
    """Deduplicated (voter, candidate, score) rows with first-appearance id order."""

    rows: tuple[tuple[str, str, int], ...]
    voters: tuple[str, ...] = field(init=False)
    candidates: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        seen = set()
        for v, c, s in self.rows:
            if (v, c) in seen:
                raise DataFormatError(f"duplicate row for voter {v!r} and candidate {c!r}")
            seen.add((v, c))
            if s < 0:
                raise DataFormatError(f"negative score for voter {v!r}, candidate {c!r}")
        # dict keys keep insertion order, so these number ids by first appearance
        object.__setattr__(self, "voters", tuple(dict.fromkeys(v for v, _, _ in self.rows)))
        object.__setattr__(self, "candidates", tuple(dict.fromkeys(c for _, c, _ in self.rows)))


def load_csv(path, schema: Schema) -> ScoreTable:
    """Read a UTF-8 CSV with a header row into a score table."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [schema.voter, schema.candidate, schema.rank_column or schema.score]
        for col in needed:
            if col not in header:
                raise DataFormatError(f"{path.name}: missing column {col!r}")
        raw = []
        for lineno, row in enumerate(reader, start=2):
            voter = row[schema.voter]
            cand = row[schema.candidate]
            cell = row[schema.rank_column or schema.score]
            if schema.rank_column is not None:
                try:
                    rank = int(cell)
                except (TypeError, ValueError):
                    continue  # non-finisher: leave unscored
                if rank < 1:
                    raise DataFormatError(f"{path.name}:{lineno}: rank {rank} below 1")
                raw.append((voter, cand, rank))
            else:
                try:
                    score = int(cell)
                except (TypeError, ValueError) as exc:
                    raise DataFormatError(f"{path.name}:{lineno}: non-integer score {cell!r}") from exc
                if schema.drop_zero_scores and score == 0:
                    continue
                raw.append((voter, cand, score))
    if schema.rank_column is not None:
        # convert ranks to descending scores per voter (rank 1 is best)
        worst: dict[str, int] = {}
        for voter, _, rank in raw:
            worst[voter] = max(worst.get(voter, 0), rank)
        raw = [(voter, cand, worst[voter] - rank + 1) for voter, cand, rank in raw]
    return ScoreTable(tuple(raw))


def scores_to_election(table: ScoreTable) -> Election:
    """Turn score rows into an election of ordered-top-list ballots.

    Within a voter, scored candidates are ordered by descending score
    (ties are rejected, naming the voter) and ranked above every unscored
    candidate; unscored candidates stay mutually incomparable.
    """
    vidx = {v: i for i, v in enumerate(table.voters)}
    cidx = {c: i for i, c in enumerate(table.candidates)}
    by_voter: list[list[tuple[int, int]]] = [[] for _ in table.voters]
    for v, c, s in table.rows:
        by_voter[vidx[v]].append((s, cidx[c]))
    lists = []
    for i, entries in enumerate(by_voter):
        seen_scores = [s for s, _ in entries]
        if len(set(seen_scores)) != len(seen_scores):
            raise DataFormatError(f"voter {table.voters[i]!r} has tied scores")
        entries.sort(key=lambda sc: (-sc[0], sc[1]))
        lists.append(tuple(c for _, c in entries))
    return Election.from_ktop(lists, len(table.candidates))


def positional_score(e: Election, rule: ScoringRule) -> tuple[tuple[int, ...], int]:
    """Apply positional weights to every voter's ranked prefix.

    Returns per-candidate totals and the winner (max total, ties to the
    smaller index).  Prefixes shorter than the weight vector are scored as
    far as they reach.
    """
    unlisted = np.flatnonzero((e.listed == 0) & e.levels.any(axis=1)[e.ballot_of])
    if len(unlisted):
        raise DataFormatError(f"voter {unlisted[0]} has no ranked prefix to score")
    # one weight per rank position, and 0 past the weights (and at rank -1, unlisted)
    weight = np.zeros(e.m + 1, dtype=np.int64)
    weight[: min(len(rule.weights), e.m)] = rule.weights[: e.m]
    # voters per distinct (ballot, list length) pair, and each candidate's rank in its list
    keys, count = np.unique(e.ballot_of * (e.m + 1) + e.listed, return_counts=True)
    ballot, length = np.divmod(keys, e.m + 1)
    rank = e.levels[ballot].astype(np.intp)
    totals = (count @ weight[np.where(rank < length[:, None], rank, -1)]).tolist()
    return tuple(totals), totals.index(max(totals))
