"""Score-table ingestion, positional scoring, and CSV schemas."""

import json
import os
from pathlib import Path

import pytest
from conftest import prefers

from metricvote import instances as inst
from metricvote.core import Election, election_from_text, election_to_text, plurality_counts
from metricvote.dataio import (
    EUROVISION_WEIGHTS,
    F1_WEIGHTS,
    Schema,
    ScoreTable,
    ScoringRule,
    load_csv,
    parse_schema,
    positional_score,
    scores_to_election,
)
from metricvote.errors import ConfigError, DataFormatError

FIXTURES = Path(__file__).parent / "fixtures"


class TestScoreTable:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(DataFormatError):
            ScoreTable((("v", "a", 3), ("v", "a", 2)))

    def test_negative_scores_rejected(self):
        with pytest.raises(DataFormatError):
            ScoreTable((("v", "a", -1),))

    def test_first_appearance_ids(self):
        t = ScoreTable((("v2", "b", 1), ("v1", "a", 2), ("v1", "b", 1)))
        assert t.voters == ("v2", "v1") and t.candidates == ("b", "a")


class TestScoresToElection:
    def test_partial_expansion(self):
        # one voter scores a=12, b=10 out of {a, b, c}
        t = ScoreTable((("v", "a", 12), ("v", "b", 10), ("w", "c", 1)))
        e = scores_to_election(t)
        # candidate ids by first appearance: a=0, b=1, c=2
        assert e.prefs[0] == {(0, 1), (0, 2), (1, 2)}

    def test_single_row_table(self):
        e = scores_to_election(ScoreTable((("v", "a", 1),)))
        assert e.n == 1 and e.m == 1 and e.prefs[0] == frozenset()

    def test_empty_table_rejected(self):
        with pytest.raises(DataFormatError):
            scores_to_election(ScoreTable(tuple()))

    def test_tied_scores_name_voter(self):
        t = ScoreTable((("v", "a", 5), ("v", "b", 5)))
        with pytest.raises(DataFormatError, match="'v'"):
            scores_to_election(t)

    def test_dnf_pair_incomparable(self):
        table = load_csv(FIXTURES / "race_results.csv", parse_schema("f1"))
        e = scores_to_election(table)
        cand = {c: i for i, c in enumerate(table.candidates)}
        per, sai = cand["per"], cand["sai"]
        # both retired in race 1: not comparable there
        assert not prefers(e, 0, per, sai) and not prefers(e, 0, sai, per)
        # every finisher beats every retiree
        assert prefers(e, 0, cand["lec"], per)

    def test_transitively_closed_output(self):
        table = load_csv(FIXTURES / "mini_contest.csv", parse_schema("generic:voter,entry,points"))
        e = scores_to_election(table)
        for p in e.prefs:
            assert all((a, c) in p for a, b in p for b2, c in p if b == b2)


class TestLoadCsv:
    def test_three_row_fixture(self):
        t = ScoreTable((("v", "a", 1), ("v", "b", 2), ("w", "a", 3)))
        assert len(t.rows) == 3

    def test_missing_column(self):
        with pytest.raises(DataFormatError, match="missing column"):
            load_csv(FIXTURES / "mini_contest.csv", Schema(voter="voter", candidate="entry", score="nope"))

    def test_malformed_score_reports_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("voter,cand,score\nv,a,abc\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":2"):
            load_csv(bad, Schema(voter="voter", candidate="cand", score="score"))

    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_rank_below_one_reports_line(self, tmp_path, rank):
        # read as a place, it would rank b above the winner
        race = tmp_path / "race.csv"
        race.write_text(f"raceId,driverId,positionText\nr,a,1\nr,b,{rank}\nr,c,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"race\.csv:3: rank {rank} below 1"):
            load_csv(race, parse_schema("f1"))

    def test_non_finishers_stay_unscored(self, tmp_path):
        race = tmp_path / "race.csv"
        race.write_text("raceId,driverId,positionText\nr,a,2\nr,b,R\nr,c,1\n", encoding="utf-8")
        assert load_csv(race, parse_schema("f1")).rows == (("r", "a", 1), ("r", "c", 2))

    def test_eurovision_shaped_file(self, tmp_path):
        # 36 jury countries score 10 of 24 finalists each
        path = tmp_path / "esc.csv"
        lines = ["From country,To country,Points"]
        finalists = [f"F{j:02d}" for j in range(24)]
        for v in range(36):
            order = [finalists[(v * 7 + 5 * r) % 24] for r in range(24)]
            for pts, cand in zip(EUROVISION_WEIGHTS, order):
                lines.append(f"J{v:02d},{cand},{pts}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        e = scores_to_election(load_csv(path, parse_schema("eurovision")))
        assert e.n == 36 and e.m == 24
        assert all(len(e.ktop[i]) == 10 for i in range(36))

    def test_zero_scores_dropped_for_eurovision_schema(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("From country,To country,Points\nA,B,0\nA,C,12\n", encoding="utf-8")
        t = load_csv(path, parse_schema("eurovision"))
        assert len(t.rows) == 1

    def test_parse_schema_errors(self):
        with pytest.raises(ConfigError):
            parse_schema("generic:a,b")
        with pytest.raises(ConfigError):
            parse_schema("mystery")


class TestPositionalScore:
    def test_single_voter_eurovision(self):
        e = Election.from_ktop([tuple(range(10))], 12)
        totals, winner = positional_score(e, ScoringRule(EUROVISION_WEIGHTS))
        assert totals[0] == 12 and winner == 0

    def test_zero_weights(self):
        e = Election.from_rankings([(0, 1, 2)], 3)
        totals, winner = positional_score(e, ScoringRule((0, 0, 0)))
        assert totals == (0, 0, 0) and winner == 0

    def test_mini_contest_hand_totals(self):
        table = load_csv(FIXTURES / "mini_contest.csv", parse_schema("generic:voter,entry,points"))
        e = scores_to_election(table)
        totals, winner = positional_score(e, ScoringRule((12, 10, 8)))
        # hand computation over the five ballots
        by_name = dict(zip(table.candidates, totals))
        assert by_name == {"north": 54, "south": 42, "east": 28, "west": 26}
        assert table.candidates[winner] == "north"

    def test_nonincreasing_weights_enforced(self):
        with pytest.raises(ConfigError):
            ScoringRule((1, 2))

    def test_plurality_weights_match_counts(self):
        for seed in range(5):
            e = inst.impartial_culture(11, 4, seed=seed).election
            weights = ScoringRule((1,) + (0,) * 3)
            totals, _ = positional_score(e, weights)
            assert totals == plurality_counts(e)


class TestRoundTrips:
    def test_ingested_election_roundtrip(self):
        table = load_csv(FIXTURES / "race_results.csv", parse_schema("f1"))
        e = scores_to_election(table)
        assert election_from_text(election_to_text(e)) == e


@pytest.mark.skipif(
    "METRICVOTE_EUROVISION_CSV" not in os.environ,
    reason="optional dataset-gated check; set METRICVOTE_EUROVISION_CSV",
)
def test_eurovision_2004_reproduction():
    """Winner ranking reproduction on the real contest file (not CI acceptance)."""
    from metricvote.lp import distortion_table

    path = os.environ["METRICVOTE_EUROVISION_CSV"]
    table = load_csv(path, parse_schema("eurovision"))
    e = scores_to_election(table)
    report = distortion_table(e)
    winner_name = table.candidates[report.winner]
    assert winner_name == "Ukraine"
    assert abs(report.per_candidate[report.winner] - 1.1786) < 5e-4
