"""CLI surface: subcommands, exit codes, and byte-identical reruns."""

import json
from pathlib import Path

import pytest

from metricvote import cli
from metricvote.cli import main
from metricvote.lp import distortion_of

FIXTURES = Path(__file__).parent / "fixtures"


def run(args):
    return main([str(a) for a in args])


class TestGen:
    def test_gen_writes_election_and_sidecar(self, tmp_path):
        out = tmp_path / "chain"
        assert run(["gen", "--generator", "chain", "--params", "ell=4", "--out", out]) == 0
        elec = (tmp_path / "chain.elec").read_text()
        assert elec.startswith("2 4\n")
        side = json.loads((tmp_path / "chain.json").read_text())
        assert side["expected"]["social_costs"] == ["1", "3", "5", "7"]
        assert side["witness"]["exact"]

    def test_gen_identical_across_runs(self, tmp_path):
        for name in ("a", "b"):
            run(["gen", "--generator", "euclidean", "--params", "n=12,m=4,dim=2", "--seed", 5, "--out", tmp_path / name])
        assert (tmp_path / "a.elec").read_bytes() == (tmp_path / "b.elec").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unknown_generator_is_config_error(self, tmp_path):
        assert run(["gen", "--generator", "nope", "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "generator, params",
        [
            ("ktop-lower-bound", "m=7,k=3,ratio=1/0"),
            ("impartial-culture", "n=a/b,m=3"),
            ("hidden-star", "m=5,chosen=2,far_ratio=0"),
        ],
    )
    def test_bad_params_are_config_errors(self, tmp_path, capsys, generator, params):
        args = ["gen", "--generator", generator, "--params", params, "--seed", 0, "--out", tmp_path / "x"]
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "generator, params, message",
        [
            ("chain", "ell=abc", "parameter 'ell' must be an integer, got 'abc'"),
            ("chain", "ell=2.5", "parameter 'ell' must be an integer, got 2.5"),
            ("euclidean", "n=4,m=3,dim=2,seed=x", "parameter 'seed' must be an integer, got 'x'"),
            ("ktop-lower-bound", "m=7,k=3,ratio=big", "parameter 'ratio' must be a number, got 'big'"),
        ],
    )
    def test_wrong_parameter_type_is_config_error(self, tmp_path, capsys, generator, params, message):
        args = ["gen", "--generator", generator, "--params", params, "--out", tmp_path / "x"]
        assert run(args) == 2
        assert capsys.readouterr().err == f"config error: generator {generator!r} {message}\n"

    def test_text_parameter_still_accepted(self, tmp_path):
        args = ["gen", "--generator", "euclidean", "--params", "n=6,m=3,dim=2,tiebreak=index_asc", "--seed", 2]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(["gen", "--generator", "euclidean", "--params", "n=6,m=3,dim=2", "--seed", 2, "--out", tmp_path / "b"]) == 0
        assert (tmp_path / "a.elec").read_bytes() == (tmp_path / "b.elec").read_bytes()


class TestRun:
    def test_dr_on_schedule(self, tmp_path):
        base = tmp_path / "dr8"
        run(["gen", "--generator", "dr-lower-bound", "--params", "m=8", "--out", base])
        out = tmp_path / "result.json"
        assert run(["run", "--mechanism", "dr", "--pairing", "schedule", "--in", base.with_suffix(".elec"), "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["winner"] == 3 and doc["comparisons"] == 7
        assert float(doc["realized_distortion"]) == 7.0
        assert len(doc["transcript"]) == 7

    @pytest.mark.parametrize(
        "tamper, message",
        [
            ("swap", "euc.json: witness contradicts a preference the election states"),
            ("drop", "metric dimensions do not match the election"),
            ("not-metric", "euc.json: witness is not a metric: asymmetric or negative entries"),
            ("truncated", "euc.json: not valid JSON: Expecting value: line 1 column 13 (char 12)"),
            ("array", "euc.json: not a JSON object"),
            ("no-n", "euc.json: witness lacks the field 'n'"),
        ],
    )
    def test_sidecar_witness_must_fit_the_election(self, tmp_path, capsys, tamper, message):
        base = tmp_path / "euc"
        run(["gen", "--generator", "euclidean", "--params", "n=6,m=3,dim=2", "--seed", 3, "--out", base])
        args = ["run", "--mechanism", "copeland", "--in", base.with_suffix(".elec"), "--out", tmp_path / "x.json"]
        assert run(args) == 0
        doc = json.loads(base.with_suffix(".json").read_text())
        dist = doc["witness"]["dist"]
        if tamper == "swap":  # voter 0's distances to candidates 0 and 1 trade places
            dist[0][6], dist[0][7] = dist[0][7], dist[0][6]
            dist[6][0], dist[7][0] = dist[7][0], dist[6][0]
        elif tamper == "drop":  # voter 0 dropped
            doc["witness"].update(n=5, dist=[row[1:] for row in dist[1:]])
        elif tamper == "not-metric":  # a negative voter-voter entry, and candidates 0 and 1 far apart
            dist[1][2] = dist[2][1] = -1.0
            dist[6][7] = dist[7][6] = 1000.0
        elif tamper == "no-n":
            del doc["witness"]["n"]
        elif tamper == "array":
            doc = [doc]
        base.with_suffix(".json").write_text('{"witness": ' if tamper == "truncated" else json.dumps(doc))
        assert run(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.rstrip().endswith(message)

    def test_missing_instance_is_config_error(self, tmp_path):
        assert run(["run", "--mechanism", "copeland", "--out", tmp_path / "x.json"]) == 2

    def test_unreadable_file_is_data_error(self, tmp_path):
        assert run(["run", "--mechanism", "copeland", "--in", tmp_path / "absent.elec"]) == 3

    def test_missing_generator_parameter_is_config_error(self, tmp_path, capsys):
        args = ["run", "--mechanism", "ktop", "--k", 2, "--generator", "ktop-lower-bound", "--params", "m=7,k=2"]
        assert run(args + ["--out", tmp_path / "x.json"]) == 2
        assert "needs parameters ['ratio']" in capsys.readouterr().err

    def test_coverage_failure_is_data_error(self, tmp_path, capsys):
        args = ["run", "--mechanism", "balanced", "--alpha", 0.9, "--generator", "ktop-lower-bound"]
        assert run(args + ["--params", "m=7,k=2,ratio=1/100", "--out", tmp_path / "x.json"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("coverage error: pair (") and err.rstrip().endswith("< alpha = 9/10")

    def test_balanced_alpha_is_the_decimal_given(self, tmp_path):
        # 9 of 10 voters compare the pair: exactly 0.9, but below the double nearest 0.9
        elec = tmp_path / "nine.elec"
        elec.write_text("10 2\n" + "0 > 1\n" * 5 + "1 > 0\n" * 4 + "\n")
        out = tmp_path / "x.json"
        assert run(["run", "--mechanism", "balanced", "--alpha", 0.9, "--in", elec, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["winner"] == 0 and doc["config"]["alpha"] == 0.9

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_balanced_alpha_not_finite_is_config_error(self, tmp_path, alpha):
        args = ["run", "--mechanism", "balanced", "--alpha", alpha, "--generator", "impartial-culture"]
        assert run(args + ["--params", "n=10,m=3", "--out", tmp_path / "x.json"]) == 2

    def test_plurality_matching_payload(self, tmp_path):
        base = tmp_path / "veto"
        run(["gen", "--generator", "veto", "--params", "m=4", "--out", base])
        out = tmp_path / "pm.json"
        assert run(["run", "--mechanism", "plurality-matching", "--in", base.with_suffix(".elec"), "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["winner"] != 0 and len(doc["phi"]) == 4

    def test_conjecture_probe(self, tmp_path):
        base = tmp_path / "ic"
        run(["gen", "--generator", "impartial-culture", "--params", "n=10,m=4", "--seed", 2, "--out", base])
        out = tmp_path / "probe.json"
        assert run(["run", "--mechanism", "conjecture-probe", "--k", 4, "--in", base.with_suffix(".elec"), "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True


class TestEval:
    def test_minimax_winner_on_veto10(self, tmp_path):
        out = tmp_path / "eval.json"
        assert run(["eval", "--generator", "veto", "--params", "m=10", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["winner"] == 0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "eval.csv"
        run(["eval", "--generator", "decisive", "--params", "alpha=1/2", "--alpha", 0.5, "--format", "csv", "--out", out])
        text = out.read_text().splitlines()
        assert text[0].startswith("# metricvote")
        assert text[-4] == "candidate,distortion,worst_opponent,winner"

    def test_jobs_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--generator", "veto", "--params", "m=3", "--jobs", 2, "--out", tmp_path / "x.json"])
        assert exc.value.code == 2


class TestGoldenOutputs:
    """LP-valued CLI outputs against files recorded at an earlier commit, byte
    for byte: an intended change to the numbers shows up as a fixture diff."""

    @pytest.mark.parametrize(
        "argv, fixture",
        [
            (["sweep-k", "--n", 40, "--m", 7, "--trials", 2, "--jobs", 1, "--seed", 16], "golden-sweep-k.csv"),
            (["eval", "--generator", "impartial-culture", "--params", "n=12,m=5", "--seed", 3, "--format", "json"],
             "golden-eval.json"),
            (["run", "--mechanism", "dr", "--pairing", "shuffle", "--generator", "impartial-culture",
              "--params", "n=15,m=8", "--seed", 7], "golden-run-dr-shuffle.json"),
            (["sweep-missing", "--n", 20, "--m", 5, "--trials", 2, "--seed", 3, "--jobs", 1], "golden-sweep-missing.csv"),
            # these pin the voters each trial draws under its seed (seed, trial)
            (["sample", "--mode", "copeland", "--generator", "impartial-culture", "--params", "n=30,m=4", "--seed", 5,
              "--epsilon", 4, "--delta", 0.5, "--trials", 8], "golden-sample-copeland.csv"),
            (["sample", "--mode", "plurality-matching", "--generator", "impartial-culture", "--params", "n=300,m=6",
              "--seed", 3, "--epsilon", 4, "--delta", 0.5, "--trials", 8], "golden-sample-pm.csv"),
        ],
        ids=["sweep-k", "eval", "run-dr-shuffle", "sweep-missing", "sample-copeland", "sample-pm"],
    )
    def test_reproduces_recorded_output(self, tmp_path, argv, fixture):
        out = tmp_path / fixture
        assert run(argv + ["--out", out]) == 0
        assert out.read_bytes() == (FIXTURES / fixture).read_bytes()


class TestNoVoters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval"],
            ["eval", "--format", "csv"],
            ["sample", "--mode", "copeland"],
            ["sample", "--mode", "plurality-matching"],
            ["run", "--mechanism", "copeland"],
        ],
    )
    def test_election_without_voters_is_data_error(self, tmp_path, capsys, argv):
        elec = tmp_path / "empty.elec"
        elec.write_text("0 3\n")
        assert run(argv + ["--in", elec, "--out", tmp_path / "out"]) == 3
        assert capsys.readouterr().err == "data error: the election needs at least one voter\n"


class TestSweeps:
    def test_sweep_k_rows_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep-k", "--n", 6, "--m", 3, "--trials", 2, "--seed", 1, "--out"]
        assert run(argv + [a]) == 0
        assert run(argv + [b]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "realization,seed,k,winner,distortion"
        assert len(rows) == 1 + 3 * 2  # header + m rows per realization

    def test_sweep_k_ktop_column_reuses_minimax_value(self, tmp_path, monkeypatch):
        calls = []

        def counted(e, a, alpha=None):
            calls.append(a)
            return distortion_of(e, a, alpha=alpha)

        monkeypatch.setattr(cli, "distortion_of", counted)
        out = tmp_path / "k.csv"
        argv = ["sweep-k", "--n", 9, "--m", 4, "--trials", 2, "--mechanism", "minimax+ktop", "--out", out]
        assert run(argv) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        differ = [r for r in rows if r[3] != r[5]]
        assert len(calls) == len(differ)
        assert all(r[4] == r[6] for r in rows if r[3] == r[5])

    def test_sweep_k_jobs_change_only_the_header(self, tmp_path):
        argv = ["sweep-k", "--n", 8, "--m", 4, "--trials", 2, "--mechanism", "minimax+ktop", "--out"]
        texts = {}
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}.csv"
            assert run(argv + [out, "--jobs", jobs]) == 0
            texts[jobs] = out.read_text().splitlines()
        assert [l for l in texts[1] if l != "# jobs=1"] == [l for l in texts[2] if l != "# jobs=2"]
        assert len(texts[1]) == len(texts[2]) == len([l for l in texts[2] if l != "# jobs=2"]) + 1

    def test_sweep_k_one_pool_for_every_realization(self, tmp_path, monkeypatch):
        pools, dispatched = [], []
        real_pool, real_pmap = cli.ProcessPoolExecutor, cli._pmap

        def pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        def pmap(fn, tasks, jobs):
            dispatched.append([k for _, k, _ in tasks])
            return real_pmap(fn, tasks, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(cli, "_pmap", pmap)
        argv = ["sweep-k", "--n", 7, "--m", 3, "--trials", 3, "--seed", 2, "--out"]
        texts = {}
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}.csv"
            assert run(argv + [out, "--jobs", jobs]) == 0
            texts[jobs] = [l for l in out.read_text().splitlines() if not l.startswith("# jobs=")]
        assert len(pools) == 1
        assert dispatched == [[3, 3, 3, 2, 2, 2, 1, 1, 1]] * 2  # one map per run, largest k first
        assert texts[1] == texts[2]
        rows = [l.split(",") for l in texts[1] if not l.startswith("#")][1:]
        assert [(r[0], r[1], r[2]) for r in rows] == [(str(t), str(2 + t), str(k)) for t in range(3) for k in range(1, 4)]

    def test_sweep_k_final_k_within_three(self, tmp_path):
        out = tmp_path / "k.csv"
        run(["sweep-k", "--n", 8, "--m", 3, "--trials", 1, "--out", out])
        last = out.read_text().strip().splitlines()[-1].split(",")
        assert int(last[2]) == 3 and float(last[4]) <= 3 + 1e-6

    def test_sweep_missing_envelope(self, tmp_path):
        out = tmp_path / "m.csv"
        run(["sweep-missing", "--n", 10, "--m", 3, "--trials", 1, "--epsilon-grid", "0.4,0", "--out", out])
        rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
        for row in rows:
            assert float(row[6]) <= float(row[7]) + 1e-6  # distortion within the envelope
        assert float(rows[-1][7]) == 3.0  # eps = 0 envelope


    def test_sweep_missing_one_pool_for_every_realization(self, tmp_path, monkeypatch):
        pools, dispatched = [], []
        real_pool, real_pmap = cli.ProcessPoolExecutor, cli._pmap

        def pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        def pmap(fn, tasks, jobs):
            dispatched.append([eps for _, _, eps in tasks])
            return real_pmap(fn, tasks, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(cli, "_pmap", pmap)
        argv = ["sweep-missing", "--n", 12, "--m", 4, "--trials", 3, "--seed", 5, "--epsilon-grid", "0.25,0.5", "--out"]
        texts = {}
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}.csv"
            assert run(argv + [out, "--jobs", jobs]) == 0
            texts[jobs] = [l for l in out.read_text().splitlines() if not l.startswith("# jobs=")]
        assert len(pools) == 1
        assert dispatched == [[0.25, 0.5] * 3] * 2  # one map per run
        assert texts[1] == texts[2]
        rows = [l.split(",") for l in texts[1] if not l.startswith("#")][1:]
        assert [(r[0], r[1], r[2]) for r in rows] == [(str(t), str(5 + t), e) for t in range(3) for e in ("0.25", "0.5")]

    def test_sweep_missing_bad_grid_is_config_error(self, tmp_path, capsys):
        args = ["sweep-missing", "--n", 10, "--m", 3, "--trials", 1, "--epsilon-grid", "0.5,abc"]
        assert run(args + ["--out", tmp_path / "m.csv"]) == 2
        assert "bad --epsilon-grid '0.5,abc'" in capsys.readouterr().err


class TestSample:
    def test_sample_csv_reproducible(self, tmp_path):
        base = tmp_path / "eu"
        run(["gen", "--generator", "euclidean", "--params", "n=400,m=4,dim=2", "--seed", 3, "--out", base])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "sample", "--mode", "plurality-matching", "--in", base.with_suffix(".elec"),
            "--epsilon", 2, "--delta", 0.1, "--trials", 4, "--seed", 9, "--out",
        ]
        assert run(argv + [a]) == 0
        assert run(argv + [b]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "trial,seed,c,winner,realized_distortion,phi_hat_max"
        assert len(rows) == 5 and all(len(r.split(",")) == 6 for r in rows)

    def test_lp_distortion_once_per_winner(self, tmp_path, monkeypatch):
        calls = []

        def counted(e, a, alpha=None):
            calls.append(a)
            return distortion_of(e, a, alpha=alpha)

        monkeypatch.setattr(cli, "distortion_of", counted)
        base = tmp_path / "ic"
        run(["gen", "--generator", "impartial-culture", "--params", "n=30,m=4", "--seed", 1, "--out", base])
        out = tmp_path / "s.csv"
        argv = ["sample", "--mode", "copeland", "--in", base.with_suffix(".elec"), "--trials", 8, "--out", out]
        assert run(argv) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 8
        assert sorted(calls) == sorted({int(r[3]) for r in rows})

    def test_zero_trials_header_only(self, tmp_path):
        base = tmp_path / "eu"
        run(["gen", "--generator", "euclidean", "--params", "n=400,m=4,dim=2", "--seed", 3, "--out", base])
        out = tmp_path / "empty.csv"
        run(["sample", "--mode", "copeland", "--in", base.with_suffix(".elec"), "--trials", 0, "--out", out])
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows == ["trial,seed,c,winner,realized_distortion,phi_hat_max"]

    def test_partial_orders_are_config_error(self, tmp_path):
        elec = tmp_path / "top1.elec"
        elec.write_text("3 3\n0\n1\n2\n")
        for mode in ("copeland", "plurality-matching"):
            assert run(["sample", "--mode", mode, "--in", elec, "--trials", 1, "--out", tmp_path / "s.csv"]) == 2


class TestIngest:
    def test_ingest_fixture(self, tmp_path):
        out = tmp_path / "contest"
        argv = [
            "ingest", "--in", FIXTURES / "mini_contest.csv",
            "--schema", "generic:voter,entry,points", "--out", out,
        ]
        assert run(argv) == 0
        side = json.loads(out.with_suffix(".json").read_text())
        assert side["n"] == 5 and side["m"] == 4
        assert (out.with_suffix(".elec")).read_text().startswith("5 4\n")

    def test_ingest_with_drop(self, tmp_path):
        out = tmp_path / "contest"
        argv = [
            "ingest", "--in", FIXTURES / "mini_contest.csv",
            "--schema", "generic:voter,entry,points", "--drop", "west", "--out", out,
        ]
        assert run(argv) == 0
        side = json.loads(out.with_suffix(".json").read_text())
        assert side["m"] == 3 and "west" not in side["candidates"]

    def test_bad_schema_is_config_error(self, tmp_path):
        assert run(["ingest", "--in", FIXTURES / "mini_contest.csv", "--schema", "wat", "--out", tmp_path / "x"]) == 2

    def test_bad_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("voter,entry,points\nv,a,xyz\n")
        assert run(["ingest", "--in", bad, "--schema", "generic:voter,entry,points", "--out", tmp_path / "x"]) == 3
