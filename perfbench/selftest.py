"""Self-tests of the benchmark itself (not of metricvote).

    python3 perfbench/selftest.py

Checks that every emitted metric name is well formed and listed in
BENCHMARK.json, that a tampered reference makes the check fail, that the
tracer restores what it rebinds, and that a tiny-size run of every workload
completes in both modes.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()
run.WORK.mkdir(parents=True, exist_ok=True)

import tracing  # noqa: E402
import workloads  # noqa: E402
from metricvote.lp import TAU_LP  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Every metric the benchmark's specification names.
SPECIFIED = {
    "end_to_end": {"setup_s", "wall_s", "peak_rss_mb"},
    "per_layer": {
        "lp.pairs", "lp.solved", "lp.solved_ratio", "lp.minimax_s.total", "lp.build_s.total",
        "lp.solve_s.total", "lp.solve_s.p50", "lp.solve_s.p90", "lp.rows.mean", "lp.cols.mean",
        "lp.nnz.mean", "lp.nit.total", "lp.status.unbounded", "core.election_s.total",
        "core.truncate_s.total", "core.comparison_graph_s.total", "core.unique_ballot_share",
        "mechanisms.plurality_matching_s.total", "mechanisms.max_matching.calls",
        "mechanisms.max_matching_s.total", "mechanisms.copeland_s.total", "mechanisms.run_dr_s.total",
        "mechanisms.ktop_rule_s.total", "mechanisms.balanced_rule_s.total",
        "sampling.sampled_copeland_s.p50", "sampling.sampled_pm_s.p50", "sampling.sample_voters_s.total",
        "cli.self_s", "instances.generate_s.total", "trace.overhead_s",
    },
}


def tiny_run(workload: str, trace: int) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_every_specified_metric(self):
        for kind, names in SPECIFIED.items():
            listed = {m["name"] for m in BENCHMARK[kind]}
            self.assertEqual(listed, names, kind)
            self.assertTrue(all(NAME.fullmatch(n) for n in listed), kind)
        self.assertEqual(set(tracing.LAYER_METRICS), SPECIFIED["per_layer"])
        self.assertEqual(set(run.END_TO_END), SPECIFIED["end_to_end"])
        gated = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(gated, [name for name in workloads.WORKLOADS if name in gated])
        self.assertEqual(set(workloads.WORKLOADS) - set(gated), {"eval-ic"})


class TinyRuns(unittest.TestCase):
    def test_every_workload_completes_and_emits_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, result = tiny_run(name, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), SPECIFIED[kind])
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))


class TamperedReference(unittest.TestCase):
    """A reference that disagrees with the program must fail the check."""

    def ref(self, name):
        return json.loads(json.dumps(workloads.WORKLOADS[name].reference(tiny=True)["0"]))

    def check(self, name, got, ref):
        return workloads.WORKLOADS[name].check(got, ref, TAU_LP)[1]

    def test_eval_winner_and_values(self):
        ref = self.ref("eval-ic")
        self.assertEqual(self.check("eval-ic", ref, ref), 0)
        bad = self.ref("eval-ic")
        bad["winner"] = (bad["winner"] + 1) % len(bad["values"])
        self.assertEqual(self.check("eval-ic", ref, bad), 1)
        a, b = next((a, b) for a, row in enumerate(ref["values"]) for b, v in enumerate(row)
                    if a != b and v != "inf")
        for factor, failed in ((0.1, 0), (10.0, 1)):
            moved = self.ref("eval-ic")
            v = moved["values"][a][b]
            moved["values"][a][b] = v + factor * TAU_LP * max(1.0, abs(v))
            self.assertEqual(self.check("eval-ic", ref, moved), failed, factor)

    def test_sweep_winner_and_distortion(self):
        ref = self.ref("sweep-k")
        self.assertEqual(self.check("sweep-k", ref, ref), 0)
        bad = self.ref("sweep-k")
        bad["rows"][0]["winner"] += 1
        self.assertEqual(self.check("sweep-k", ref, bad), 1)
        row = next(r for r in self.ref("sweep-k")["rows"] if r["distortion"] != "inf")
        moved = self.ref("sweep-k")
        target = next(r for r in moved["rows"] if r["k"] == row["k"])
        target["distortion"] = row["distortion"] * (1 + 10 * TAU_LP)
        self.assertEqual(self.check("sweep-k", ref, moved), 1)

    def test_ordinal_winners_and_exact_phi(self):
        ref = self.ref("ordinal-large-n")
        self.assertEqual(self.check("ordinal-large-n", ref, ref), 0)
        bad = self.ref("ordinal-large-n")
        bad["sampled_pm"][0] += 1
        self.assertEqual(self.check("ordinal-large-n", ref, bad), 1)
        bad = self.ref("ordinal-large-n")
        bad["plurality_matching"]["phi"][0] = "1/7"
        self.assertEqual(self.check("ordinal-large-n", ref, bad), 1)

    def test_run_fails_on_tampered_reference(self):
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            path = Path(tmp) / "eval-ic.json"
            shutil.copy(workloads.REFERENCE_DIR / "eval-ic.json", path)
            doc = json.loads(path.read_text())
            for entry in doc["tiny"].values():
                entry["winner"] = (entry["winner"] + 1) % len(entry["values"])
            path.write_text(json.dumps(doc))
            saved = workloads.REFERENCE_DIR
            workloads.REFERENCE_DIR = Path(tmp)
            try:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = run.run_workload("eval-ic", 0, 0.1, False, True)
            finally:
                workloads.REFERENCE_DIR = saved
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class TracerBehaviour(unittest.TestCase):
    def test_install_and_remove_restore_every_binding(self):
        import metricvote.cli
        import metricvote.core
        import metricvote.lp

        before = (metricvote.cli.minimax, metricvote.lp.solve_lp, metricvote.core.Election.__dict__["from_rankings"])
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            with tracing.Tracer("t", Path(tmp)) as tracer:
                self.assertIsNot(metricvote.cli.minimax, before[0])
                metricvote.core.Election.from_rankings([[0, 1], [1, 0]], 2)
            self.assertEqual(tracer.missing, [])
        after = (metricvote.cli.minimax, metricvote.lp.solve_lp, metricvote.core.Election.__dict__["from_rankings"])
        self.assertEqual(before, after)
        self.assertEqual([s["name"] for s in tracer.spans], ["core.election"])

    def test_self_time_subtracts_the_union_of_overlapping_children(self):
        parent = {"start": 0.0, "end": 10.0}
        children = [{"start": 1.0, "end": 4.0}, {"start": 2.0, "end": 6.0}, {"start": 8.0, "end": 12.0}]
        self.assertAlmostEqual(tracing.self_time(parent, children), 10.0 - 5.0 - 2.0)


if __name__ == "__main__":
    unittest.main()
