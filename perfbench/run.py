"""Benchmark entry point for ``metricvote``.

Run one workload::

    python3 perfbench/run.py --workload eval-ic --seed 0 --seconds 30 --trace 0

or every workload, one process each, with a summary table::

    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of ``tracing.LAYER_METRICS``, writing the
spans to ``perfbench/_work/<workload>-seed<seed>/trace.jsonl``.  Every
repetition's outputs are checked against the recorded reference; the last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is non-zero when any output failed.
``--tiny`` runs the small smoke-test sizes.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import metricvote.cli"
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import ``metricvote`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "metricvote" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no metricvote sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import metricvote

    if not Path(metricvote.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported metricvote from {metricvote.__file__}, not {SRC}")


class Tally:
    """Outputs attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        self.problems.extend(problems)


def setup(wl, instance: int, work: Path, tiny: bool):
    """One set-up: a fresh-interpreter import, input generation, a warm-up run."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, check=True)
    inputs = wl.prepare(instance, work, tiny)
    warm = work / "warm-up"
    warm.mkdir(exist_ok=True)
    wl.run(wl.prepare(instance, warm, tiny=True))
    return time.perf_counter() - t0, inputs


def one_rep(wl, inputs, ref, tau, tally: Tally, tracer=None) -> float:
    """Run the timed section once and check its outputs; returns its wall time."""
    wl.clear(inputs)
    gc.collect()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        raw, error = wl.run(inputs), None
    except Exception as exc:  # a raising program is a failed output; keep measuring
        raw, error = None, exc
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.remove()
        tracer.collect()
    if error is None:
        try:
            got = wl.outputs(inputs, raw)
        except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
            error = exc
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        n = wl.expected_outputs(inputs)
        tally.add(n, n, [f"{type(error).__name__}: {error}"])
    else:
        tally.add(*wl.check(got, ref, tau))
    return wall


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its largest waited-for child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    load_program()
    from metricvote.lp import TAU_LP
    from tracing import LAYER_METRICS, Tracer, layer_metrics, property_rows
    from workloads import POOL, WORKLOADS

    wl = WORKLOADS[name]
    instance = seed % POOL
    ref = wl.reference(tiny)[str(instance)]
    work = WORK / f"{name}-seed{seed}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, inputs = setup(wl, instance, work, tiny)
        setup_times.append(elapsed)

    tally = Tally()
    walls, traced_walls, tracers = [], [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        walls.append(one_rep(wl, inputs, ref, TAU_LP, tally))
        if trace:
            rep = len(tracers)
            tracer = Tracer(f"{name}-seed{seed}-rep{rep}", work / f"trace-rep{rep}")
            traced_walls.append(one_rep(wl, inputs, ref, TAU_LP, tally, tracer))
            tracers.append(tracer)
            for span_name, count in wl.expected_spans(inputs).items():
                seen = sum(1 for s in tracer.spans if s["name"] == span_name)
                if seen != count:
                    tally.add(1, 1, [f"trace rep {rep}: {seen} {span_name} spans, expected {count}"])
        last = time.perf_counter() - rep_start
        if time.perf_counter() - start + last > seconds:
            break

    if trace:
        with (work / "trace.jsonl").open("w", encoding="utf-8") as fh:
            for tracer in tracers:
                for span in sorted(tracer.spans, key=lambda s: s["start"]):
                    fh.write(json.dumps(span) + "\n")
        for row in property_rows(tracers[0].spans):
            print("property " + " ".join(f"{k}={v}" for k, v in row.items()))
        per_rep = [layer_metrics(t.spans) for t in tracers]
        values = {key: statistics.median(r[key] for r in per_rep) for key in per_rep[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in LAYER_METRICS.items()}
        print(f"trace: {len(tracers)} traced repetitions, spans in {work / 'trace.jsonl'}")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        print(f"{name}: instance {instance}, {len(walls)} timed repetitions: {', '.join(f'{w:.3f}' for w in walls)} s")

    for problem in tally.problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']} {metric['unit']}")
    print(f"failed_frac = {failed_frac} ratio ({tally.failed} of {tally.attempted} outputs)")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints one table and a combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exited with code {proc.returncode} and no result", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
            rows.append((name, key, metric["value"], metric["unit"]))
        failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
        rows.append((name, "failed_frac", failed_frac, "ratio"))
    for name, key, value, unit in rows:
        print(f"{name:<16} {key:<40} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured section")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
