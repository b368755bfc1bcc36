"""The benchmark's workloads: input generation, the timed call, output checks.

Each workload draws its inputs from an instance seed in ``range(POOL)``; the
run's ``--seed`` picks the instance as ``seed % POOL``.  The pool is finite
so that every input has reference outputs, recorded from the seed commit by
``record.py`` into ``reference/<workload>.json``.

``metricvote`` is looked up through module attributes at call time
(``metricvote.cli.main``, ``core.truncate_to_ktop``, ...), so the traced run
sees the same calls as the untraced one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

POOL = 32
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def instance_rng(instance: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([instance, tag])))


def draw_rankings(rng: np.random.Generator, n: int, m: int) -> list[list[int]]:
    """n impartial-culture total orders (uniform random permutations)."""
    return rng.random((n, m)).argsort(axis=1).tolist()


def write_elec(path: Path, rankings: list[list[int]], m: int) -> None:
    """The ``.elec`` line format: header ``n m``, then ``a > b > ...`` per voter."""
    lines = [f"{len(rankings)} {m}"]
    lines += [" > ".join(map(str, r)) for r in rankings]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def encode_float(x: float):
    return "inf" if math.isinf(x) else x


def lp_close(got, ref, tau: float) -> bool:
    """LP values agree within ``tau`` relative; infinities must match exactly."""
    if got == "inf" or ref == "inf":
        return got == ref
    return abs(got - ref) <= tau * max(1.0, abs(got), abs(ref))


class Workload:
    """One benchmark workload; subclasses fill in the five hooks."""

    name = ""
    tag = 0
    full: dict = {}
    tiny: dict = {}

    def sizes(self, tiny: bool) -> dict:
        return self.tiny if tiny else self.full

    def prepare(self, instance: int, work: Path, tiny: bool) -> dict:
        """Generate the inputs (untimed); returns what ``run`` needs."""
        raise NotImplementedError

    def run(self, inputs: dict):
        """The timed section: the user's time to the result."""
        raise NotImplementedError

    def clear(self, inputs: dict) -> None:
        """Remove what the previous run left behind (untimed)."""

    def outputs(self, inputs: dict, raw) -> dict:
        """JSON-able outputs of one run (untimed)."""
        raise NotImplementedError

    def expected_outputs(self, inputs: dict) -> int:
        """How many outputs one run attempts."""
        raise NotImplementedError

    def check(self, got: dict, ref: dict, tau: float) -> tuple[int, int, list[str]]:
        """Compare with the reference: (outputs attempted, outputs failed, problems)."""
        raise NotImplementedError

    def expected_spans(self, inputs: dict) -> dict[str, int]:
        """Span counts a traced run must hold; catches spans lost in workers."""
        return {}

    def reference(self, tiny: bool) -> dict:
        path = REFERENCE_DIR / f"{self.name}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        return doc["tiny" if tiny else "full"]


class _CliWorkload(Workload):
    """A CLI command run in-process through ``metricvote.cli.main``."""

    def run(self, inputs: dict):
        import metricvote.cli

        return metricvote.cli.main(inputs["argv"])

    def clear(self, inputs: dict) -> None:
        Path(inputs["out"]).unlink(missing_ok=True)

    def _text(self, inputs: dict, rc) -> str:
        if rc != 0:
            raise RuntimeError(f"metricvote {inputs['argv'][0]} exited with code {rc}")
        return Path(inputs["out"]).read_text(encoding="utf-8")


class EvalIC(_CliWorkload):
    """``eval --format json`` on impartial-culture total orders."""

    name = "eval-ic"
    tag = 1
    full = {"n": 50, "m": 8}
    tiny = {"n": 6, "m": 4}

    def prepare(self, instance, work, tiny):
        s = self.sizes(tiny)
        rankings = draw_rankings(instance_rng(instance, self.tag), s["n"], s["m"])
        elec = work / f"{self.name}.elec"
        write_elec(elec, rankings, s["m"])
        out = work / f"{self.name}-report.json"
        argv = ["eval", "--in", str(elec), "--format", "json", "--out", str(out)]
        return {"argv": argv, "out": out}

    def outputs(self, inputs, raw):
        report = json.loads(self._text(inputs, raw))["report"]
        return {"winner": report["winner"], "values": report["values"]}

    def expected_outputs(self, inputs):
        return 1

    def check(self, got, ref, tau):
        problems = []
        if got["winner"] != ref["winner"]:
            problems.append(f"winner {got['winner']} != reference {ref['winner']}")
        if [len(row) for row in got["values"]] != [len(row) for row in ref["values"]]:
            problems.append("values table has the wrong shape")
        else:
            for a, (row, ref_row) in enumerate(zip(got["values"], ref["values"])):
                for b, (v, rv) in enumerate(zip(row, ref_row)):
                    if not lp_close(v, rv, tau):
                        problems.append(f"values[{a}][{b}] = {v} != reference {rv}")
        return 1, int(bool(problems)), problems


class SweepK(_CliWorkload):
    """``sweep-k`` with one realization, k-top truncations k = 1..m, two workers."""

    name = "sweep-k"
    full = {"n": 40, "m": 7, "jobs": 2}
    tiny = {"n": 6, "m": 4, "jobs": 2}

    def prepare(self, instance, work, tiny):
        s = self.sizes(tiny)
        out = work / f"{self.name}.csv"
        argv = [
            "sweep-k", "--n", str(s["n"]), "--m", str(s["m"]), "--trials", "1",
            "--jobs", str(s["jobs"]), "--seed", str(instance), "--out", str(out),
        ]
        return {"argv": argv, "out": out, "m": s["m"]}

    def outputs(self, inputs, raw):
        lines = [ln for ln in self._text(inputs, raw).splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            rec = dict(zip(header, line.split(",")))
            dist = float(rec["distortion"])
            rows.append({"k": int(rec["k"]), "winner": int(rec["winner"]), "distortion": encode_float(dist)})
        return {"rows": rows}

    def expected_outputs(self, inputs):
        return inputs["m"]

    def check(self, got, ref, tau):
        problems = []
        by_k = {r["k"]: r for r in got["rows"]}
        for want in ref["rows"]:
            row = by_k.get(want["k"])
            if row is None:
                problems.append(f"k={want['k']}: row missing")
            elif row["winner"] != want["winner"]:
                problems.append(f"k={want['k']}: winner {row['winner']} != reference {want['winner']}")
            elif not lp_close(row["distortion"], want["distortion"], tau):
                problems.append(f"k={want['k']}: distortion {row['distortion']} != reference {want['distortion']}")
        return len(ref["rows"]), len(problems), problems

    def expected_spans(self, inputs):
        return {"lp.minimax": inputs["m"]}


class OrdinalLargeN(Workload):
    """Library calls on a large impartial-culture election; no LP."""

    name = "ordinal-large-n"
    tag = 3
    full = {"n": 20000, "m": 10, "k": 3, "trials": 10}
    tiny = {"n": 600, "m": 5, "k": 3, "trials": 2}
    alpha = Fraction(2, 5)
    copeland_eps, pm_eps, delta = 1.0, 2.0, 0.05

    def prepare(self, instance, work, tiny):
        s = self.sizes(tiny)
        rankings = draw_rankings(instance_rng(instance, self.tag), s["n"], s["m"])
        trial_seeds = [instance * 1000 + t for t in range(s["trials"])]
        return {"rankings": rankings, "m": s["m"], "k": s["k"], "trial_seeds": trial_seeds}

    def run(self, inputs):
        from metricvote import core, mechanisms, sampling

        e = core.Election.from_rankings(inputs["rankings"], inputs["m"])
        top = core.truncate_to_ktop(e, inputs["k"])
        raw = {
            "comparison_graph": core.comparison_graph(e).counts,
            "copeland": mechanisms.copeland(e),
            "run_dr": mechanisms.run_dr(e)[0],
            "ktop_rule": mechanisms.ktop_rule(top, inputs["k"]),
            "balanced_rule": mechanisms.balanced_rule(top, self.alpha),
            "plurality_matching": mechanisms.plurality_matching(e),
        }
        raw["sampled_copeland"] = [
            sampling.sampled_copeland(e, self.copeland_eps, self.delta, seed) for seed in inputs["trial_seeds"]
        ]
        raw["sampled_pm"] = [
            sampling.sampled_plurality_matching(e, self.pm_eps, self.delta, seed) for seed in inputs["trial_seeds"]
        ]
        return raw

    def outputs(self, inputs, raw):
        winner, phis = raw["plurality_matching"]
        out = {key: raw[key] for key in ("copeland", "run_dr", "ktop_rule", "balanced_rule")}
        out["comparison_graph"] = [list(row) for row in raw["comparison_graph"]]
        out["plurality_matching"] = {"winner": winner, "phi": [str(Fraction(p)) for p in phis]}
        out["sampled_copeland"] = list(raw["sampled_copeland"])
        out["sampled_pm"] = list(raw["sampled_pm"])
        return out

    def expected_outputs(self, inputs):
        return 6 + 2 * len(inputs["trial_seeds"])

    def check(self, got, ref, tau):
        problems = []
        for key in ("comparison_graph", "copeland", "run_dr", "ktop_rule", "balanced_rule", "plurality_matching"):
            if got[key] != ref[key]:
                problems.append(f"{key}: {got[key]} != reference {ref[key]}")
        attempted = 6
        for key in ("sampled_copeland", "sampled_pm"):
            attempted += len(ref[key])
            trials = got[key] + [None] * (len(ref[key]) - len(got[key]))
            for t, (w, rw) in enumerate(zip(trials, ref[key])):
                if w != rw:
                    problems.append(f"{key} trial {t}: winner {w} != reference {rw}")
        return attempted, len(problems), problems


WORKLOADS = {wl.name: wl for wl in (EvalIC(), SweepK(), OrdinalLargeN())}
