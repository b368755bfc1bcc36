"""In-memory span tracing of ``metricvote`` from outside the package.

A :class:`Tracer` rebinds the public functions listed in :data:`TARGETS`
with wrappers that record a span (name, start, end, parent, run id) around
each call.  Rebinding replaces every reference to the original function in
the ``metricvote`` modules, so calls made through ``from x import f``
aliases (``metricvote.cli.minimax``, ``metricvote.sampling.max_matching``)
are traced too.  Nothing in the package is edited; :meth:`Tracer.remove`
restores every original.

Worker processes forked by the CLI's process pool inherit the wrappers and
the open-span stack, so their spans name the parent's ``cli.main`` span as
parent.  A worker appends its spans to ``spans-<pid>.jsonl`` in the trace
directory whenever its outermost span closes; :meth:`Tracer.collect` reads
those files back once the pool has been joined.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

#: (module, attribute, span name, hook).  A hook tag names extra attributes
#: recorded for the call; see ``Tracer._attrs_before`` / ``_attrs_after``.
TARGETS = (
    ("metricvote.cli", "main", "cli.main", None),
    ("metricvote.instances", "generate", "instances.generate", None),
    ("metricvote.lp", "minimax", "lp.minimax", "election"),
    ("metricvote.lp", "distortion_pair", "lp.distortion_pair", "pair"),
    ("metricvote.lp", "build_metric_lp", "lp.build", None),
    ("metricvote.lp", "solve_lp", "lp.solve", "lp"),
    ("metricvote.core", "Election.from_rankings", "core.election", None),
    ("metricvote.core", "Election.from_ktop", "core.election", None),
    ("metricvote.core", "election_from_text", "core.election", None),
    ("metricvote.core", "truncate_to_ktop", "core.truncate", None),
    ("metricvote.core", "comparison_graph", "core.comparison_graph", None),
    ("metricvote.mechanisms", "copeland", "mechanisms.copeland", "election"),
    ("metricvote.mechanisms", "run_dr", "mechanisms.run_dr", "election"),
    ("metricvote.mechanisms", "ktop_rule", "mechanisms.ktop_rule", "election"),
    ("metricvote.mechanisms", "balanced_rule", "mechanisms.balanced_rule", "election"),
    ("metricvote.mechanisms", "plurality_matching", "mechanisms.plurality_matching", "election"),
    ("metricvote.mechanisms", "max_matching", "mechanisms.max_matching", None),
    ("metricvote.sampling", "sampled_copeland", "sampling.sampled_copeland", "election"),
    ("metricvote.sampling", "sampled_plurality_matching", "sampling.sampled_pm", "election"),
    ("metricvote.sampling", "sample_voters", "sampling.sample_voters", None),
)

#: Per-layer metrics reported by the traced run, with their units.  The
#: order is the order of the printed result.
LAYER_METRICS = {
    "lp.pairs": "count",
    "lp.solved": "count",
    "lp.solved_ratio": "ratio",
    "lp.minimax_s.total": "s",
    "lp.build_s.total": "s",
    "lp.solve_s.total": "s",
    "lp.solve_s.p50": "s",
    "lp.solve_s.p90": "s",
    "lp.rows.mean": "count",
    "lp.cols.mean": "count",
    "lp.nnz.mean": "count",
    "lp.nit.total": "count",
    "lp.status.unbounded": "count",
    "core.election_s.total": "s",
    "core.truncate_s.total": "s",
    "core.comparison_graph_s.total": "s",
    "core.unique_ballot_share": "ratio",
    "mechanisms.plurality_matching_s.total": "s",
    "mechanisms.max_matching.calls": "count",
    "mechanisms.max_matching_s.total": "s",
    "mechanisms.copeland_s.total": "s",
    "mechanisms.run_dr_s.total": "s",
    "mechanisms.ktop_rule_s.total": "s",
    "mechanisms.balanced_rule_s.total": "s",
    "sampling.sampled_copeland_s.p50": "s",
    "sampling.sampled_pm_s.p50": "s",
    "sampling.sample_voters_s.total": "s",
    "cli.self_s": "s",
    "instances.generate_s.total": "s",
    "trace.overhead_s": "s",
}


def election_properties(e) -> dict:
    """Ballot-sharing properties of an election (one property-report row)."""
    lengths = {len(t) for t in e.ktop if t is not None}
    return {
        "n": e.n,
        "m": e.m,
        "k": lengths.pop() if len(lengths) == 1 and None not in e.ktop else None,
        "unique_ballot_share": len(set(e.prefs)) / e.n if e.n else 0.0,
        "pairs_per_voter": sum(len(p) for p in e.prefs) / e.n if e.n else 0.0,
    }


class Tracer:
    """Records spans around calls into ``metricvote`` while installed."""

    def __init__(self, run_id: str, trace_dir: Path):
        self.run_id = run_id
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._counter = 0
        self._pid = os.getpid()
        self._root_pid = self._pid
        self._base_depth = 0
        self._noted: list = []  # keeps noted elections alive so their ids stay unique

    # -- spans ---------------------------------------------------------------

    def _enter_process(self) -> None:
        """First span in a forked worker: start an empty buffer there."""
        self._pid = os.getpid()
        self.spans = []
        self._noted = []
        self._base_depth = len(self._stack)

    def _open(self, name: str, attrs: dict) -> dict:
        self._counter += 1
        span = {
            "run": self.run_id,
            "id": f"{self._pid}.{self._counter}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": self._pid,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self._stack.append(span)
        return span

    def _close(self, span: dict, end: float) -> None:
        span["end"] = end
        self._stack.pop()
        self.spans.append(span)
        if self._pid != self._root_pid and len(self._stack) == self._base_depth:
            self._flush_worker()

    def _flush_worker(self) -> None:
        path = self.trace_dir / f"spans-{self._pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> None:
        """Merge the spans written by worker processes."""
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()

    # -- attributes ----------------------------------------------------------

    def _attrs_before(self, hook, args) -> dict:
        if hook == "pair":
            a, b = args[1], args[2]
            return {"distinct": a != b}
        if hook == "election":
            e = args[0]
            self._noted.append(e)
            props = election_properties(e)
            props["election"] = f"{os.getpid()}:{id(e)}"
            return props
        return {}

    @staticmethod
    def _attrs_after(hook, result, args) -> dict:
        if hook != "lp":
            return {}
        lp = args[0]
        rows = nnz = 0
        for mat in (lp.a_ub, lp.a_eq):
            if mat is not None:
                rows += mat.shape[0]
                nnz += mat.nnz
        return {"rows": rows, "cols": len(lp.objective), "nnz": nnz, "status": getattr(result, "status", None)}

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._enter_process()
            attrs = tracer._attrs_before(hook, args)
            span = tracer._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, time.perf_counter())
                raise
            end = time.perf_counter()
            attrs.update(tracer._attrs_after(hook, result, args))
            tracer._close(span, end)
            return result

        return traced

    def _wrap_linprog(self, fn):
        tracer = self

        @functools.wraps(fn)
        def linprog(*args, **kwargs):
            res = fn(*args, **kwargs)
            if tracer._stack:
                attrs = tracer._stack[-1]["attrs"]
                attrs["nit"] = attrs.get("nit", 0) + int(getattr(res, "nit", 0) or 0)
            return res

        return linprog

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` in every loaded metricvote module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "metricvote" or mod_name.startswith("metricvote.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        for mod_name, path, name, hook in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{path}")
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
            elif isinstance(raw, classmethod):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, hook)))
            else:
                self._rebind(raw, self._wrap(raw, name, hook))
        lp = sys.modules.get("metricvote.lp")
        if lp is not None and hasattr(lp, "linprog"):
            self._restore.append((lp, "linprog", lp.linprog))
            lp.linprog = self._wrap_linprog(lp.linprog)
        else:
            self.missing.append("metricvote.lp.linprog")
        for target in self.missing:
            print(f"trace: {target} not found; its metrics read 0", file=sys.stderr)
        return self

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


# -- per-layer metrics ----------------------------------------------------------


def _dur(span) -> float:
    return span["end"] - span["start"]


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval its children cover.

    Children may overlap (pool workers run in parallel), so the covered part
    is the length of the union of their clipped intervals.
    """
    start, end = span["start"], span["end"]
    covered = 0.0
    cursor = start
    for c in sorted(children, key=lambda s: s["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def property_rows(spans: list[dict]) -> list[dict]:
    """One row per distinct election passed to minimax or a mechanism."""
    rows, seen = [], set()
    for span in sorted(spans, key=lambda s: s["start"]):
        attrs = span["attrs"]
        key = attrs.get("election")
        if key is None or key in seen:
            continue
        seen.add(key)
        row = {"first_use": span["name"]}
        row.update({k: attrs[k] for k in ("n", "m", "k", "unique_ballot_share", "pairs_per_voter")})
        rows.append(row)
    return sorted(rows, key=lambda r: (r["k"] is None, r["k"] or 0))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` from one run's spans."""
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def durs(name):
        return [_dur(s) for s in by_name.get(name, [])]

    def total(name):
        return math.fsum(durs(name))

    solves = by_name.get("lp.solve", [])

    def mean_attr(key):
        vals = [s["attrs"][key] for s in solves if key in s["attrs"]]
        return statistics.fmean(vals) if vals else 0.0

    pairs = sum(1 for s in by_name.get("lp.distortion_pair", []) if s["attrs"].get("distinct"))
    shares = [r["unique_ballot_share"] for r in property_rows(spans)]
    return {
        "lp.pairs": pairs,
        "lp.solved": len(solves),
        "lp.solved_ratio": len(solves) / pairs if pairs else 0.0,
        "lp.minimax_s.total": total("lp.minimax"),
        "lp.build_s.total": total("lp.build"),
        "lp.solve_s.total": total("lp.solve"),
        "lp.solve_s.p50": _pct(durs("lp.solve"), 0.5),
        "lp.solve_s.p90": _pct(durs("lp.solve"), 0.9),
        "lp.rows.mean": mean_attr("rows"),
        "lp.cols.mean": mean_attr("cols"),
        "lp.nnz.mean": mean_attr("nnz"),
        "lp.nit.total": sum(s["attrs"].get("nit", 0) for s in solves),
        "lp.status.unbounded": sum(1 for s in solves if s["attrs"].get("status") == "unbounded"),
        "core.election_s.total": total("core.election"),
        "core.truncate_s.total": total("core.truncate"),
        "core.comparison_graph_s.total": total("core.comparison_graph"),
        "core.unique_ballot_share": statistics.fmean(shares) if shares else 0.0,
        "mechanisms.plurality_matching_s.total": total("mechanisms.plurality_matching"),
        "mechanisms.max_matching.calls": len(by_name.get("mechanisms.max_matching", [])),
        "mechanisms.max_matching_s.total": total("mechanisms.max_matching"),
        "mechanisms.copeland_s.total": total("mechanisms.copeland"),
        "mechanisms.run_dr_s.total": total("mechanisms.run_dr"),
        "mechanisms.ktop_rule_s.total": total("mechanisms.ktop_rule"),
        "mechanisms.balanced_rule_s.total": total("mechanisms.balanced_rule"),
        "sampling.sampled_copeland_s.p50": _pct(durs("sampling.sampled_copeland"), 0.5),
        "sampling.sampled_pm_s.p50": _pct(durs("sampling.sampled_pm"), 0.5),
        "sampling.sample_voters_s.total": total("sampling.sample_voters"),
        "cli.self_s": math.fsum(self_time(s, children.get(s["id"], [])) for s in by_name.get("cli.main", [])),
        "instances.generate_s.total": total("instances.generate"),
    }
