"""Experiment harness: generation, mechanism runs, LP evaluation, sweeps.

Every output file embeds the resolved configuration and seeds in its
header and contains no timestamps, so a rerun with the same seed and
``--jobs 1`` is byte-identical.  Exit codes:

* 0 success;
* 2 configuration error (``ConfigError``);
* 3 data error: a malformed or missing input (``DataFormatError``,
  ``FileNotFoundError``), such as an election file that does not parse
  (elections are read from rankings, top lists or text, and text
  expresses every election) or a sidecar witness that does not fit its
  election or is not a metric, or an input that fails a rule's
  pairwise-coverage precondition (``CoverageError``);
* 4 theorem falsification: a guaranteed structure was not found
  (``TheoremFalsificationError``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import (
    check_consistent,
    election_from_text,
    election_to_text,
    mask_voters,
    realized_distortion,
    seeded_rng,
    truncate_to_ktop,
)
from .dataio import EUROVISION_WEIGHTS, F1_WEIGHTS, ScoreTable, ScoringRule, load_csv, parse_schema, positional_score, scores_to_election
from .errors import ConfigError, CoverageError, DataFormatError, TheoremFalsificationError
from .instances import GeneratedInstance, generate, instance_sidecar, witness_from_jsonable
from .lp import distortion_of, distortion_table, minimax
from .mechanisms import balanced_rule, conjecture_probe, copeland, ktop_rule, plurality_matching, run_dr
from .sampling import sample_size, sampled_copeland, sampled_pm

MISSING_ENVELOPE_BASE = 3  # full-ranking guarantee used for the envelope column


@dataclass
class ExperimentConfig:
    command: str
    options: dict

    def header_lines(self) -> list[str]:
        lines = [f"# metricvote {__version__}", f"# command={self.command}"]
        for key in sorted(self.options):
            lines.append(f"# {key}={self.options[key]}")
        return lines


def _write_csv(path, config: ExperimentConfig, columns: list[str], rows: list[list]) -> None:
    out = config.header_lines()
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join("" if v is None else str(v) for v in row))
    _write(path, "\n".join(out) + "\n")


def _write_json(path, config: ExperimentConfig, payload: dict) -> None:
    doc = {"toolkit": f"metricvote {__version__}", "config": {"command": config.command, **config.options}}
    doc.update(payload)
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _parse_params(spec: str | None) -> dict:
    params = {}
    if not spec:
        return params
    for item in spec.split(","):
        if "=" not in item:
            raise ConfigError(f"bad --params entry {item!r} (expected key=value)")
        key, value = item.split("=", 1)
        params[key.strip()] = _parse_number(value.strip())
    return params


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad fraction {text!r}") from exc
    try:
        return float(text)
    except ValueError:
        return text


def _load_instance(args) -> GeneratedInstance:
    if getattr(args, "infile", None):
        e = election_from_text(Path(args.infile).read_text(encoding="utf-8"))
        witness = None
        schedule = None
        sidecar = Path(args.infile).with_suffix(".json")
        if sidecar.exists():
            obj = json.loads(sidecar.read_text(encoding="utf-8"))
            if obj.get("witness"):
                witness = witness_from_jsonable(obj["witness"])
                # check_consistent raises DataFormatError itself when n or m differ
                if not check_consistent(witness, e):
                    raise DataFormatError(f"{sidecar}: witness contradicts a preference the election states")
                try:
                    witness.validate_metric()
                except DataFormatError as exc:
                    raise DataFormatError(f"{sidecar}: witness is not a metric: {exc}") from exc
            if obj.get("schedule"):
                schedule = tuple(tuple(tuple(p) for p in rnd) for rnd in obj["schedule"])
        return GeneratedInstance(e, witness, "file", {"path": args.infile}, schedule=schedule)
    if getattr(args, "generator", None):
        return generate(args.generator, _parse_params(args.params), args.seed)
    raise ConfigError("provide an instance via --in or --generator")


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return repr(float(x))
    if isinstance(x, float):
        return "inf" if math.isinf(x) else repr(x)
    return str(x)


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    gi = generate(args.generator, _parse_params(args.params), args.seed)
    base = Path(args.out)
    _write(base.with_suffix(".elec"), election_to_text(gi.election))
    sidecar = instance_sidecar(gi)
    config = ExperimentConfig("gen", {"generator": args.generator, "params": args.params or "", "seed": args.seed})
    _write_json(base.with_suffix(".json"), config, sidecar)
    return 0


def cmd_run(args) -> int:
    gi = _load_instance(args)
    e = gi.election
    payload: dict = {}
    if args.mechanism == "dr":
        schedule = gi.schedule if args.pairing == "schedule" else None
        if args.pairing == "schedule" and schedule is None:
            raise ConfigError("--pairing schedule needs an instance that ships one")
        pairing = "input" if args.pairing == "schedule" else args.pairing
        winner, transcript = run_dr(e, pairing=pairing, seed=args.seed, schedule=schedule)
        payload["transcript"] = transcript.events
        payload["comparisons"] = transcript.comparisons
    elif args.mechanism == "copeland":
        winner = copeland(e)
    elif args.mechanism == "plurality-matching":
        winner, phis = plurality_matching(e)
        payload["phi"] = [_fmt(p) for p in phis]
    elif args.mechanism == "ktop":
        if args.k is None:
            raise ConfigError("--mechanism ktop needs --k")
        winner = ktop_rule(e, args.k)
    elif args.mechanism == "balanced":
        if args.alpha is None:
            raise ConfigError("--mechanism balanced needs --alpha")
        if not math.isfinite(args.alpha):
            raise ConfigError(f"alpha must be in (0, 1], got {args.alpha}")
        # the decimal as typed: Fraction(0.9) is the binary double, just above 9/10
        winner = balanced_rule(e, Fraction(repr(args.alpha)))
    elif args.mechanism == "conjecture-probe":
        if args.k is None:
            raise ConfigError("--mechanism conjecture-probe needs --k")
        probe = conjecture_probe(e, args.k)
        winner = probe.best_candidate
        payload["best_fraction"] = _fmt(probe.best_fraction)
        payload["threshold"] = _fmt(probe.threshold)
        payload["holds"] = probe.holds
    else:
        raise ConfigError(f"unknown mechanism {args.mechanism!r}")
    payload["winner"] = winner
    if gi.witness is not None:
        payload["realized_distortion"] = _fmt(realized_distortion(gi.witness, winner))
    config = ExperimentConfig(
        "run",
        {
            "mechanism": args.mechanism,
            "instance": args.infile or f"{args.generator}({args.params or ''})",
            "seed": args.seed,
            "k": args.k,
            "alpha": args.alpha,
            "pairing": args.pairing,
        },
    )
    _write_json(args.out, config, payload)
    return 0


def cmd_eval(args) -> int:
    gi = _load_instance(args)
    report = distortion_table(gi.election, alpha=args.alpha)
    config = ExperimentConfig(
        "eval",
        {"instance": args.infile or f"{args.generator}({args.params or ''})", "seed": args.seed, "alpha": args.alpha},
    )
    if args.format == "json":
        _write_json(args.out, config, {"report": report.to_json_dict()})
    else:
        rows = [
            [c, _fmt(report.per_candidate[c]), report.worst_opponent[c], int(c == report.winner)]
            for c in range(gi.election.m)
        ]
        _write_csv(args.out, config, ["candidate", "distortion", "worst_opponent", "winner"], rows)
    return 0


def _sweep_k_row(task):
    e, k, include_ktop = task
    trunc = truncate_to_ktop(e, k)
    best = minimax(trunc)
    row = [k, best.winner, _fmt(best.value)]
    if include_ktop:
        kw = ktop_rule(trunc, k)
        kd = best.value if kw == best.winner else distortion_of(trunc, kw)[0]
        row += [kw, _fmt(kd)]
    return row


def cmd_sweep_k(args) -> int:
    include_ktop = args.mechanism == "minimax+ktop"
    heads, tasks = [], []
    for real in range(args.trials):
        seed = args.seed + real
        gi = generate("impartial-culture", {"n": args.n, "m": args.m}, seed)
        heads += [[real, seed]] * args.m
        tasks += [(gi.election, k, include_ktop) for k in range(1, args.m + 1)]
    # one pool for every realization; the largest k has the largest LPs, so it goes first
    order = sorted(range(len(tasks)), key=lambda t: -tasks[t][1])
    rows = [None] * len(tasks)
    for t, row in zip(order, _pmap(_sweep_k_row, [tasks[t] for t in order], args.jobs)):
        rows[t] = heads[t] + row
    columns = ["realization", "seed", "k", "winner", "distortion"]
    if include_ktop:
        columns += ["ktop_winner", "ktop_distortion"]
    config = ExperimentConfig(
        "sweep-k",
        {"n": args.n, "m": args.m, "trials": args.trials, "seed": args.seed, "mechanism": args.mechanism, "jobs": args.jobs},
    )
    _write_csv(args.out, config, columns, rows)
    return 0


def _sweep_missing_row(task):
    e, masked_idx, eps_req = task
    masked = mask_voters(e, masked_idx)
    best = minimax(masked)
    eff = Fraction(len(masked_idx), e.n)
    envelope = math.inf if eff == 1 else MISSING_ENVELOPE_BASE + eff / (1 - eff) * (MISSING_ENVELOPE_BASE + 1)
    return eps_req, len(masked_idx), float(eff), best.winner, best.value, envelope


def cmd_sweep_missing(args) -> int:
    try:
        grid = [float(x) for x in args.epsilon_grid.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --epsilon-grid {args.epsilon_grid!r}") from exc
    for eps in grid:
        if not 0 <= eps < 1:
            raise ConfigError(f"epsilon grid entries must be in [0, 1), got {eps}")
    heads, tasks = [], []
    for real in range(args.trials):
        seed = args.seed + real
        gi = generate("impartial-culture", {"n": args.n, "m": args.m}, seed)
        rng = seeded_rng((seed, 1))
        for eps in grid:
            masked_count = math.ceil(eps * args.n)
            masked_idx = sorted(int(i) for i in rng.choice(args.n, size=masked_count, replace=False))
            heads.append([real, seed])
            tasks.append((gi.election, tuple(masked_idx), eps))
    # one pool for every realization
    rows = []
    for head, (eps_req, masked, eff, winner, dist, envelope) in zip(heads, _pmap(_sweep_missing_row, tasks, args.jobs)):
        rows.append(head + [eps_req, masked, eff, winner, _fmt(dist), _fmt(envelope)])
    config = ExperimentConfig(
        "sweep-missing",
        {
            "n": args.n,
            "m": args.m,
            "trials": args.trials,
            "seed": args.seed,
            "epsilon_grid": args.epsilon_grid,
            "jobs": args.jobs,
        },
    )
    _write_csv(
        args.out,
        config,
        ["realization", "seed", "epsilon", "masked", "effective_epsilon", "winner", "distortion", "envelope"],
        rows,
    )
    return 0


def cmd_sample(args) -> int:
    gi = _load_instance(args)
    e = gi.election
    size = sample_size(args.epsilon, args.delta, e.m, args.mode)
    lp_distortion = {}  # per winner: trials often repeat one
    rows = []
    for trial in range(args.trials):
        seed = (args.seed, trial)
        phi_hat_max = None
        if args.mode == "copeland":
            winner = sampled_copeland(e, args.epsilon, args.delta, seed)
        else:
            winner, phis = sampled_pm(e, args.epsilon, args.delta, seed)
            phi_hat_max = float(max(phis))
        if gi.witness is not None:
            rd = _fmt(realized_distortion(gi.witness, winner))
        else:
            if winner not in lp_distortion:
                lp_distortion[winner] = distortion_of(e, winner)[0]
            rd = _fmt(lp_distortion[winner])
        rows.append([trial, args.seed, size, winner, rd, "" if phi_hat_max is None else repr(phi_hat_max)])
    config = ExperimentConfig(
        "sample",
        {
            "mode": args.mode,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "trials": args.trials,
            "seed": args.seed,
            "instance": args.infile or f"{args.generator}({args.params or ''})",
            "c": size,
        },
    )
    _write_csv(args.out, config, ["trial", "seed", "c", "winner", "realized_distortion", "phi_hat_max"], rows)
    return 0


def cmd_ingest(args) -> int:
    table = load_csv(args.infile, parse_schema(args.schema))
    if args.drop:
        dropped = {name.strip() for name in args.drop.split(",")}
        unknown = dropped - set(table.candidates)
        if unknown:
            raise DataFormatError(f"--drop names not in the table: {sorted(unknown)}")
        table = ScoreTable(tuple(r for r in table.rows if r[1] not in dropped))
    e = scores_to_election(table)
    base = Path(args.out)
    _write(base.with_suffix(".elec"), election_to_text(e))
    payload = {
        "voters": list(table.voters),
        "candidates": list(table.candidates),
        "n": e.n,
        "m": e.m,
    }
    if args.scoring:
        weights = {"eurovision": EUROVISION_WEIGHTS, "f1": F1_WEIGHTS}.get(args.scoring)
        if weights is None:
            raise ConfigError(f"unknown scoring rule {args.scoring!r}")
        totals, winner = positional_score(e, ScoringRule(weights))
        payload["scoring_totals"] = list(totals)
        payload["scoring_winner"] = winner
        payload["scoring_winner_name"] = table.candidates[winner]
    config = ExperimentConfig("ingest", {"in": str(args.infile), "schema": args.schema, "scoring": args.scoring})
    _write_json(base.with_suffix(".json"), config, payload)
    return 0


# -- plumbing -------------------------------------------------------------------


def _pmap(fn, tasks, jobs):
    if jobs and jobs > 1:
        # Every pooled task solves LPs.  Loading the solver here, once, lets the
        # forked workers inherit it instead of each importing it on its first LP.
        import scipy.optimize  # noqa: F401

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metricvote", description=__doc__)
    parser.add_argument("--version", action="version", version=f"metricvote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_flags(p):
        p.add_argument("--in", dest="infile", help="election text file (.elec)")
        p.add_argument("--generator", help="named instance generator")
        p.add_argument("--params", help="generator parameters, key=value[,key=value...]")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate an instance: election file plus JSON sidecar")
    p.add_argument("--generator", required=True)
    p.add_argument("--params")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output basename")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run an ordinal mechanism on an instance")
    instance_flags(p)
    p.add_argument("--mechanism", required=True,
                   choices=["dr", "copeland", "plurality-matching", "ktop", "balanced", "conjecture-probe"])
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--pairing", default="input", choices=["input", "reversed", "shuffle", "schedule"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="instance-optimal LP evaluation (minimax)")
    instance_flags(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--format", default="json", choices=["csv", "json"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-k", help="distortion of minimax as k-top information grows")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--trials", type=int, default=5, help="random realizations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mechanism", default="minimax", choices=["minimax", "minimax+ktop"])
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("sweep-missing", help="distortion as voters go silent")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon-grid", default="0.8,0.6,0.4,0.2,0")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep_missing)

    p = sub.add_parser("sample", help="Monte Carlo study of the sampled mechanisms")
    instance_flags(p)
    p.add_argument("--mode", required=True, choices=["copeland", "plurality-matching"])
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ingest", help="CSV score table to election file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--schema", required=True, help="eurovision | f1 | generic:voter,candidate,score")
    p.add_argument("--scoring", help="also apply a positional rule: eurovision | f1")
    p.add_argument("--drop", help="comma-separated candidate names whose rows are removed before the election is built")
    p.add_argument("--out", required=True, help="output basename")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CoverageError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return 3
    except TheoremFalsificationError as exc:
        print(f"theorem falsification: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
