"""Seeded random instances and exact adversarial constructions.

Every generator is a pure function of its parameters and seed.  When a
ground-truth witness ships with the instance it is consistent with the
election, and the ``expected`` dict carries machine-checkable claims
(exact rationals wherever the construction is rational).

Line constructions place exact points with ``MetricWitness.from_points``.
The witnesses of ``ktop_lower_bound``, ``veto_instance`` and ``hidden_star``
are weighted graphs whose exact shortest-path metric comes from
``MetricWitness.from_edges``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .core import (
    Election,
    MetricWitness,
    check_consistent,
    induce_election,
    seeded_rng,
)
from .errors import ConfigError

#: Default far/near distance ratio for constructions that need a "far away"
#: cluster; assertions are written in ratio form so this cannot silently
#: weaken tests.
DEFAULT_FAR_RATIO = 10_000


@dataclass
class GeneratedInstance:
    election: Election
    witness: MetricWitness | None
    generator: str
    params: dict[str, Any]
    seed: int | None = None
    expected: dict[str, Any] = field(default_factory=dict)
    #: Round-by-round pairing schedule (knockout constructions only).
    schedule: tuple[tuple[tuple[int, int], ...], ...] | None = None

    def check_witness(self) -> None:
        if self.witness is not None:
            self.witness.validate_metric()
            if not check_consistent(self.witness, self.election):
                raise AssertionError(f"{self.generator}: witness inconsistent with election")


def impartial_culture(n: int, m: int, seed: int) -> GeneratedInstance:
    """n independent rankings drawn uniformly from all permutations."""
    if n < 1 or m < 1:
        raise ConfigError("impartial_culture needs n, m >= 1")
    rng = seeded_rng(seed)
    rankings = [tuple(int(c) for c in rng.permutation(m)) for _ in range(n)]
    e = Election.from_rankings(rankings, m)
    return GeneratedInstance(e, None, "impartial_culture", {"n": n, "m": m}, seed)


def euclidean(n: int, m: int, dim: int, seed: int, tiebreak: str = "index_asc") -> GeneratedInstance:
    """Uniform points in the unit cube; induced profile plus ground-truth witness."""
    if n < 1 or m < 1 or dim < 1:
        raise ConfigError("euclidean needs n, m, dim >= 1")
    rng = seeded_rng(seed)
    vp = rng.random((n, dim))
    cp = rng.random((m, dim))
    witness = MetricWitness.from_points([tuple(map(float, p)) for p in vp], [tuple(map(float, p)) for p in cp])
    e = induce_election(witness, tiebreak)
    return GeneratedInstance(e, witness, "euclidean", {"n": n, "m": m, "dim": dim}, seed)


def _chain_positions(ell: int) -> list[Fraction]:
    # candidate t (1-based): t=1 at 0, even t at +t, odd t>1 at -(t-1)
    pos = []
    for t in range(1, ell + 1):
        if t == 1:
            pos.append(Fraction(0))
        elif t % 2 == 0:
            pos.append(Fraction(t))
        else:
            pos.append(Fraction(-(t - 1)))
    return pos


def chain(ell: int) -> GeneratedInstance:
    """Two voters on a line; candidate t has social cost exactly 2t - 1.

    With ties broken towards the higher index (both at profile induction
    and inside the majority oracle), candidate t pairwise-defeats t - 1,
    so the cost-propagation bound is met with equality along the chain.
    The coordinates are a reconstruction; the exact SC values and the tie
    pattern are the asserted properties.
    """
    if ell < 2:
        raise ConfigError("chain needs at least 2 candidates")
    voters = [Fraction(0), Fraction(1)]
    witness = MetricWitness.from_points(voters, _chain_positions(ell))
    e = induce_election(witness, tiebreak="index_desc")
    expected = {"social_costs": tuple(Fraction(2 * t - 1) for t in range(1, ell + 1))}
    return GeneratedInstance(e, witness, "chain", {"ell": ell}, expected=expected)


def dr_lower_bound(m: int, far_ratio: Fraction | float = 100) -> GeneratedInstance:
    """Knockout worst case: chain of log2(m)+1 candidates plus far fillers.

    Ships the pairing schedule under which the top chain candidate survives
    every round, realising distortion exactly 2*log2(m) + 1.
    """
    t = m.bit_length() - 1
    if m < 2 or 2**t != m:
        raise ConfigError("dr_lower_bound needs m to be a power of two, m >= 2")
    ell = t + 1
    far_pos = Fraction(far_ratio * 2 * ell)
    voters = [Fraction(0), Fraction(1)]
    cand = _chain_positions(ell) + [far_pos] * (m - ell)
    witness = MetricWitness.from_points(voters, cand)
    e = induce_election(witness, tiebreak="index_desc")

    chain_alive = list(range(ell))
    far_alive = list(range(ell, m))
    rounds = []
    while len(chain_alive) + len(far_alive) > 1:
        pairs = []
        if len(chain_alive) >= 2:
            pairs.append((chain_alive[0], chain_alive[1]))
            survivors = chain_alive[1:]
            spare = chain_alive[2:]
        else:
            survivors = chain_alive[:]
            spare = []
        used_far = []
        for c in spare:
            used_far.append(far_alive.pop())
            pairs.append((c, used_far[-1]))
        next_far = []
        for i in range(0, len(far_alive) - 1, 2):
            a, b = far_alive[i], far_alive[i + 1]
            pairs.append((a, b))
            next_far.append(max(a, b))  # ties lose to the higher index
        if len(far_alive) % 2 == 1:
            next_far.append(far_alive[-1])
        chain_alive = survivors
        far_alive = next_far
        rounds.append(tuple(pairs))
    expected = {
        "winner": ell - 1,
        "distortion": Fraction(2 * t + 1),
        "social_costs_chain": tuple(Fraction(2 * s - 1) for s in range(1, ell + 1)),
    }
    return GeneratedInstance(
        e,
        witness,
        "dr_lower_bound",
        {"m": m, "far_ratio": far_ratio},
        expected=expected,
        schedule=tuple(rounds),
    )


def ktop_lower_bound(m: int, k: int, ratio) -> GeneratedInstance:
    """Disjoint k-top blocks around a star centre; distortion approaches 2n - 1.

    The witness is a star on the centre candidate x: voter i has edges to
    x and to its block, of length 1 for voter 0 and ``ratio`` (delta over
    D) for the others, and a block's candidates are zero apart.  The exact
    distortion of the first block candidate against x is
    (1 + (n-1)(ratio + 2)) / (1 + (n-1) ratio), attached as an expected
    property.
    """
    if m < 3 or k < 1 or (m - 1) % k != 0:
        raise ConfigError("ktop_lower_bound needs k | (m - 1), m >= 3")
    r = Fraction(ratio)
    if r <= 0:
        raise ConfigError("ratio must be positive")
    n = (m - 1) // k
    x = m - 1
    blocks = [tuple(range(i * k, (i + 1) * k)) for i in range(n)]
    e = Election.from_ktop(blocks, m)
    edges = []
    for i, block in enumerate(blocks):
        arm = Fraction(1) if i == 0 else r
        edges += [(i, n + c, arm) for c in (x, *block)]
        edges += [(n + c, n + c + 1, 0) for c in block[:-1]]
    witness = MetricWitness.from_edges(n, m, edges)
    formula = (1 + (n - 1) * (r + 2)) / (1 + (n - 1) * r)
    expected = {
        "optimal": x,
        "distortion_formula": formula,
        "limit": Fraction(2 * n - 1),
        "winner_block": blocks[0],
    }
    return GeneratedInstance(e, witness, "ktop_lower_bound", {"m": m, "k": k, "ratio": r}, expected=expected)


def missing_voters_tight(epsilon) -> GeneratedInstance:
    """Two candidates on a line with an epsilon fraction of silent voters.

    Half of the active voters sit at the midpoint and state a over b, the
    other half and all silent voters sit at b; candidate a's worst-case
    cost ratio is exactly 3 + 4*epsilon/(1 - epsilon).
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ConfigError("epsilon must be in (0, 1)")
    q = eps.denominator
    n = q if (q - eps.numerator) % 2 == 0 else 2 * q
    n_mid = (1 - eps) * n / 2
    n_missing = eps * n
    assert n_mid.denominator == 1 and n_missing.denominator == 1
    n_mid, n_missing = int(n_mid), int(n_missing)
    n_b = n - n_mid - n_missing

    e = Election.from_ktop([(0, 1)] * n_mid + [(1, 0)] * n_b + [()] * n_missing, 2)
    voters = [Fraction(1, 2)] * n_mid + [Fraction(1)] * (n_b + n_missing)
    witness = MetricWitness.from_points(voters, [Fraction(0), Fraction(1)])
    expected = {
        "majority_candidate": 0,
        "distortion_a": 3 + 4 * eps / (1 - eps),
    }
    return GeneratedInstance(e, witness, "missing_voters_tight", {"epsilon": eps}, expected=expected)


def veto_instance(m: int) -> GeneratedInstance:
    """Profile where candidate a is vetoed once and never ranked first.

    a (id 0) has social cost m on the shipped graph metric while every
    other candidate costs 3m - 4, yet a is ineligible for the matching
    rule because plu(a) = 0 < 1 = veto(a).  The graph has unit edges from
    each voter but the last to a and to its top, and from the last voter
    to every candidate.  This edge list generalising m = 4 is a
    reconstruction validated through those SC values.
    """
    if m < 3:
        raise ConfigError("veto_instance needs m >= 3")
    n = m
    if m == 4:
        rankings = [(1, 0, 2, 3), (3, 0, 1, 2), (2, 0, 3, 1), (1, 3, 2, 0)]
    else:
        rankings = [(t, 0, *(c for c in range(1, m) if c != t)) for t in range(1, m)]
        rankings.append((*range(1, m), 0))
    e = Election.from_rankings(rankings, m)
    edges = [(i, n + c, 1) for i in range(n - 1) for c in (0, rankings[i][0])]
    edges += [(n - 1, n + c, 1) for c in range(m)]
    witness = MetricWitness.from_edges(n, m, edges)
    expected = {
        "sc_a": Fraction(m),
        "sc_other": Fraction(3 * m - 4),
        "support_a_over_b": Fraction(m - 2, m),
        "plurality_a": 0,
        "veto_a": 1,
    }
    return GeneratedInstance(e, witness, "veto_instance", {"m": m}, expected=expected)


def decisive_instance(alpha) -> GeneratedInstance:
    """Three candidates, two opposed voters, under alpha-decisive distances.

    The middle candidate b costs 2 + alpha on the shipped witness while a
    and e admit worst-case ratio 1 + 2*alpha.
    """
    a = Fraction(alpha)
    if not 0 <= a <= 1:
        raise ConfigError("alpha must be in [0, 1]")
    e = Election.from_rankings([(0, 1, 2), (2, 1, 0)], 3)
    # points: v0, v1(=e), a, b, e
    one = Fraction(1)
    d = [
        [0, one, a, one, one],
        [one, 0, one + a, one + a, 0],
        [a, one + a, 0, one + a, one + a],
        [one, one + a, one + a, 0, one + a],
        [one, 0, one + a, one + a, 0],
    ]
    witness = MetricWitness(2, 3, d)
    expected = {
        "sc_e": Fraction(1),
        "sc_b": 2 + a,
        "winner_distortion": 1 + 2 * a,
        "b_distortion": 2 + a,
    }
    return GeneratedInstance(e, witness, "decisive_instance", {"alpha": a}, expected=expected)


def hidden_star(m: int, chosen: int, n: int = 3, far_ratio: Fraction | float = DEFAULT_FAR_RATIO) -> GeneratedInstance:
    """All voters hug one candidate; every other candidate is far away.

    The witness joins every voter to ``chosen`` at 1 and to every other
    candidate at ``far_ratio`` >= 1.  Used to show that any elicitation of
    fewer than m - 1 comparisons leaves at least two candidates
    indistinguishable: two instances differing only in ``chosen`` answer
    an adversarially chosen short query sequence identically.
    """
    if m < 3 or not 0 <= chosen < m or n < 1 or not 1 <= far_ratio < math.inf:
        raise ConfigError("hidden_star needs m >= 3, a valid chosen candidate, n >= 1 and finite far_ratio >= 1")
    edges = [(i, n + c, Fraction(1 if c == chosen else far_ratio)) for i in range(n) for c in range(m)]
    witness = MetricWitness.from_edges(n, m, edges)
    rankings = [tuple([chosen] + [c for c in range(m) if c != chosen])] * n
    e = Election.from_rankings(rankings, m)
    expected = {
        "chosen": chosen,
        "min_bad_distortion": Fraction(far_ratio) / m - 1,
    }
    return GeneratedInstance(
        e, witness, "hidden_star", {"m": m, "chosen": chosen, "n": n, "far_ratio": far_ratio}, expected=expected
    )


GENERATORS = {
    "impartial-culture": impartial_culture,
    "euclidean": euclidean,
    "chain": chain,
    "dr-lower-bound": dr_lower_bound,
    "ktop-lower-bound": ktop_lower_bound,
    "missing-voters-tight": missing_voters_tight,
    "veto": veto_instance,
    "decisive": decisive_instance,
    "hidden-star": hidden_star,
}


#: What a generator parameter accepts, by its annotation (a string, since
#: annotations are not evaluated here); any other parameter takes a real number.
_PARAM_KINDS = {"int": (numbers.Integral, "an integer"), "str": (str, "text")}


def generate(name: str, params: dict[str, Any], seed: int | None = None) -> GeneratedInstance:
    """Dispatch to a named generator, passing ``seed`` when it takes one."""
    import inspect

    if name not in GENERATORS:
        raise ConfigError(f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    fn = GENERATORS[name]
    sig = inspect.signature(fn)
    kwargs = dict(params)
    if "seed" in sig.parameters and "seed" not in kwargs:
        if seed is None:
            raise ConfigError(f"generator {name!r} needs a seed")
        kwargs["seed"] = seed
    unknown = set(kwargs) - set(sig.parameters)
    if unknown:
        raise ConfigError(f"generator {name!r} does not take parameters {sorted(unknown)}")
    missing = [p.name for p in sig.parameters.values() if p.default is p.empty and p.name not in kwargs]
    if missing:
        raise ConfigError(f"generator {name!r} needs parameters {missing}")
    for key, value in kwargs.items():
        kind, noun = _PARAM_KINDS.get(sig.parameters[key].annotation, (numbers.Real, "a number"))
        if not isinstance(value, kind):
            raise ConfigError(f"generator {name!r} parameter {key!r} must be {noun}, got {value!r}")
    return fn(**kwargs)


# -- JSON sidecar -------------------------------------------------------------


def _num_to_json(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_num_to_json(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def witness_to_jsonable(w: MetricWitness) -> dict:
    # Fractions as strings; a type test, since isinstance against Fraction (an ABC
    # subclass) costs several times more per entry of a large float table
    table = [[str(x) if type(x) is Fraction else x for x in row] for row in w.dist.tolist()]
    return {"n": w.n, "m": w.m, "exact": w.exact, "dist": table}


def witness_from_jsonable(obj: dict) -> MetricWitness:
    if obj.get("exact"):  # ints load as written, Fractions from their strings
        table = [[x if type(x) is int else Fraction(x) for x in row] for row in obj["dist"]]
        return MetricWitness(obj["n"], obj["m"], table)
    return MetricWitness(obj["n"], obj["m"], np.asarray(obj["dist"], dtype=float))


def instance_sidecar(gi: GeneratedInstance) -> dict:
    """JSON-ready sidecar: provenance, expected properties, witness, schedule."""
    return {
        "generator": gi.generator,
        "params": {k: _num_to_json(v) for k, v in gi.params.items()},
        "seed": gi.seed,
        "expected": {k: _num_to_json(v) for k, v in gi.expected.items()},
        "witness": witness_to_jsonable(gi.witness) if gi.witness is not None else None,
        "schedule": [[list(p) for p in rnd] for rnd in gi.schedule] if gi.schedule is not None else None,
    }
