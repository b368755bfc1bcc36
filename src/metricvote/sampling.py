"""Sampled Copeland and sampled PluralityMatching with published sample sizes.

The source guarantees are asymptotic; the exact formulas below are this
module's configuration, validated statistically (not formula-exactly) by
the acceptance suite:

- copeland mode, sampling with replacement, size forced odd:
      c = ceil( ln(2 m^2 / delta) / (2 (eps/16)^2) )
  (per-pair Chernoff bound with a union bound over the m^2 ordered pairs;
  the 1/16 rescale matches the 5 + 16 eps analysis slack)

- plurality-matching mode, sampling without replacement:
      c = ceil( 2 (m + ln(2 m / delta)) / (eps/8)^2 )

Reproducibility: every draw uses numpy's PCG64 seeded through
SeedSequence; per-trial child seeds derive as SeedSequence((seed, trial)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Election, Transcript
from .errors import ConfigError
from .mechanisms import copeland, phi_scores

def sample_size(epsilon: float, delta: float, m: int, mode: str) -> int:
    """Published sample-size formula for the requested mode."""
    if not 0 < epsilon <= 4:
        raise ConfigError(f"epsilon must be in (0, 4], got {epsilon}")
    if not 0 < delta < 1:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    if m < 1:
        raise ConfigError("need at least one candidate")
    if mode == "copeland":
        c = math.ceil(math.log(2 * m * m / delta) / (2 * (epsilon / 16) ** 2))
        if c % 2 == 0:
            c += 1  # odd size rules out sampled ties
        return c
    if mode == "plurality-matching":
        return math.ceil(2 * (m + math.log(2 * m / delta)) / (epsilon / 8) ** 2)
    raise ConfigError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class SamplePlan:
    epsilon: float
    delta: float
    mode: str
    size: int
    with_replacement: bool
    seed: int


def make_plan(epsilon: float, delta: float, m: int, mode: str, seed: int) -> SamplePlan:
    c = sample_size(epsilon, delta, m, mode)
    return SamplePlan(epsilon, delta, mode, c, with_replacement=(mode == "copeland"), seed=seed)


def child_seed(seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, trial))


def _generator(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seed))


def _draw(e: Election, plan: SamplePlan) -> np.ndarray:
    """The voter indices of a seeded draw, in draw order."""
    if not plan.with_replacement and plan.size > e.n:
        raise ConfigError(f"cannot draw {plan.size} voters from {e.n} without replacement")
    rng = _generator(plan.seed)
    return rng.choice(e.n, size=plan.size, replace=plan.with_replacement)


def sample_voters(e: Election, plan: SamplePlan) -> tuple[Election, Transcript]:
    """Seeded voter draw; the transcript records the sampled indices in order."""
    idx = _draw(e, plan)
    transcript = Transcript()
    for i in idx.tolist():
        transcript.record_sample(i)
    return e.restrict(idx), transcript


def sampled_copeland(e: Election, epsilon: float, delta: float, seed: int) -> int:
    """Copeland winner of a sampled voter multiset.

    This is the king of the sample's majority tournament.  The sample size
    is odd and every ballot is a total order, so counts[a, b] +
    counts[b, a] is odd for every pair: no pair ties, and the support
    matrix at 1/2 is counts > counts.T.  Copeland scores are then twice the
    out-degrees of that tournament, and both rules take the first
    candidate of most wins.
    """
    if not e.all_total:
        raise ConfigError("sampled copeland needs total orders")
    return copeland(e.restrict(_draw(e, make_plan(epsilon, delta, e.m, "copeland", seed))))


def sampled_pm(e: Election, epsilon: float, delta: float, seed: int) -> tuple[int, tuple[Fraction, ...]]:
    """Sampled PluralityMatching: the winner and the sampled matching fractions.

    The winner is the argmax of the fractions; ties break by index.
    """
    if not e.all_total:
        raise ConfigError("sampled plurality-matching needs total orders")
    sub = e.restrict(_draw(e, make_plan(epsilon, delta, e.m, "plurality-matching", seed)))
    # right-side capacities are the sample's own plurality counts
    phis = phi_scores(sub)
    return phis.index(max(phis)), phis


def sampled_plurality_matching(e: Election, epsilon: float, delta: float, seed: int) -> int:
    """Winner of :func:`sampled_pm`."""
    return sampled_pm(e, epsilon, delta, seed)[0]
