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

Reproducibility: every draw uses ``core.seeded_rng``, numpy's PCG64 seeded
through SeedSequence; per-trial child seeds derive as
SeedSequence((seed, trial)).  Each sampled rule states its replacement
policy next to its ``sample_size`` call.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import Election, _need_voters, seeded_rng
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


def child_seed(seed: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, trial))


def _draw(e: Election, size: int, replace: bool, seed) -> np.ndarray:
    """The voter indices of a seeded draw, in draw order."""
    _need_voters(e)
    if not replace and size > e.n:
        raise ConfigError(f"cannot draw {size} voters from {e.n} without replacement")
    return seeded_rng(seed).choice(e.n, size=size, replace=replace)


def sample_voters(e: Election, size: int, replace: bool, seed) -> tuple[Election, np.ndarray]:
    """Seeded voter draw: the sub-election and the drawn voter indices, in draw order."""
    idx = _draw(e, size, replace, seed)
    return e.restrict(idx), idx


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
    # with replacement: the Chernoff bound of the module docstring draws voters independently
    return copeland(e.restrict(_draw(e, sample_size(epsilon, delta, e.m, "copeland"), True, seed)))


def sampled_pm(e: Election, epsilon: float, delta: float, seed: int) -> tuple[int, tuple[Fraction, ...]]:
    """Sampled PluralityMatching: the winner and the sampled matching fractions.

    The winner is the argmax of the fractions; ties break by index.
    """
    if not e.all_total:
        raise ConfigError("sampled plurality-matching needs total orders")
    # without replacement, as the module docstring states
    sub = e.restrict(_draw(e, sample_size(epsilon, delta, e.m, "plurality-matching"), False, seed))
    # right-side capacities are the sample's own plurality counts
    phis = phi_scores(sub)
    return phis.index(max(phis)), phis


def sampled_plurality_matching(e: Election, epsilon: float, delta: float, seed: int) -> int:
    """Winner of :func:`sampled_pm`."""
    return sampled_pm(e, epsilon, delta, seed)[0]
