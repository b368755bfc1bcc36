"""Metric-distortion voting toolkit.

Mechanisms under limited ordinal information (pairwise elicitation, k-top
ballots, missing voters, random samples), an instance-optimal LP
distortion evaluator, adversarial instance generators, score-table
ingestion, and an experiment CLI.

Importing the package loads NumPy but not SciPy.  SciPy's LP solver loads on
the first LP and its max-flow on the first max-flow matching; generating
instances and running the mechanisms that need neither never load it.
"""

__version__ = "0.1.0"

from .core import (
    ComparisonGraph,
    Election,
    MetricWitness,
    Transcript,
    check_consistent,
    comparison_graph,
    election_from_text,
    election_to_text,
    induce_election,
    mask_voters,
    realized_distortion,
    social_cost,
    social_costs,
    truncate_to_ktop,
)
from .lp import (
    DistortionReport,
    LinearProgram,
    LpOutcome,
    MinimaxResult,
    build_metric_lp,
    distortion_of,
    distortion_pair,
    distortion_table,
    extract_pseudometric,
    minimax,
    solve_lp,
    solve_pair,
)
from .mechanisms import (
    DominationGraph,
    MatchingResult,
    balanced_rule,
    build_domination_graph,
    conjecture_probe,
    copeland,
    domination_root,
    king_vertex,
    ktop_rule,
    majority_oracle,
    max_matching,
    plurality_matching,
    run_dr,
)
from .sampling import (
    sample_size,
    sample_voters,
    sampled_copeland,
    sampled_plurality_matching,
)
