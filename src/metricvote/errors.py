"""Exception hierarchy shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(ToolkitError, ValueError):
    """Raised on malformed input files (election text, CSV tables)."""


class ConfigError(ToolkitError, ValueError):
    """Raised on invalid experiment configuration or parameter ranges."""


class CoverageError(ToolkitError, ValueError):
    """Raised when a rule's pairwise-coverage precondition fails.

    Carries the offending candidate pair in ``pair``.
    """

    def __init__(self, pair, message):
        super().__init__(message)
        self.pair = pair


class SolverFailureError(ToolkitError, RuntimeError):
    """Raised when the LP backend fails numerically (distinct from infeasible)."""


class TheoremFalsificationError(ToolkitError, RuntimeError):
    """Raised when a structure guaranteed to exist could not be found.

    This is a first-class outcome (CLI exit code 4): it means either a bug
    in this toolkit or a counterexample to a published guarantee, and the
    test suite treats any occurrence as a hard failure.
    """
