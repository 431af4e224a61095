"""Exception hierarchy shared across the package.

Every error raised by pdslab derives from :class:`PdsLabError`, and each
class carries the CLI's exit code for it, so this module is the one table
from failures to exit codes: 2 usage error (the default), 3 parse error
(graph or config files), 4 precondition violation (strict reduction
conditions, enumeration budgets and caps).  No caller matches on
message text.
"""

from __future__ import annotations


class PdsLabError(Exception):
    """Base class for all pdslab errors."""

    exit_code = 2


class InvalidParameterError(PdsLabError, ValueError):
    """A parameter is outside its documented domain."""


class InvalidProbabilityError(InvalidParameterError):
    """A probability argument lies outside [0, 1]."""


class InvalidGammaError(InvalidParameterError):
    """The clique edge density must lie in (0, 1/2]."""


class InvalidPmfError(PdsLabError, ValueError):
    """A probability vector fails normalization or nonnegativity."""


class ValidityViolationError(PdsLabError, ValueError):
    """A surgically modified PMF came out negative: the caller broke the
    validity conditions of the kernel construction."""

    exit_code = 4


class BudgetExceededError(PdsLabError, RuntimeError):
    """Exhaustive enumeration would visit more subsets than the budget."""

    exit_code = 4


class TooLargeError(PdsLabError, ValueError):
    """An exhaustive check was requested above its hard size cap."""

    exit_code = 4


class PreconditionViolationError(PdsLabError, ValueError):
    """An operation's stated precondition does not hold."""

    exit_code = 4


class ContractViolationError(PdsLabError, RuntimeError):
    """A user-supplied callable violated its interface contract."""


class VertexCountMismatchError(PdsLabError, ValueError):
    """An input graph has a different vertex count than the parameters."""

    exit_code = 4


class EdgeListParseError(PdsLabError, ValueError):
    """Malformed edge-list file; carries the 1-based offending line."""

    exit_code = 3

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(PdsLabError, ValueError):
    """A sweep configuration file failed validation."""

    exit_code = 3
