"""Exception types shared across the package.

Every error raised on a violated operation precondition derives from
ConvexmodError, so callers (and the CLI) can distinguish usage problems
from genuine check failures.  InternalError stands apart: it reports a
broken invariant of the package itself, never bad input.
"""


class ConvexmodError(Exception):
    """Base class for all package-specific errors."""


class NotInvertibleError(ConvexmodError):
    """Division by an element with no multiplicative inverse."""


class NotSemifieldError(ConvexmodError):
    """An operation requiring a semifield was applied to a non-semifield."""


class NotRefinementInstanceError(ConvexmodError):
    """refinement_witness called on a, b, c, d with a+b != c+d."""


class NoDecisionProcedureError(ConvexmodError):
    """check_property has no decision procedure for this combination."""


class SemiringMismatchError(ConvexmodError):
    """Two values from different semirings were combined."""


class UnmappedSymbolError(ConvexmodError):
    """A function table does not cover a symbol in the support."""


class DimensionMismatchError(ConvexmodError):
    """Linear system columns and target disagree in dimension."""


class ParseError(ConvexmodError):
    """Malformed term text or scalar literal; carries a position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.message = message
        self.position = position


class InternalError(Exception):
    """A broken invariant of the package, not bad input: an exact
    answer whose evidence failed its own check (a witness that does not
    re-substitute, an infeasibility certificate that does not separate)
    or a tableau no valid input can produce.  Deliberately not a
    ConvexmodError, so handlers of usage errors never swallow it."""
