"""Exception types raised by the library.

Every error is a subclass of GemkitError so callers can catch the whole
family at once; the CLI maps them to its usage/data exit codes.
"""


class GemkitError(Exception):
    """Base class for all library errors."""


class LengthMismatch(GemkitError):
    """Wrong number of matchings for the declared dimension."""


class NotABijection(GemkitError):
    """A matching line repeats or omits a black vertex."""


class InvalidColourSet(GemkitError):
    """A colour outside [1..d+1] was supplied."""


class NotAComponent(GemkitError):
    """The vertex set passed is not a connected component of the residue."""


class InvalidMove(GemkitError):
    """The dipole move does not exist in the graph it was applied to."""


class Disconnected(GemkitError):
    """Operation requires a connected graph."""


class RangeError(GemkitError):
    """Numeric argument outside its documented range."""


class OddDimension(GemkitError):
    """Euler-Poincare identity only applies to even-dimensional complexes."""


class BadParams(GemkitError):
    """Construction parameters are invalid (including parity-breaking permutations)."""


class NotAConstructionGraph(GemkitError):
    """The graph does not have the double-path structure the extension needs."""


class OddN(GemkitError):
    """Colourful graphs need an even number of vertices."""


class BudgetExceeded(GemkitError):
    """Enumeration size exceeds the configured budget."""


class InvariantViolated(GemkitError):
    """An internal consistency check failed: a library bug, not bad input."""


class FormatError(GemkitError):
    """CGF parse error; message cites line and token."""

    def __init__(self, message, line=None, token=None):
        detail = message
        if line is not None:
            detail = f"line {line}: {detail}"
        if token is not None:
            detail = f"{detail} (token {token!r})"
        super().__init__(detail)
        self.line = line
        self.token = token
