"""Exception types shared across the package."""

__all__ = [
    "KnotprojError",
    "MalformedCode",
    "UnknownLabel",
    "NotRealizable",
    "NoCrossings",
    "InvalidSite",
    "InapplicableMove",
    "PreconditionTripleChord",
    "TheoremViolation",
    "BudgetExceeded",
    "SchemaError",
]


class KnotprojError(Exception):
    """Base class for every error raised by this package."""


class MalformedCode(KnotprojError, ValueError):
    """A Gauss-code string or label sequence is not a double-occurrence word."""


class UnknownLabel(KnotprojError, LookupError):
    """A crossing label outside 1..n was used."""


class NotRealizable(KnotprojError):
    """No spherical realization exists for the given chord diagram.

    ``parity_chord`` is set when the cheap necessary condition already fails:
    that chord interleaves an odd number of chords.
    """

    def __init__(self, message: str, parity_chord: int | None = None):
        super().__init__(message)
        self.parity_chord = parity_chord


class NoCrossings(KnotprojError, ValueError):
    """An operation requiring at least one crossing was called on U."""


class InvalidSite(KnotprojError, ValueError):
    """An edge or vertex site argument is out of range."""


class InapplicableMove(KnotprojError, ValueError):
    """The requested move is not applicable to the given curve."""


class PreconditionTripleChord(KnotprojError, ValueError):
    """The curve contains a triple chord but the operation requires tr = 0."""


class TheoremViolation(KnotprojError):
    """A machine-checked statement failed on a concrete curve.

    Raised by the reduction driver when a triple-chord-free curve with
    crossings admits neither a 1b nor an s2b move.  Reaching this is a bug
    (or a counterexample); it is never expected.
    """


class BudgetExceeded(KnotprojError):
    """The requested crossing number is above the configured maximum."""


class SchemaError(KnotprojError, ValueError):
    """A dataset file violates the JSONL schema.

    ``line`` is the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
