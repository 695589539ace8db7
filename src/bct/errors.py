"""Exception types shared across the package."""


class BctError(Exception):
    """Base class for all package errors."""


class DivisionByZero(BctError):
    """Exact division by a zero field element."""


class InvalidParameters(BctError):
    """Arguments outside the supported parameter range."""


class TooLarge(BctError):
    """Requested object exceeds the configured element cap."""


class NotDistinct(BctError):
    """Operation requires two distinct hyperplanes."""


class InternalInconsistency(BctError):
    """Two independent computations of the same quantity disagree."""


class NotAdmissible(BctError):
    """Collection fails the admissibility requirement for this construction."""


class NotAdmissiblePair(BctError):
    """Induction data violates the admissible-pair requirement."""


class InvalidRoot(BctError):
    """Vector cannot serve as the root of a reflection of the requested order."""
