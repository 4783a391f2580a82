"""Exception hierarchy shared across the package.

Every error that callers are expected to catch has its own class; the CLI
maps them onto its exit-code contract (2 for bad input, 3 for an
exhausted enumeration budget, 4 for an internal failure).  Both subset
enumerations, the minimal-support search and the general-position
check, stop at their budget with the one BudgetExceededError.
"""


class MinprojError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(MinprojError, ValueError):
    """Malformed input data (bad rational string, float literal, missing
    field, a subspace basis or certificate that cannot be).  It is a
    ValueError too, so callers that catch ValueError keep working."""


class NotSymmetricError(MinprojError):
    """Vertex set is not closed under negation."""


class NotFullDimensionalError(MinprojError):
    """Vertex set does not span the ambient space."""


class NotExtremeError(MinprojError):
    """A listed vertex is a convex combination of the others (or a duplicate)."""


class NotMinimalError(MinprojError):
    """An operator claimed to be a minimal projection exceeds the projection constant."""


class BudgetExceededError(MinprojError):
    """A subset enumeration (minimal-support search or general-position
    check) exceeded its configured cap."""


class InternalError(MinprojError):
    """An invariant of the computation failed: a bug, never a property of the input."""
