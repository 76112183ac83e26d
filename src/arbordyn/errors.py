"""Exception types shared across the package."""


class ArborDynError(Exception):
    """Base class for all library-specific errors."""


class ZeroPolynomialError(ArborDynError, ValueError):
    """An operation received the zero polynomial where it is undefined."""


class DegenerateMapError(ArborDynError, ValueError):
    """Numerator and denominator share a projective root."""


class DegreeTooSmallError(ArborDynError, ValueError):
    """Rational maps must have degree at least 2."""


class FactoringBudgetError(ArborDynError, RuntimeError):
    """An integer whose every prime is needed was not fully factored within the budget."""


class CompositeModulusError(ArborDynError, ValueError):
    """A prime modulus was required."""


class BadReductionError(ArborDynError, ValueError):
    """The operation requires good reduction at the given prime."""


class NotDefinedOverQError(ArborDynError, ValueError):
    """A map over Q was asked to be conjugated by a Moebius transform with an
    irrational entry."""


class NotBicriticalError(ArborDynError, ValueError):
    """The map does not have exactly two critical points."""


class InvariantViolationError(ArborDynError, AssertionError):
    """An invariant that should hold unconditionally was violated."""
