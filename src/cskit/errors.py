"""Exception types shared across the toolkit."""


class CskitError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(CskitError, ValueError):
    """Raised when polynomial text, sequence files, or JSON cannot be parsed."""


class DegreeError(CskitError, ValueError):
    """A restricted polynomial has a term of degree three or more, so no
    weighted graph of pairwise couplings represents it."""


class GraphShapeError(CskitError, ValueError):
    """The restriction graphs do not satisfy the construction hypothesis
    (wrong shape, wrong edge weight, or inconsistent isolated vertices)."""


class MixedCouplingError(CskitError, ValueError):
    """An isolated vertex is still coupled through a surviving term of degree
    two or more, so its linear surplus is not a pure coupling sum."""


class BalanceError(CskitError, ValueError):
    """The half-zero / half-opposite condition on coupling surpluses fails,
    so the balanced complementary-set construction does not apply."""


class EnumerationError(CskitError, ValueError):
    """A requested codebook enumeration is malformed or infeasibly large."""


class ModulusError(CskitError, ValueError):
    """A phase modulus is not a power of two >= 2, which polyphase sequences
    and their exact correlation in Z[omega] require."""


class EmptySequenceError(CskitError, ValueError):
    """A sequence has no live (unmasked) position, so its mean envelope power
    is zero and no peak-to-mean ratio exists."""
