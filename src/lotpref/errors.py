"""Exception types raised across the package.

Every validation failure raises one of these named classes so callers
(and the command line tool, which maps them to exit code 2) can react
to the failure kind rather than parse message strings.
"""


class LotprefError(Exception):
    """Base class for all package-specific errors."""


class NegativeWeight(LotprefError):
    """A lottery weight is below zero."""


class SumNotOne(LotprefError):
    """Lottery weights do not sum to exactly one."""


class LengthMismatch(LotprefError):
    """A weight vector does not match the outcome count of its space."""


class AlphaOutOfRange(LotprefError):
    """A mixing coefficient lies outside the closed unit interval."""


class SpaceMismatch(LotprefError):
    """Two objects built over different outcome spaces were combined."""


class NotInSimplex(LotprefError):
    """An embedded point does not correspond to any lottery."""


class EmptyInput(LotprefError):
    """An operation that needs at least one element got none."""


class DimensionMismatch(LotprefError):
    """Vectors or matrix rows of unequal length were combined."""


class RankDeficient(LotprefError):
    """A point set spans less than the required affine dimension."""


class WrongCount(LotprefError):
    """An operation got a different number of points than it requires."""


class NoSolveCapability(LotprefError):
    """solve() was called on an oracle that does not support it."""


class PreconditionViolated(LotprefError):
    """The ordering precondition of a solve query does not hold."""


class InconsistentStrictPair(LotprefError):
    """A strict comparison pair contradicts the elicited hyperplane."""


class NotInAffineHull(LotprefError):
    """A target point lies outside the affine hull of the given points."""


class UnorientedRepresentation(LotprefError):
    """A representation with no strict direction cannot classify points."""


class UnconfirmedHit(LotprefError, RuntimeError):
    """A scan reported a hit that the oracle's own answers do not
    confirm: a kernel fault or an inconsistent oracle, not a verdict."""


__all__ = [name for name, value in globals().items()
           if isinstance(value, type) and issubclass(value, LotprefError)]
