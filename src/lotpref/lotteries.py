"""Outcome spaces, lotteries, and the drop-first-coordinate embedding.

A lottery over outcomes x0..xn is a weight vector of exact rationals
that is componentwise nonnegative and sums to one.  Because the weights
are tied by that sum, the lottery is determined by its last n
coordinates; ``embed`` drops coordinate 0 and ``unembed`` restores it.
All geometric reasoning downstream (affine hulls, hyperplanes, kernels)
happens in the embedded n-dimensional picture, where the simplex has
nonempty interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AlphaOutOfRange,
    EmptyInput,
    LengthMismatch,
    NegativeWeight,
    NotInSimplex,
    SpaceMismatch,
    SumNotOne,
)
from .geometry import common_denominator
from .rationals import parse_rational

__all__ = [
    "OutcomeSpace",
    "Lottery",
    "EmbeddedPoint",
    "make_lottery",
    "degenerate",
    "uniform",
    "mix",
    "unit_weight",
    "embed",
    "unembed",
    "as_fraction",
    "require_exact",
]

ONE = Fraction(1)


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered, finite set of outcome labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise EmptyInput("an outcome space needs at least one outcome")

    @classmethod
    def of_size(cls, size: int) -> "OutcomeSpace":
        if size < 1:
            raise EmptyInput("an outcome space needs at least one outcome")
        return cls(tuple(f"x{i}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        """Dimension of the embedded simplex (one less than the size)."""
        return len(self.labels) - 1


def require_exact(values) -> None:
    """ValueError naming the first value that is not an int or a
    Fraction, so no float or string gets into exact arithmetic."""
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"not an exact rational: {value!r}")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and "a/b" strings; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class Lottery:
    """A probability vector over an outcome space, validated on creation."""

    space: OutcomeSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.space.size:
            raise LengthMismatch(
                f"{len(self.weights)} weights for {self.space.size} outcomes")
        require_exact(self.weights)
        nums, den = common_denominator(self.weights)
        for w, num in zip(self.weights, nums):
            if num < 0:
                raise NegativeWeight(f"weight {w} is negative")
        if sum(nums) != den:
            raise SumNotOne(f"weights sum to {Fraction(sum(nums), den)}, not 1")

    def __getitem__(self, index: int) -> Fraction:
        return self.weights[index]


@dataclass(frozen=True)
class EmbeddedPoint:
    """A lottery seen through the embedding: coordinates 1..n only."""

    space: OutcomeSpace
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.space.n:
            raise LengthMismatch(
                f"{len(self.coords)} coordinates for dimension {self.space.n}")


def make_lottery(space: OutcomeSpace, weights) -> Lottery:
    """Build a lottery from any mix of ints, Fractions, and "a/b" strings."""
    return Lottery(space, tuple(as_fraction(w) for w in weights))


def degenerate(space: OutcomeSpace, index: int) -> Lottery:
    """The lottery that yields outcome ``index`` with certainty."""
    if not 0 <= index < space.size:
        raise LengthMismatch(f"no outcome {index} in a space of {space.size}")
    return Lottery(space, tuple(
        ONE if i == index else Fraction(0) for i in range(space.size)))


def uniform(space: OutcomeSpace) -> Lottery:
    """The lottery placing equal weight on every outcome."""
    w = Fraction(1, space.size)
    return Lottery(space, (w,) * space.size)


def unit_weight(alpha) -> Fraction:
    """alpha as an exact rational; AlphaOutOfRange outside [0, 1]."""
    a = as_fraction(alpha)
    if not 0 <= a <= 1:
        raise AlphaOutOfRange(f"alpha {a} outside [0, 1]")
    return a


def mix(p: Lottery, q: Lottery, alpha) -> Lottery:
    """The convex combination alpha*p + (1-alpha)*q.

    alpha must be an exact rational in [0, 1]; the endpoints are allowed
    and return q and p respectively.
    """
    if p.space != q.space:
        raise SpaceMismatch("cannot mix lotteries over different spaces")
    a = unit_weight(alpha)
    pn, pd = common_denominator(p.weights)
    qn, qd = common_denominator(q.weights)
    # a·x/pd + (1 − a)·y/qd over the one denominator den.
    den = a.denominator * pd * qd
    kp = a.numerator * qd
    kq = (a.denominator - a.numerator) * pd
    return Lottery(p.space, tuple(
        Fraction(kp * x + kq * y, den) for x, y in zip(pn, qn)))


def embed(p: Lottery) -> EmbeddedPoint:
    """Drop coordinate 0; the remaining coordinates determine p."""
    return EmbeddedPoint(p.space, p.weights[1:])


def unembed(point: EmbeddedPoint) -> Lottery:
    """Invert ``embed``; raises NotInSimplex when no lottery matches."""
    rest = sum(point.coords, Fraction(0))
    first = ONE - rest
    if first < 0 or any(c < 0 for c in point.coords):
        raise NotInSimplex(f"coordinates {point.coords} leave the simplex")
    return Lottery(point.space, (first,) + point.coords)
