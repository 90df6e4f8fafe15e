"""Outcome spaces, lotteries, and the drop-first-coordinate embedding.

A lottery over outcomes x0..xn is a weight vector of exact rationals
that is componentwise nonnegative and sums to one.  Because the weights
are tied by that sum, the lottery is determined by its last n
coordinates; ``embed`` drops coordinate 0 and ``unembed`` restores it.
All geometric reasoning downstream (affine hulls, hyperplanes, kernels)
happens in the embedded n-dimensional picture, where the simplex has
nonempty interior.

A lottery keeps its weights over their least common denominator as
``integer_form``.  ``Lottery.from_integers`` builds one from that form
directly, validating in ints: the grid enumerations and the axiom
checkers' callback interner compute their numerators in ints and build
each lottery through it, and so does the scenario reader, which parses
weights as integer pairs.  ``mix``, whose numerators are valid by
construction, only reduces them, and ``degenerate`` and ``uniform``
write theirs in lowest terms directly.  Such a lottery
holds only its integer form; its Fraction ``weights`` are built on
first read.  The built-in oracles and ``Lottery ==`` compare
``integer_form``, so mixing and comparing builds no Fraction weight at
all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record
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
from .rationals import parse_rational, require_exact

__all__ = [
    "OutcomeSpace",
    "Lottery",
    "EmbeddedPoint",
    "make_lottery",
    "degenerate",
    "uniform",
    "mix",
    "embed",
    "unembed",
    "as_fraction",
]

ONE = Fraction(1)


class OutcomeSpace(Record):
    """An ordered, finite set of outcome labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = self.labels
        if type(labels) is not tuple:
            raise ValueError(f"outcome labels must be a tuple, got {labels!r}")
        if len(labels) == 0:
            raise EmptyInput("an outcome space needs at least one outcome")
        seen = set()
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"outcome labels must be strings, got {label!r}")
            if label in seen:
                raise ValueError(f"outcome labels must be distinct, "
                                 f"got {label!r} twice")
            seen.add(label)

    @classmethod
    def of_size(cls, size: int) -> "OutcomeSpace":
        if type(size) is not int:
            raise ValueError(f"outcome count must be an int, got {size!r}")
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


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and "a/b" strings; reject floats and
    bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"not an exact rational: {value!r}")


def _lowest_form(nums, den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) for weights nums[i]/den, den >= 1, reduced by
    gcd(den, *nums), which puts them over their least common
    denominator; NegativeWeight or SumNotOne unless the weights are
    nonnegative and sum to one."""
    for num in nums:
        if num < 0:
            raise NegativeWeight(f"weight {Fraction(num, den)} is negative")
    if sum(nums) != den:
        raise SumNotOne(f"weights sum to {Fraction(sum(nums), den)}, not 1")
    return _reduced(nums, den)


def _reduced(nums, den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) reduced by gcd(den, *nums)."""
    common = gcd(den, *nums)
    if common == 1:
        return tuple(nums), den
    return tuple([a // common for a in nums]), den // common


class Lottery(Record):
    """A probability vector over an outcome space, validated on creation.

    Validation puts the weights over their least common denominator,
    and the lottery keeps that as ``integer_form``, (nums, den) with
    weights[i] == nums[i] / den, for callers that compare or combine
    lotteries in ints.  It is an attribute, not a field.  That form is
    canonical (lowest terms over the lcm), so equality compares
    ``(space, integer_form)``: two lotteries are equal exactly when
    their weights are.  The hash is the hash of the fields, as for any
    record.  ``from_integers`` builds the lottery from such a form, in
    any common denominator, and sets no weights: the first read of
    ``weights`` builds them from ``integer_form`` and keeps them, so
    hash, repr, pickling and ``dataclasses.replace`` see the same
    Fractions either way.
    """

    space: OutcomeSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.weights) is not tuple:
            raise ValueError(f"lottery weights must be a tuple, got {self.weights!r}")
        if len(self.weights) != self.space.size:
            raise LengthMismatch(
                f"{len(self.weights)} weights for {self.space.size} outcomes")
        require_exact(self.weights)
        object.__setattr__(self, "integer_form",
                           _lowest_form(*common_denominator(self.weights)))

    @classmethod
    def from_integers(cls, space: OutcomeSpace, nums, den: int) -> "Lottery":
        """The lottery with weights nums[i]/den, validated in ints with
        the error classes of ``Lottery(space, weights)``: LengthMismatch,
        ValueError for an entry or a den that is not an int (bool
        included) and for den < 1, NegativeWeight, SumNotOne.  The form
        is reduced onto the weights' least common denominator, so it is
        ``integer_form`` as is; the weights are built from it when first
        read."""
        nums = tuple(nums)
        if len(nums) != space.size:
            raise LengthMismatch(f"{len(nums)} weights for {space.size} outcomes")
        for value in (*nums, den):
            if type(value) is not int:
                raise ValueError(f"not an int: {value!r}")
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        return cls._of_form(space, _lowest_form(nums, den))

    @classmethod
    def _of_form(cls, space: OutcomeSpace, form) -> "Lottery":
        """The lottery whose ``integer_form`` is form, which the caller
        has already put in lowest terms over nonnegative ints summing to
        its denominator; nothing is checked."""
        lot = object.__new__(cls)
        object.__setattr__(lot, "space", space)
        object.__setattr__(lot, "integer_form", form)
        return lot

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.space, self.integer_form)
                    == (other.space, other.integer_form))
        return NotImplemented

    def __getattr__(self, name):
        # Reached only for an attribute the instance does not hold: the
        # weights of a lottery from ``from_integers`` before their first
        # read.  Any other name is missing as usual, which pickling's
        # probes for hooks rely on.
        if name != "weights":
            raise AttributeError(
                f"{type(self).__qualname__!r} object has no attribute {name!r}")
        nums, den = self.integer_form
        weights = tuple([Fraction(a, den) for a in nums])
        object.__setattr__(self, "weights", weights)
        return weights

    def __getitem__(self, index: int) -> Fraction:
        return self.weights[index]


class EmbeddedPoint(Record):
    """A lottery seen through the embedding: coordinates 1..n only."""

    space: OutcomeSpace
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.space.n:
            raise LengthMismatch(
                f"{len(self.coords)} coordinates for dimension {self.space.n}")
        require_exact(self.coords)


def make_lottery(space: OutcomeSpace, weights) -> Lottery:
    """Build a lottery from any mix of ints, Fractions, and "a/b" strings."""
    return Lottery(space, tuple(as_fraction(w) for w in weights))


def degenerate(space: OutcomeSpace, index: int) -> Lottery:
    """The lottery that yields outcome ``index`` with certainty."""
    if type(index) is not int:
        raise ValueError(f"outcome index must be an int, got {index!r}")
    if not 0 <= index < space.size:
        raise LengthMismatch(f"no outcome {index} in a space of {space.size}")
    return Lottery._of_form(
        space, (tuple([int(i == index) for i in range(space.size)]), 1))


def uniform(space: OutcomeSpace) -> Lottery:
    """The lottery placing equal weight on every outcome."""
    return Lottery._of_form(space, ((1,) * space.size, space.size))


def unit_weight(alpha) -> Fraction:
    """alpha as an exact rational; AlphaOutOfRange outside [0, 1]."""
    a = as_fraction(alpha)
    if not 0 <= a.numerator <= a.denominator:
        raise AlphaOutOfRange(f"alpha {a} outside [0, 1]")
    return a


def mix(p: Lottery, q: Lottery, alpha) -> Lottery:
    """The convex combination alpha*p + (1-alpha)*q.

    alpha must be an exact rational in [0, 1]; the endpoints are allowed
    and return q and p respectively.  The numerators are computed in
    ints over one denominator.  Two valid integer forms and a weight in
    [0, 1] give nonnegative ints that sum to it, so the result skips
    ``Lottery.from_integers``'s checks and is only reduced to lowest
    terms, which is the form that constructor would give.
    """
    if p.space is not q.space and p.space != q.space:
        raise SpaceMismatch("cannot mix lotteries over different spaces")
    a = unit_weight(alpha)
    pn, pd = p.integer_form
    qn, qd = q.integer_form
    # a·x/pd + (1 − a)·y/qd over the one denominator den.
    den = a.denominator * pd * qd
    kp = a.numerator * qd
    kq = (a.denominator - a.numerator) * pd
    return Lottery._of_form(
        p.space, _reduced([kp * x + kq * y for x, y in zip(pn, qn)], den))


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
