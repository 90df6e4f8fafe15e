"""Finite lottery grids and candidate-weight enumerations.

The checkers in this package are exhaustive over finite grids, so every
enumeration here has one pinned deterministic order:

* grid lotteries: ascending denominator, then lexicographic numerators,
  with reduced duplicates dropped (a lottery appears once, at the
  smallest denominator that expresses it);
* rational candidates in an interval: ascending denominator, then
  ascending numerator, reduced forms only;
* dyadic mixing weights: ascending value.

"First violation found" is only meaningful because these orders never
change.

Every bound here must be an int (not a bool) of at least 1; anything
else raises ValueError naming the parameter.  Grid lotteries are built
from their integer numerators by ``Lottery.from_integers``.  The
candidate-weight lists are built once per bound and shared: each public
function checks its bound and then reads a cached private builder, so a
bad bound that hashes like a good one (True like 1, 2.0 like 2) is
still refused.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._record import Record
from .lotteries import Lottery, OutcomeSpace

__all__ = [
    "GridSpec",
    "enumerate_grid",
    "fixed_denominator_lattice",
    "dyadic_alphas",
    "rationals_between",
]


def _require_bound(name: str, value) -> None:
    """ValueError naming ``name`` unless value is an int >= 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


class GridSpec(Record):
    """All lotteries over ``space`` with some common denominator <= bound."""

    space: OutcomeSpace
    denominator_bound: int

    def __post_init__(self):
        _require_bound("denominator bound", self.denominator_bound)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``,
    in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_grid(spec: GridSpec) -> tuple[Lottery, ...]:
    """Every lottery with denominator <= the bound, each listed once."""
    out = []
    size = spec.space.size
    for k in range(1, spec.denominator_bound + 1):
        for nums in _compositions(k, size):
            g = 0
            for a in nums:
                g = gcd(g, a)
            if g != 1:
                continue  # already emitted at denominator k/g
            out.append(Lottery.from_integers(spec.space, nums, k))
    return tuple(out)


def fixed_denominator_lattice(space: OutcomeSpace, denominator: int) -> tuple[Lottery, ...]:
    """Every lottery whose weights are multiples of 1/denominator.

    Unlike ``enumerate_grid`` this keeps reducible points (the vertex
    (1,0,0) appears here even though its reduced denominator is 1), so
    the count is the full lattice size.
    """
    _require_bound("denominator", denominator)
    return tuple(Lottery.from_integers(space, nums, denominator)
                 for nums in _compositions(denominator, space.size))


def dyadic_alphas(bound: int, *, interior_only: bool = False) -> tuple[Fraction, ...]:
    """Dyadic rationals in (0, 1] with denominator <= bound, ascending.

    With ``interior_only`` the endpoint 1 is dropped, leaving (0, 1).
    """
    _require_bound("bound", bound)
    return _dyadic_alphas(bound, bool(interior_only))


@lru_cache(maxsize=64)
def _dyadic_alphas(bound: int, interior_only: bool) -> tuple[Fraction, ...]:
    vals = set()
    power = 1
    while power <= bound:
        for a in range(1, power + 1):
            vals.add(Fraction(a, power))
        power *= 2
    if interior_only:
        vals.discard(Fraction(1))
    return tuple(sorted(vals))


def rationals_between(lo: Fraction, hi: Fraction, max_denominator: int) -> tuple[Fraction, ...]:
    """Reduced rationals in [lo, hi] with denominator <= max_denominator,
    ordered by ascending denominator then ascending numerator."""
    _require_bound("max_denominator", max_denominator)
    return _rationals_between(lo, hi, max_denominator)


@lru_cache(maxsize=64, typed=True)
def _rationals_between(lo: Fraction, hi: Fraction,
                       max_denominator: int) -> tuple[Fraction, ...]:
    out = []
    for b in range(1, max_denominator + 1):
        a = -(-(lo.numerator * b) // lo.denominator)  # ceil(lo*b)
        top = (hi.numerator * b) // hi.denominator    # floor(hi*b)
        while a <= top:
            # Reduced forms are unique, so gcd = 1 also deduplicates.
            if gcd(abs(a), b) == 1:
                out.append(Fraction(a, b))
            a += 1
    return tuple(out)
