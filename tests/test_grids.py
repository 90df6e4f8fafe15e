from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotpref.grids import (
    GridSpec,
    dyadic_alphas,
    enumerate_grid,
    fixed_denominator_lattice,
    rationals_between,
)
from lotpref.lotteries import OutcomeSpace

F = Fraction
SPACE = OutcomeSpace.of_size(3)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(SPACE, 0)


@pytest.mark.parametrize("bound", [2.5, True, "3", F(3)])
def test_grid_bound_must_be_an_int(bound):
    # Each of these once constructed: enumerate_grid then raised
    # TypeError, or True ran as bound 1 and wrote a JSON true.
    with pytest.raises(ValueError, match="denominator bound must be an int"):
        GridSpec(SPACE, bound)


def test_enumerate_grid_counts():
    # Farey-style counts for three outcomes; frozen by brute force.
    assert len(enumerate_grid(GridSpec(SPACE, 4))) == 22
    assert len(enumerate_grid(GridSpec(SPACE, 6))) == 55
    assert len(enumerate_grid(GridSpec(SPACE, 8))) == 118


def test_enumerate_grid_order():
    grid = enumerate_grid(GridSpec(SPACE, 2))
    weights = [g.weights for g in grid]
    assert weights == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (0, F(1, 2), F(1, 2)),
        (F(1, 2), 0, F(1, 2)),
        (F(1, 2), F(1, 2), 0),
    ]


def test_enumerate_grid_no_duplicates():
    grid = enumerate_grid(GridSpec(SPACE, 9))
    assert len(set(grid)) == len(grid)
    # The uniform lottery shows up exactly once, at denominator 3.
    assert sum(1 for g in grid if len(set(g.weights)) == 1) == 1


@given(st.integers(1, 7), st.integers(2, 4))
def test_enumerate_grid_denominators_within_bound(bound, size):
    space = OutcomeSpace.of_size(size)
    for g in enumerate_grid(GridSpec(space, bound)):
        for w in g.weights:
            assert w.denominator <= bound


def test_fixed_denominator_lattice():
    lattice = fixed_denominator_lattice(SPACE, 12)
    # C(12 + 2, 2) points, reducible ones included.
    assert len(lattice) == 91
    assert lattice[0].weights == (0, 0, 1)
    assert lattice[-1].weights == (1, 0, 0)
    assert len(set(lattice)) == 91
    with pytest.raises(ValueError):
        fixed_denominator_lattice(SPACE, 0)


BAD_BOUNDS = [(2.5, "must be an int"), (True, "must be an int"),
              (Fraction(2), "must be an int"), ("3", "must be an int"),
              (0, "must be positive"), (-1, "must be positive")]


@pytest.mark.parametrize("bad,message", BAD_BOUNDS)
def test_fixed_denominator_lattice_refuses_bad_denominators(bad, message):
    with pytest.raises(ValueError, match=f"denominator {message}"):
        fixed_denominator_lattice(SPACE, bad)


@pytest.mark.parametrize("bad,message", BAD_BOUNDS)
def test_dyadic_alphas_refuses_bad_bounds(bad, message):
    # 2.5 used to give (1/2, 1) and 0 an empty tuple.
    for interior_only in (False, True):
        with pytest.raises(ValueError, match=f"bound {message}"):
            dyadic_alphas(bad, interior_only=interior_only)


@pytest.mark.parametrize("bad,message", BAD_BOUNDS)
def test_rationals_between_refuses_bad_bounds(bad, message):
    with pytest.raises(ValueError, match=f"max_denominator {message}"):
        rationals_between(F(0), F(1), bad)


def test_dyadic_alphas():
    assert dyadic_alphas(6) == (F(1, 4), F(1, 2), F(3, 4), F(1))
    assert dyadic_alphas(6, interior_only=True) == (F(1, 4), F(1, 2), F(3, 4))
    assert dyadic_alphas(1) == (F(1),)
    assert dyadic_alphas(1, interior_only=True) == ()


@given(st.integers(1, 64))
def test_dyadic_alphas_sorted_and_in_range(bound):
    vals = dyadic_alphas(bound)
    assert list(vals) == sorted(vals)
    for v in vals:
        assert 0 < v <= 1
        # Denominator of the reduced form is a power of two within bound.
        d = v.denominator
        assert d <= bound and d & (d - 1) == 0


def test_rationals_between_frozen():
    assert rationals_between(F(0), F(1), 3) == (
        F(0),
        F(1),
        F(1, 2),
        F(1, 3),
        F(2, 3),
    )
    assert rationals_between(F(1, 3), F(2, 3), 4) == (F(1, 2), F(1, 3), F(2, 3))
    assert rationals_between(F(1, 2), F(1, 2), 2) == (F(1, 2),)
    with pytest.raises(ValueError):
        rationals_between(F(0), F(1), 0)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 4), st.integers(1, 10))
def test_rationals_between_complete(a, b, den, bound):
    lo, hi = sorted((F(a, den), F(b, den)))
    vals = rationals_between(lo, hi, bound)
    assert len(set(vals)) == len(vals)
    for v in vals:
        assert lo <= v <= hi
        assert v.denominator <= bound
    # Completeness: every reduced fraction in range with a small
    # denominator must be present.
    for q in range(1, bound + 1):
        p = -(-(lo.numerator * q) // lo.denominator)
        while F(p, q) <= hi:
            assert F(p, q) in vals
            p += 1


def dyadic_reference(bound, interior_only):
    """Every a/b in (0, 1] with b <= bound whose reduced denominator is
    a power of two, ascending; without 1 when interior_only."""
    vals = {F(a, b) for b in range(1, bound + 1) for a in range(1, b + 1)}
    return tuple(sorted(v for v in vals if v.denominator & (v.denominator - 1) == 0
                        and not (interior_only and v == 1)))


def unit_rationals_reference(bound):
    return tuple(F(a, b) for b in range(1, bound + 1) for a in range(b + 1)
                 if gcd(a, b) == 1)


@pytest.mark.parametrize("bound", range(1, 25))
def test_candidate_lists_are_built_once(bound):
    # Each list is cached: a repeated call hands back the same tuple,
    # equal to one built afresh.
    for interior_only in (False, True):
        first = dyadic_alphas(bound, interior_only=interior_only)
        assert dyadic_alphas(bound, interior_only=interior_only) is first
        assert first == dyadic_reference(bound, interior_only)
    first = rationals_between(F(0), F(1), bound)
    assert rationals_between(F(0), F(1), bound) is first
    assert first == unit_rationals_reference(bound)


@pytest.mark.parametrize("good", [1, 2])
@pytest.mark.parametrize("bad,message", [
    (True, "must be an int"), (2.0, "must be an int"), (0, "must be positive")])
def test_cached_lists_still_refuse_bad_bounds(good, bad, message):
    # True hashes like 1 and 2.0 like 2, so a cache on the public
    # functions would answer them with the good bound's list.
    dyadic_alphas(good)
    dyadic_alphas(good, interior_only=True)
    rationals_between(F(0), F(1), good)
    for interior_only in (False, True):
        with pytest.raises(ValueError, match=f"bound {message}"):
            dyadic_alphas(bad, interior_only=interior_only)
    with pytest.raises(ValueError, match=f"max_denominator {message}"):
        rationals_between(F(0), F(1), bad)
