from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotpref.errors import (
    AlphaOutOfRange,
    EmptyInput,
    LengthMismatch,
    NegativeWeight,
    NotInSimplex,
    SpaceMismatch,
    SumNotOne,
)
from lotpref.geometry import common_denominator
from lotpref.lotteries import (
    EmbeddedPoint,
    Lottery,
    OutcomeSpace,
    as_fraction,
    degenerate,
    embed,
    make_lottery,
    mix,
    unembed,
    uniform,
)
from lotpref.scenario import lottery_to_json

SPACE = OutcomeSpace.of_size(3)


@st.composite
def lotteries(draw, size=3):
    """Random exact lottery: integer weights over a common denominator."""
    den = draw(st.integers(1, 30))
    cuts = sorted(draw(
        st.lists(st.integers(0, den), min_size=size - 1, max_size=size - 1)))
    bounds = [0] + cuts + [den]
    weights = tuple(
        Fraction(bounds[i + 1] - bounds[i], den) for i in range(size))
    return Lottery(OutcomeSpace.of_size(size), weights)


@st.composite
def mixed_lotteries(draw, size=3):
    """Random exact lottery whose weights keep their own denominators:
    each weight is a drawn fraction of what the earlier ones left."""
    rest, weights = Fraction(1), []
    for _ in range(size - 1):
        den = draw(st.integers(1, 12))
        weights.append(rest * Fraction(draw(st.integers(0, den)), den))
        rest -= weights[-1]
    return Lottery(OutcomeSpace.of_size(size), (*weights, rest))


def test_outcome_space_basics():
    assert SPACE.size == 3
    assert SPACE.n == 2
    named = OutcomeSpace(("win", "draw", "lose"))
    assert named.size == 3
    with pytest.raises(EmptyInput):
        OutcomeSpace(())


def test_as_fraction_accepts_exact_forms():
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 4)) == Fraction(1, 4)


def test_as_fraction_rejects_floats():
    with pytest.raises(ValueError):
        as_fraction(0.5)


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_lottery_rejects_inexact_weights(bad):
    # Without the check a float weight summed to 1 and every expected
    # utility over the lottery came out a float.
    with pytest.raises(ValueError, match="not an exact rational"):
        Lottery(OutcomeSpace.of_size(2), (bad, bad))
    with pytest.raises(ValueError, match=repr(bad)):
        Lottery(SPACE, (Fraction(1, 2), bad, Fraction(0)))


def test_lottery_validation_order():
    with pytest.raises(LengthMismatch):
        Lottery(SPACE, (Fraction(1), Fraction(0)))
    with pytest.raises(NegativeWeight):
        Lottery(SPACE, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
    with pytest.raises(SumNotOne):
        Lottery(SPACE, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))


def test_make_lottery_parses_strings():
    lot = make_lottery(SPACE, ["1/2", "1/4", "1/4"])
    assert lot.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert lot[0] == Fraction(1, 2)


def test_degenerate_and_uniform():
    assert degenerate(SPACE, 1).weights == (0, 1, 0)
    assert uniform(SPACE).weights == (Fraction(1, 3),) * 3
    with pytest.raises(LengthMismatch):
        degenerate(SPACE, 3)


def test_mix_fixture_value():
    p = make_lottery(SPACE, ["1/3", "1/3", "1/3"])
    q = make_lottery(SPACE, ["5/12", "1/6", "5/12"])
    m = mix(p, q, Fraction(2, 3))
    assert m.weights == (Fraction(13, 36), Fraction(5, 18), Fraction(13, 36))


def test_mix_endpoints():
    p = degenerate(SPACE, 0)
    q = degenerate(SPACE, 2)
    assert mix(p, q, Fraction(1)) == p
    assert mix(p, q, Fraction(0)) == q


def test_mix_rejects_bad_alpha_and_space():
    p, q = degenerate(SPACE, 0), degenerate(SPACE, 1)
    with pytest.raises(AlphaOutOfRange):
        mix(p, q, Fraction(-1, 10))
    with pytest.raises(AlphaOutOfRange):
        mix(p, q, Fraction(11, 10))
    other = degenerate(OutcomeSpace.of_size(4), 0)
    with pytest.raises(SpaceMismatch):
        mix(p, other, Fraction(1, 2))


def test_embed_drops_coordinate_zero():
    lot = make_lottery(SPACE, ["1/6", "1/3", "1/2"])
    assert embed(lot).coords == (Fraction(1, 3), Fraction(1, 2))


def test_unembed_round_trip_and_rejection():
    lot = make_lottery(SPACE, ["1/6", "1/3", "1/2"])
    assert unembed(embed(lot)) == lot
    with pytest.raises(NotInSimplex):
        unembed(EmbeddedPoint(SPACE, (Fraction(2, 3), Fraction(2, 3))))
    with pytest.raises(NotInSimplex):
        unembed(EmbeddedPoint(SPACE, (Fraction(-1, 3), Fraction(2, 3))))


@given(lotteries(), lotteries(), st.integers(0, 16))
def test_mix_stays_in_simplex(p, q, num):
    alpha = Fraction(num, 16)
    m = mix(p, q, alpha)
    assert sum(m.weights) == 1
    assert all(w >= 0 for w in m.weights)
    assert m.space == p.space


@given(lotteries(size=4))
def test_embed_unembed_round_trip(lot):
    assert unembed(embed(lot)) == lot


@given(mixed_lotteries(size=4))
def test_integer_form_is_kept_out_of_sight(lot):
    nums, den = common_denominator(lot.weights)
    assert lot.integer_form == (tuple(nums), den)
    # Not a field: equality, hash, repr and JSON read the weights only.
    assert [f.name for f in fields(Lottery)] == ["space", "weights"]
    twin = Lottery(lot.space, tuple(Fraction(w.numerator, w.denominator)
                                    for w in lot.weights))
    assert twin == lot and hash(twin) == hash(lot)
    assert repr(lot) == f"Lottery(space={lot.space!r}, weights={lot.weights!r})"
    assert lottery_to_json(lot) == [str(w) for w in lot.weights]
    with pytest.raises(FrozenInstanceError):
        lot.integer_form = ((1, 0, 0, 0), 1)


@given(mixed_lotteries(), mixed_lotteries(), st.data())
def test_mix_matches_fraction_reference(p, q, data):
    b = data.draw(st.integers(1, 12))
    alpha = Fraction(data.draw(st.integers(0, b)), b)
    m = mix(p, q, alpha)
    assert m.weights == tuple(alpha * x + (1 - alpha) * y
                              for x, y in zip(p.weights, q.weights))
