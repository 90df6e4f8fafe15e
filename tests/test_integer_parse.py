"""Parity of the integer lottery path with the Fraction one.

A scenario lottery is read as integer pairs over their lcm
(``Lottery.from_integers``), written from ``integer_form``, and compared
on ``(space, integer_form)``.  Each test here pins that path to what
the Fraction weights give: the same lottery and form as
``Lottery(space, tuple(parse_rational(x) ...))``, the same error class
and message, the same JSON, and equality and hash that agree with the
weight tuples.  Weights are drawn over 1-8 outcomes and spelled
unreduced and signed ("2/8", "+1/4", "-1/-4").
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotpref.errors import LengthMismatch, NegativeWeight, SumNotOne
from lotpref.lotteries import Lottery, OutcomeSpace
from lotpref.rationals import parse_rational
from lotpref.scenario import (
    fractions_to_json,
    lottery_to_json,
    parse_lottery_field,
    parse_point,
)


@st.composite
def spelled(draw, value: Fraction) -> str:
    """value spelled with its terms scaled by 1-6, both signs flipped or
    not, an optional "+" and, for an integer, an optional bare form."""
    k = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
    num, den = k * value.numerator, k * value.denominator
    plus = "+" if num >= 0 and draw(st.booleans()) else ""
    if den == 1 and draw(st.booleans()):
        return f"{plus}{num}"
    return f"{plus}{num}/{den}"


@st.composite
def spellings(draw, size=None):
    """(space, tokens): a lottery over size (else 1-8) outcomes, spelled."""
    size = size or draw(st.integers(1, 8))
    den = draw(st.integers(1, 24))
    cuts = sorted(draw(st.lists(st.integers(0, den),
                                min_size=size - 1, max_size=size - 1)))
    bounds = [0, *cuts, den]
    tokens = [draw(spelled(Fraction(bounds[i + 1] - bounds[i], den)))
              for i in range(size)]
    return OutcomeSpace.of_size(size), tokens


def fraction_lottery(space, tokens) -> Lottery:
    return Lottery(space, tuple(parse_rational(token) for token in tokens))


def outcome(build, space, tokens):
    """(space, integer_form, weights) of the lottery build makes, or the
    class and message of what it raises."""
    try:
        lot = build(space, tokens)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc), str(exc)
    return lot.space, lot.integer_form, lot.weights


def comma_field(space, tokens) -> Lottery:
    return parse_lottery_field(space, ",".join(tokens))


@given(spellings())
def test_integer_parse_gives_the_fraction_lottery(case):
    space, tokens = case
    want = fraction_lottery(space, tokens)
    for got in (parse_point(space, tokens), comma_field(space, tokens)):
        assert got.integer_form == want.integer_form
        assert got == want
        assert got.weights == want.weights


# Any weight in [-1, 2], spelled, or a token the parser refuses.
TOKENS = st.one_of(
    st.builds(Fraction, st.integers(-12, 24), st.integers(1, 12)).flatmap(spelled),
    st.sampled_from(["1 /3", "1_0/3", "１/3", "0.5", "1/0", "", "x", "1/3/3"]))


@given(st.integers(1, 8), st.lists(TOKENS, max_size=9))
def test_integer_parse_fails_as_the_fraction_parse(size, tokens):
    space = OutcomeSpace.of_size(size)
    assert (outcome(parse_point, space, tokens)
            == outcome(fraction_lottery, space, tokens))
    # A comma-separated string spells at least one token: "" is [""].
    assert (outcome(comma_field, space, tokens)
            == outcome(fraction_lottery, space, ",".join(tokens).split(",")))


@pytest.mark.parametrize("tokens,error", [
    (["1/2", "2/4"], LengthMismatch),
    (["-1/3", "4/6", "+2/3"], NegativeWeight),
    (["1/3", "1/-3", "1"], NegativeWeight),
    (["1/3", "2/6", "1/2"], SumNotOne),
    (["0/5", "0", "-0/-1"], SumNotOne),
    (["1 /3", "1/3", "1/3"], ValueError),
    (["1_0/3", "1/3"], ValueError),
    (["１/3", "1/3", "1/3"], ValueError),
    (["-1/3", "1/3"], LengthMismatch),
], ids=["length", "negative", "negative-den", "sum", "zero-sum", "space",
        "underscore", "fullwidth", "length-before-sign"])
def test_each_error_has_the_fraction_class_and_message(tokens, error):
    space = OutcomeSpace.of_size(3)
    want = outcome(fraction_lottery, space, tokens)
    assert want[0] is error
    assert outcome(parse_point, space, tokens) == want
    assert outcome(comma_field, space, tokens) == want


@given(spellings())
def test_json_writer_reads_the_integer_form(case):
    space, tokens = case
    lot = parse_point(space, tokens)
    assert "weights" not in vars(lot)
    doc = lottery_to_json(lot)
    assert "weights" not in vars(lot)
    assert doc == fractions_to_json(lot.weights)
    assert lottery_to_json(fraction_lottery(space, tokens)) == doc


@st.composite
def pairs(draw):
    """Two lotteries over one space: the second a re-spelling of the
    first, or a lottery drawn on its own, or the same weights over a
    space with other labels."""
    space, tokens = draw(spellings())
    kind = draw(st.sampled_from(["respelled", "drawn", "relabelled"]))
    other_space, other = space, tokens
    if kind == "respelled":
        other = [draw(spelled(parse_rational(t))) for t in tokens]
    elif kind == "drawn":
        _, other = draw(spellings(space.size))
    else:
        other_space = OutcomeSpace(tuple(f"y{i}" for i in range(space.size)))
    makers = (parse_point, fraction_lottery)
    return (draw(st.sampled_from(makers))(space, tokens),
            draw(st.sampled_from(makers))(other_space, other))


@given(pairs())
def test_equality_agrees_with_the_weight_tuples(pair):
    a, b = pair
    equal, unequal = a == b, a != b
    assert equal == (b == a) == (not unequal)
    assert equal == ((a.space, a.weights) == (b.space, b.weights))
    for x in (a, b):
        assert hash(x) == hash((x.space, x.weights))
    assert len({a, b}) == (1 if equal else 2)
    assert a != a.weights


def test_equality_builds_no_weights():
    space = OutcomeSpace.of_size(3)
    a = parse_point(space, ["1/4", "2/4", "1/4"])
    b = Lottery.from_integers(space, (2, 4, 2), 8)
    assert a == b and not a != b
    assert "weights" not in vars(a) and "weights" not in vars(b)
    assert hash(a) == hash(b) == hash((space, (Fraction(1, 4), Fraction(1, 2),
                                               Fraction(1, 4))))
