import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotpref.rationals import _format_pair, _parse_pair, format_rational, parse_rational


def test_parse_integer_forms():
    assert parse_rational("0") == Fraction(0)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)


def test_parse_fraction_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational("6/4") == Fraction(3, 2)


def test_format_is_canonical():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1E3", "", ".", "1/0", "x", "1/2/3"])
def test_parse_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [0.5, 1, None, Fraction(1, 2)])
def test_parse_rejects_non_strings(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_round_trip(num, den):
    value = Fraction(num, den)
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("bad", [
    "1 /3", "1/ 3", "1\t/3", "1_0/3", "1/3_0", "１/3", "1/３", "٣/4",
    "+-1", "--1/3", "1/+", "/3", "1/", "+", "0x10", "1,2",
])
def test_parse_rejects_what_int_alone_would_take(bad):
    # Each part must be ASCII [+-]?[0-9]+ after the outer strip; int()
    # alone took inner whitespace, "_" separators and non-ASCII digits,
    # so "1 /3" read as 1/3 and "1_0/3" as 10/3.  The error names the
    # token.
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        parse_rational(bad)


@pytest.mark.parametrize("text,value", [
    ("+1/3", Fraction(1, 3)), ("1/-3", Fraction(-1, 3)), ("-1/-3", Fraction(1, 3)),
    ("6/4", Fraction(3, 2)), (" 2/8\n", Fraction(1, 4)), ("+0", Fraction(0)),
    ("007/010", Fraction(7, 10)),
])
def test_parse_keeps_signed_and_unreduced_tokens(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text,pair", [
    ("6/4", (6, 4)), ("1/-3", (-1, 3)), ("-2/-8", (2, 8)), ("+5", (5, 1)),
    ("0/-7", (0, 7)),
])
def test_pair_parse_moves_the_sign_onto_the_numerator_and_does_not_reduce(text, pair):
    assert _parse_pair(text) == pair
    assert parse_rational(text) == Fraction(*pair)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_pair_format_is_the_canonical_form(num, den):
    assert _format_pair(num, den) == format_rational(Fraction(num, den))
