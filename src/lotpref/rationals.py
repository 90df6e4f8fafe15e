"""Canonical string form for exact rationals.

All numbers in this package are ``fractions.Fraction`` values, which
keeps every quantity in lowest terms with a positive denominator.  The
wire format used in JSON files and command line arguments is the string
``"a/b"`` for non-integers and plain ``"a"`` for integers, mirroring
that canonical form.  Floats are rejected everywhere: a decimal string
would silently smuggle binary rounding into paths that must stay exact.
"""

from fractions import Fraction

__all__ = ["parse_rational", "format_rational"]


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction.

    Raises ValueError for anything else, including decimal notation,
    whitespace padding inside the token, or a zero denominator.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    if not s:
        raise ValueError("empty rational string")
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"decimal notation is not exact: {text!r}")
    num, slash, den = s.partition("/")
    try:
        n = int(num)
        d = int(den) if slash else 1
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(n, d)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b", or "a" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def require_exact(values) -> None:
    """ValueError naming the first value that is not an int or a
    Fraction, so no float, string or bool gets into exact arithmetic."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ValueError(f"not an exact rational: {value!r}")
