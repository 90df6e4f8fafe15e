"""Canonical string form for exact rationals.

The wire format used in JSON files and command line arguments is the
string ``"a/b"`` for non-integers and plain ``"a"`` for integers.
``_parse_pair`` reads such a token as an integer pair (num, den) with
den > 0, not reduced; callers that hold several weights put the pairs
over their lcm and stay in ints, and ``parse_rational`` is the pair as
a ``fractions.Fraction``, which is in lowest terms with a positive
denominator.  ``_format_pair`` writes num/den in lowest terms, so
``"a/b"`` is the canonical form on output.  Floats are rejected
everywhere: a decimal string would silently smuggle binary rounding
into paths that must stay exact.
"""

from fractions import Fraction
from math import gcd

__all__ = ["parse_rational", "format_rational"]


def _is_int(part: str) -> bool:
    """Whether part is ASCII ``[+-]?[0-9]+``: int() alone would also
    take inner whitespace ("1 "), digit separators ("1_0") and non-ASCII
    digits."""
    digits = part[1:] if part[:1] in "+-" else part
    return digits.isascii() and digits.isdigit()


def _parse_pair(text: str) -> tuple[int, int]:
    """(num, den) for "a/b" or "a", each part an ASCII ``[+-]?[0-9]+``
    after the token's outer whitespace is stripped; the sign is moved
    onto num so den > 0, and the pair is not reduced.

    Raises ValueError naming the token for anything else, including
    decimal notation, whitespace or "_" inside the token, non-ASCII
    digits, or a zero denominator.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip()
    if not s:
        raise ValueError("empty rational string")
    num, slash, den = s.partition("/")
    if not (_is_int(num) and (not slash or _is_int(den))):
        if "." in s or "e" in s or "E" in s:
            raise ValueError(f"decimal notation is not exact: {text!r}")
        raise ValueError(f"not a rational: {text!r}")
    if not slash:
        return int(num), 1
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return (int(num), d) if d > 0 else (-int(num), -d)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction; ValueError as ``_parse_pair``."""
    return Fraction(*_parse_pair(text))


def _format_pair(num: int, den: int) -> str:
    """num/den, den > 0, in lowest terms as "a/b", or "a" when that
    denominator is 1."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b", or "a" when the denominator is 1."""
    return _format_pair(value.numerator, value.denominator)


def require_exact(values) -> None:
    """ValueError naming the first value that is not an int or a
    Fraction, so no float, string or bool gets into exact arithmetic."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ValueError(f"not an exact rational: {value!r}")
