"""Integer encodings of grids and oracles for the scan kernels.

The axiom scans run over a fixed grid, so every lottery is rescaled to
one common integer denominator and every built-in oracle reduces to a
small integer recipe.  Comparisons then happen by cross-multiplication
in Python's unbounded ints, so no payoff or depth can overflow.
"""

from __future__ import annotations

from math import lcm

from ..oracles import (
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    PreferenceOracle,
    RepresentedOracle,
)

__all__ = [
    "encode_lotteries",
    "encode_oracle",
    "separation_depth",
]

_BUILT_IN = (ExpectedUtilityOracle, RepresentedOracle, LexicographicOracle,
             HybridExampleOracle, MajorityOracle)


def encode_lotteries(lotteries) -> tuple[list[tuple[int, ...]], int]:
    """Rescale lotteries to one common denominator; returns (nums, den).

    Read off each lottery's ``integer_form``, whose denominator is the
    lcm of its weights' denominators, so no Fraction weight is built."""
    forms = [lot.integer_form for lot in lotteries]
    den = lcm(*(d for _, d in forms))
    nums = [tuple([a * (den // d) for a in lot_nums]) for lot_nums, d in forms]
    return nums, den


def encode_oracle(oracle: PreferenceOracle):
    """(kind, params) integer recipe, or None when not encodable: the
    built-in oracle's ``encoding``, from which ``oracles.integer_rule``
    builds the rule it compares with.

    eu: params are the oracle's ``gauge``, its integer payoffs (common
    denominator cleared; scale does not change comparisons).  A
    represented oracle is the same thing through its gauge utility.
    lex carries the priority order; hybrid and majority need no
    parameters.

    Exact type checks on purpose: a subclass may override compare or
    solve, and encoding it with the parent's recipe would let the scans
    answer for the wrong ranking.  Unknown types run through the
    callback path instead.
    """
    if type(oracle) in _BUILT_IN:
        return oracle.encoding
    return None


def separation_depth(spec, den: int, max_b: int) -> int:
    """The probe depth from which dyadic probes of candidate weights
    with denominator <= max_b are exact for an encoded ``spec``.

    Along a grid segment a comparison changes sign only at thresholds:
    (L_q - L_r)/(L_p - L_r) for ("eu", u), of denominator <= den·S with
    S = max(u) - min(u); coordinate breakpoints for lex and majority,
    <= den; hybrid's plateau crossing, <= 2·den (S = 1 outside eu).  Any
    other threshold lies over 2^-depth from a candidate, so its probes
    share the open interval of its one-sided limit, at any deeper depth.
    A candidate that is no threshold thus has its nearest in-range probe
    on its own side of every threshold, which is why the level mixture
    scan for lex, hybrid and majority tests only the candidates a
    coordinate breakpoint sits on.
    """
    kind, params = spec
    span = max(params) - min(params) if kind == "eu" else 1
    return (2 * max_b * den * span).bit_length()
