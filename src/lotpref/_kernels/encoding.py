"""Integer encodings of grids and oracles for the scan kernels.

The axiom scans run over a fixed grid, so every lottery is rescaled to
one common integer denominator and every built-in oracle reduces to a
small integer recipe.  Comparisons then happen by cross-multiplication
in plain integers.  The level and pure paths use Python's unbounded
ints.  The compiled path serves only lex, hybrid and majority, which
carry no payoffs, and uses 128-bit intermediates, so ``envelope_ok``
bounds the lattice denominators a scan can form and refuses the
compiled path when their cross products could overflow.
"""

from __future__ import annotations

from math import lcm

from ..lotteries import Lottery
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
    "envelope_ok",
    "separation_depth",
    "INT128_SAFE",
]

# Compiled kernels multiply two lattice denominators; staying a few
# bits below 2^127 leaves room for one subtraction and sums.
INT128_SAFE = 1 << 120


def encode_lotteries(lotteries) -> tuple[list[tuple[int, ...]], int]:
    """Rescale lotteries to one common denominator; returns (nums, den)."""
    den = 1
    for lot in lotteries:
        for w in lot.weights:
            den = lcm(den, w.denominator)
    nums = [
        tuple(int(w * den) for w in lot.weights)
        for lot in lotteries
    ]
    return nums, den


def encode_oracle(oracle: PreferenceOracle):
    """(kind, params) integer recipe, or None when not encodable.

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
    if type(oracle) in (ExpectedUtilityOracle, RepresentedOracle):
        return ("eu", oracle.gauge)
    if type(oracle) is HybridExampleOracle:
        return ("hybrid", ())
    if type(oracle) is LexicographicOracle:
        return ("lex", tuple(oracle.priority))
    if type(oracle) is MajorityOracle:
        return ("majority", ())
    return None


def envelope_ok(den: int, *, max_alpha_den: int = 1, max_t_den: int = 1,
                depth: int = 0) -> bool:
    """True when every cross product the compiled scan can form fits
    128 bits.  No lottery in a scan carries a denominator above
    den · max_alpha_den · max_t_den · 2^depth: each scan passes only
    the limits its own weights imply, and the others stay 1, 1 and 0."""
    worst = den * max_alpha_den * max_t_den << depth
    return worst * worst < INT128_SAFE


def separation_depth(spec, den: int, max_b: int) -> int:
    """The probe depth from which dyadic probes of candidate weights
    with denominator <= max_b are exact for an encoded ``spec``.

    Along a grid segment a comparison changes sign only at thresholds:
    (L_q - L_r)/(L_p - L_r) for ("eu", u), of denominator <= den·S with
    S = max(u) - min(u); coordinate breakpoints for lex and majority,
    <= den; hybrid's plateau crossing, <= 2·den (S = 1 outside eu).  Any
    other threshold lies over 2^-depth from a candidate, so its probes
    share the open interval of its one-sided limit, at any deeper depth.
    """
    kind, params = spec
    span = max(params) - min(params) if kind == "eu" else 1
    return (2 * max_b * den * span).bit_length()
