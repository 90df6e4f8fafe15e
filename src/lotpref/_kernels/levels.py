"""Level kernels: the axiom scans for expected-utility encodings.

For a spec ``("eu", u)`` every comparison a scan makes is linear in the
lotteries, so it reduces to integers computed once per grid: the level
L_i = u·nums[i].  A lottery with numerators x over denominator D sits
at level (u·x)/D, so grid point i sits at L_i/den and the mixture
mix(p, r, a/b) of two grid points at (a·L_p + (b - a)·L_r)/(b·den).
Every comparison is then the sign of one integer expression, and the
algebra removes loops: each docstring below states the identity its
scan rests on.  Eight scans can never hit, and two hit only on weights
outside [0, 1], which no checker passes.

The probe scans (mixture, archimedean, openness) hold from
``encoding.separation_depth`` on; below it a None would prove nothing,
so they raise ValueError naming both depths.  S is max(u) - min(u):
no two levels differ by more than den·S.

The levels come with threshold bitsets, ``pure._Thresholds``: the grid
points below, at or above any level, each one bisection away.
``pure.level_thresholds`` builds them once per grid and payoffs, so
the level scans on one grid, and the sign table's eu rows, share one
build.

Each ``scan_<name>`` has the signature of its twin in ``pure`` and
returns the same first hit in the same pinned order, None included,
for any payoffs, any grid over ``den >= 1`` and any weights with
positive denominators (the probe scans: from the separation depth on,
and mixture candidates in [0, 1]).  tests/test_scan_reference.py holds
them to the Fraction-level reference and to ``pure``.
"""

from __future__ import annotations

from math import gcd

from .encoding import separation_depth
from .pure import _bits, level_thresholds

__all__ = [
    "scan_transitivity",
    "scan_independence",
    "scan_betweenness",
    "scan_convexity",
    "scan_translation",
    "scan_line_order",
    "scan_mixture",
    "scan_archimedean",
    "scan_solvability_scan",
    "scan_solvability_solve",
    "scan_openness",
]


def _reduced(a, b):
    """a/b in lowest terms, as a pair; b > 0."""
    common = gcd(a, b)
    return a // common, b // common


def scan_transitivity(spec, nums, den):
    """First (i, j, k) with i >= j >= k but i < k.

    Never: L_i >= L_j >= L_k implies L_i >= L_k.
    """
    return None


def scan_independence(spec, nums, den, alphas):
    """First (i, j, k, alpha index) where mixing with k flips i-vs-j.

    mix(i, k, a/b) against mix(j, k, a/b) is the sign of a·b·(L_i - L_j),
    so k cancels and the sign of i against j survives unless a·b <= 0.
    The first hit is (0, j, 0, ai): j the first point off L_0's level,
    ai the first weight with a·b <= 0.
    """
    ai = next((ai for ai, (a, b) in enumerate(alphas) if a * b <= 0), None)
    if ai is None:
        return None
    levels = level_thresholds(spec, nums)
    for j, level in enumerate(levels):
        if level != levels[0]:
            return (0, j, 0, ai)
    return None


def scan_betweenness(spec, nums, den, alphas):
    """First (i, j, alpha index) where i >= j but the mixture escapes
    the closed preference interval [j, i].

    i against m = mix(i, j, a/b) is the sign of (b - a)·(L_i - L_j), and
    m against j that of a·(L_i - L_j): only a weight outside [0, 1]
    escapes, and then for every pair with L_i > L_j.  The first hit is
    the first i above the lowest level, the first j below L_i, and the
    first weight with a < 0 or a > b.
    """
    ai = next((ai for ai, (a, b) in enumerate(alphas) if a < 0 or a > b), None)
    if ai is None:
        return None
    levels = level_thresholds(spec, nums)
    for i, level in enumerate(levels):
        lower = levels.below(level)
        if lower:
            return (i, (lower & -lower).bit_length() - 1, ai)
    return None


def scan_convexity(spec, nums, den, alphas):
    """First (i, j, k, alpha index) where j ~ i and k ~ i but their
    mixture is not indifferent to i.

    Never: j ~ i ~ k puts j and k at L_i, and mix(j, k, a/b) at
    (a·L_i + (b - a)·L_i)/b = L_i.
    """
    return None


def scan_translation(spec, nums, den):
    """First (i, j, k) where k ~ i but the translate k + (j - i), when
    it stays a lottery, is not indifferent to j.

    Never: the translate sits at L_k + L_j - L_i, which is L_j when
    L_k = L_i.
    """
    return None


def scan_line_order(spec, nums, den, max_t_den):
    """First (i, j, tnum, tden, relation) violating the expected order
    along the line point(t) = q + t(p - q), given p > q.

    Never: with s = L_p - L_q > 0, the point at t = a/b sits at
    (b·L_q + a·s)/b, so q against it is -a·s, p against it (b - a)·s,
    it against q a·s and it against p (a - b)·s, each positive where
    the relation applies (t < 0, 0 < t < 1, t > 1).
    """
    return None


def scan_mixture(spec, nums, den, alpha_stars, depth):
    """First (i, j, k, alpha index, side) where the weak upper set
    {alpha : mix(p, r, alpha) >= q} excludes a boundary candidate that
    its one-sided dyadic probes all belong to.

    Never for candidates in [0, 1], B their largest denominator: a
    candidate a/b below q has F = a·L_p + (b - a)·L_r - b·L_q <= -1, and
    a side with a probe in [0, 1] has one at 2^-depth < 1/b, which sits
    at 2^depth·F ± b·(L_p - L_r) < 0 against q: b·|L_p - L_r| <= B·den·S.
    """
    if any(not 0 <= a <= b for a, b in alpha_stars):
        raise ValueError(f"level mixture candidates must lie in [0, 1]: {alpha_stars}")
    _require_separation(spec, den, max((b for _, b in alpha_stars), default=1),
                        depth)
    return None


def scan_archimedean(spec, nums, den, depth):
    """First (i, j, k, side) with p > q > r where one side of the
    interior-weight requirement fails at every dyadic probe.

    Never: the beta probe puts q above mix(p, r, 2^-depth) iff
    2^depth·(L_q - L_r) > L_p - L_r, the alpha probe puts mix(p, r,
    1 - 2^-depth) above q iff 2^depth·(L_p - L_q) > L_p - L_r, and both
    hold, as the left factors are at least 1 and L_p - L_r <= den·S.
    """
    _require_separation(spec, den, 1, depth)
    return None


def scan_solvability_scan(spec, nums, den, alphas):
    """First (i, j, k) with p >= q >= r that no candidate weight solves.

    mix(p, r, a/b) sits on q iff a·(L_p - L_r) = b·(L_q - L_r).  When
    L_p = L_r every candidate solves; otherwise only the reduced
    (L_q - L_r)/(L_p - L_r) does, so each triple is one set lookup.
    """
    levels = level_thresholds(spec, nums)
    solving = {_reduced(a, b) for a, b in alphas}
    for i, lp in enumerate(levels):
        for j in _bits(levels.at_most(lp)):
            lq = levels[j]
            for k in _bits(levels.at_most(lq)):
                span, rise = lp - levels[k], lq - levels[k]
                solved = bool(solving) if span == 0 else _reduced(rise, span) in solving
                if not solved:
                    return (i, j, k)
    return None


def scan_solvability_solve(utility, nums, den):
    """Contract check for linear oracles: the closed-form weight must
    land exactly on q.  Returns (i, j, k, a, b) on the first failure.

    Never fails: for L_p >= L_q >= L_r the closed form is
    a/b = (L_q - L_r)/(L_p - L_r), or 1 when L_p = L_r, and it puts
    mix(p, r, a/b) at (a·L_p + (b - a)·L_r)/b = L_q.
    """
    return None


def scan_openness(spec, nums, den, depth):
    """First (i, j, k): q strictly compares to p, w sits strictly on the
    other side, and every dyadic step from q toward w stays strictly on
    w's side, so q's side fails to be open at q along that segment.

    Never: the step 2^-depth sits at 2^depth·(L_q - L_p) + (L_w - L_q)
    against p, on q's side, as |L_q - L_p| >= 1 and |L_w - L_q| <= den·S.
    """
    _require_separation(spec, den, 1, depth)
    return None


def _require_separation(spec, den, max_b, depth):
    """Refuse a depth below the separation depth: from there on
    2^depth > 2·max_b·den·S, the bound the proofs above use."""
    floor = separation_depth(spec, den, max_b)
    if depth < floor:
        raise ValueError(f"level probe depth {depth} is below the "
                         f"separation depth {floor}")
