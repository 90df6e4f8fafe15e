"""Level kernels: the axiom scans of every encoded oracle, answered by
proof, by threshold rows, by a search a proof narrows, or by the pure
walk where none of these holds for the kind.

Every encoded comparison but hybrid's is F(p - q), with F(λx) = F(x)
for λ > 0 and F(-x) = -F(x): eu's sign of u·x, lex's first nonzero
coordinate in priority order, majority's wins minus losses.  In
independence, betweenness, translation and line-order the two sides of
each comparison differ by a multiple of one grid difference, so those
identities hold by this invariance alone; transitivity and convexity
hold for the orders their docstrings name.  Hybrid is lex in index
order, except that two lotteries with x_0 = 1/2 (the plateau) are
indifferent; in betweenness and line-order a strict pair, a mixture or
a line point puts both sides of a comparison on the plateau only where
the identity holds anyway.  Every encoded kind comes here, and a
callback spec never does.  Where an identity fails for a kind, the
scan's docstring says why, and either reads the hits as threshold rows
or walks the ``pure`` scan.  A threshold row fixes every point of a
candidate but one, k, and whether k hits turns on one threshold per
coordinate of k, so the k that hit form a bitset of one
``pure._Thresholds`` bisection per coordinate, joined by the kind's
rule; the lowest bit is the first hit.  Hybrid translation thresholds
k's coordinates directly.  Every other row compares a fixed lottery x
with mix(y, k, b/a) for every grid point k, and is the one
``_thresholds(x, y, a, b, den)`` call its scan names.

For ("eu", u) every comparison is also linear: grid point i sits at
level L_i/den, L_i = u·nums[i], and mix(p, r, a/b) at
(a·L_p + (b - a)·L_r)/(b·den), so each comparison is the sign of one
integer expression.  The probe scans (mixture, archimedean, openness)
hold from ``encoding.separation_depth`` on; below it a None would prove
nothing, so they raise ValueError naming both depths.  S is
max(u) - min(u): no two levels differ by more than den·S.

For lex, hybrid and majority the probe scans still search, on
coordinate thresholds.  Along a segment each coordinate of the mixture
minus q changes sign at one weight, so the mixture comparison is
constant between those weights, and from the separation depth on a
candidate off them cannot hit: each triple tests the at most n
candidates a breakpoint sits on, with the exact body of
``pure.scan_mixture``.  The archimedean and openness probes fix a pair
and a probe and vary one grid point, the mixture's other end, so each
probe is one ``_thresholds`` row, and one probe row settles a whole row
of triples.

Independence and betweenness answer only the weights their proofs
cover, those the checkers pass: independence positive ones, betweenness
those in [0, 1]; any other raises ValueError naming the scan and the
weight.  Solvability-scan is the pure walk for every kind, and the
solve contract for every kind but eu.  Each
``scan_<name>`` has the signature of its twin in ``pure`` and returns
the same first hit in the same pinned order, None included, for any
grid over ``den >= 1`` and any weights with positive denominators that
it accepts (the probe scans: from the separation depth on, and mixture
candidates in [0, 1]).  tests/test_scan_reference.py holds them to the
Fraction-level reference and to ``pure``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import pure
from .encoding import separation_depth
from .pure import (
    _bits, _coordinate_thresholds, _mix, _mixture_side, _SignTable, make_compare,
    signs_from_coordinates,
)

def scan_transitivity(spec, nums, den):
    """First (i, j, k) with i >= j >= k but i < k.

    Never for eu, lex and hybrid, each a weak order: eu ranks by level,
    lex by coordinates in priority order, and hybrid is lex with the
    plateau joined into one class, which sits between x_0 < 1/2 and
    x_0 > 1/2 on lex's first coordinate.  Majority is no weak order:
    its pairwise majorities can cycle, so it walks the pure scan.
    """
    if spec[0] == "majority":
        return pure.scan_transitivity(spec, nums, den)
    return None


def scan_independence(spec, nums, den, alphas):
    """First (i, j, k, alpha index) where mixing with k flips i-vs-j.

    Never for eu, lex and majority, on positive weights: mix(i, k, a/b)
    against mix(j, k, a/b) is F(a·(x_i - x_j)), so k cancels, and the
    sign of i against j survives.  Hybrid walks the pure scan: where i
    and j share coordinate 0, an interior weight can put both mixtures
    on the plateau, tying a strict pair.
    """
    bad = next(((a, b) for a, b in alphas if a * b <= 0), None)
    if bad is not None:
        raise ValueError(f"level independence weight {bad[0]}/{bad[1]} "
                         f"is not positive")
    if spec[0] == "hybrid":
        return pure.scan_independence(spec, nums, den, alphas)
    return None


def scan_betweenness(spec, nums, den, alphas):
    """First (i, j, alpha index) where i >= j but the mixture escapes
    the closed preference interval [j, i].

    Never, on weights in [0, 1]: i against m = mix(i, j, a/b) is
    F((b - a)·(x_i - x_j)), and m against j is F(a·(x_i - x_j)), so an
    indifferent pair never escapes, and a strict one escapes only on a
    weight outside [0, 1].  (For hybrid, i and m both on the plateau put
    j there too, unless m = i; likewise for m and j.)
    """
    bad = next(((a, b) for a, b in alphas if not 0 <= a <= b), None)
    if bad is not None:
        raise ValueError(f"level betweenness weight {bad[0]}/{bad[1]} "
                         f"is outside [0, 1]")
    return None


def scan_convexity(spec, nums, den, alphas):
    """First (i, j, k, alpha index) where j ~ i and k ~ i but their
    mixture is not indifferent to i.

    Never for eu, lex and hybrid, at any weight: j ~ i ~ k puts j and k
    at L_i, and mix(j, k, a/b) at (a·L_i + (b - a)·L_i)/b = L_i; lex
    ties only equal points, so j = k = i; hybrid ties equal points and
    the plateau, an affine set.  Majority's indifference classes need
    not be convex, so it reads tie rows.  Fix i, j ~ i and the weight
    a/b: the k whose mixture ties with i are the ties of the row
    ``_thresholds(x_i, x_j, b, a, den)``.  Flipping every sign keeps
    majority's ties, so this holds for b < a too; a = b mixes onto j,
    which ties, and j = i puts every threshold at x_i, whose ties are
    i's class.  The hit is the lowest k of the class outside the ties of
    some weight, at the lowest such weight.
    """
    if spec[0] != "majority":
        return None
    signs = signs_from_coordinates(spec, nums)
    for i, x in enumerate(nums):
        members = signs(x, x, None)[1]
        for j in _bits(members):
            if j == i:
                continue
            y = nums[j]
            union, fails = 0, []
            for a, b in alphas:
                fail = members & ~signs(*_thresholds(x, y, b, a, den))[1] if a != b else 0
                fails.append(fail)
                union |= fail
            if union:
                k = (union & -union).bit_length() - 1
                return (i, j, k, next(ai for ai, fail in enumerate(fails)
                                      if fail >> k & 1))
    return None


def scan_translation(spec, nums, den):
    """First (i, j, k) where k ~ i but the translate k + (j - i), when
    it stays a lottery, is not indifferent to j.

    Never for eu, lex and majority: the translate minus j is k - i, so
    it compares with j as k does with i, F(x_k - x_i) = 0.  Hybrid reads
    threshold rows.  An i off the plateau ties only itself, whose
    translate is j.  The translate keeps j's coordinate 0, so it ties a
    j on the plateau; against a j off it, lex separates the two by the
    first nonzero coordinate of k - i.  So the hits are the plateau i
    and the j off it, with k any other plateau point whose translate
    stays >= 0: k_c >= i_c - j_c, one threshold per coordinate.  The
    first is the lowest such k of the first such (i, j); an odd den, or
    an empty grid, has no plateau and no hit.
    """
    if spec[0] != "hybrid" or den % 2 or not nums:
        return None
    coords = _coordinate_thresholds(tuple(nums))
    plateau = coords[0].at(den // 2)
    off = ((1 << len(nums)) - 1) ^ plateau
    for i in _bits(plateau):
        x = nums[i]
        for j in _bits(off):
            kept = plateau & ~(1 << i)
            for t, xc, yc in zip(coords, x, nums[j]):
                if xc > yc:
                    kept &= ~t.below(xc - yc)
            if kept:
                return (i, j, (kept & -kept).bit_length() - 1)
    return None


def scan_line_order(spec, nums, den, max_t_den):
    """First (i, j, tnum, tden, relation) violating the expected order
    along the line point(t) = q + t(p - q), given p > q.

    Never: with x = p - q, the point at t = a/b sits at q + (a/b)·x, so
    q against it is F(-a·x), p against it F((b - a)·x), it against q
    F(a·x) and it against p F((a - b)·x), each F(x) = 1 where the
    relation applies (t < 0, 0 < t < 1, t > 1).  For hybrid, q and the
    point both on the plateau would put p there (t != 0), and p and the
    point would put q there (t != 1), so each comparison is lex's.
    """
    return None


def scan_mixture(spec, nums, den, alpha_stars, depth):
    """First (i, j, k, alpha index, side) where the weak upper set
    {alpha : mix(p, r, alpha) >= q} excludes a boundary candidate that
    its one-sided dyadic probes all belong to.

    Never for eu, on candidates in [0, 1], B their largest denominator:
    a candidate a/b below q has F = a·L_p + (b - a)·L_r - b·L_q <= -1,
    and a side with a probe in [0, 1] has one at 2^-depth < 1/b, which
    sits at 2^depth·F ± b·(L_p - L_r) < 0 against q: b·|L_p - L_r| <=
    B·den·S.

    lex, hybrid and majority hit only on coordinate breakpoints.
    Coordinate c of mix(p, r, alpha) - q is affine in alpha and changes
    sign only at (q_c - r_c)/(p_c - r_c), of denominator <= den; lex
    takes the first nonzero coordinate, majority counts signs, and
    hybrid's plateau holds q only where coordinate 0 meets q_0.  So the
    comparison is constant between breakpoints, and a candidate that is
    none lies over 1/(B·den) > 2^-depth from each: a side with a probe
    in [0, 1] has its nearest one in the candidate's own interval,
    below q whenever the candidate is.  Each triple tests only the
    candidates a breakpoint sits on, in candidate order, with the body
    of ``pure.scan_mixture``.  The row j = i is skipped: with q = p,
    coordinate c of mix(p, r, alpha) - p is (1 - alpha)·(r_c - p_c), so
    every breakpoint sits at alpha = 1, where the mixture is p itself
    and ties q, and the row never hits.

    Never for majority on 3 outcomes: at a breakpoint one coordinate of
    m0 - q is 0, where m0 = mix(p, r, a/b).  Both are lotteries, so the
    coordinates of m0 - q sum to 0, and the other two are (x, -x):
    majority ties, and the gate m0 < q never holds.
    """
    if any(not 0 <= a <= b for a, b in alpha_stars):
        raise ValueError(f"level mixture candidates must lie in [0, 1]: {alpha_stars}")
    _require_separation(spec, den, max((b for _, b in alpha_stars), default=1),
                        depth)
    if not nums or spec[0] == "eu" or (spec[0] == "majority" and len(nums[0]) == 3):
        return None
    cmp = make_compare(spec)
    # by_den[b][a]: the indices of the candidates equal to a/b in lowest terms.
    by_den = {}
    for si, (a, b) in enumerate(alpha_stars):
        common = gcd(a, b)
        by_den.setdefault(b // common, {}).setdefault(a // common, []).append(si)

    for i, p in enumerate(nums):
        # lines[k]: (c, r_c, s, s·(p_c - r_c)) for each coordinate where p
        # and r differ, s the sign that makes the span positive.
        lines = [[(c, rc, 1, pc - rc) if pc > rc else (c, rc, -1, rc - pc)
                  for c, (pc, rc) in enumerate(zip(p, r)) if pc != rc]
                 for r in nums]
        for j, q in enumerate(nums):
            if j == i:
                continue
            for k, (r, line) in enumerate(zip(nums, lines)):
                found = set()
                for c, rc, s, span in line:
                    # The breakpoint rise/span, when it lies in [0, 1].
                    rise = s * (q[c] - rc)
                    if 0 <= rise <= span:
                        common = gcd(rise, span)
                        found.update(by_den.get(span // common, {})
                                     .get(rise // common, ()))
                for si in sorted(found):
                    a, b = alpha_stars[si]
                    if cmp(_mix(p, r, a, b), b * den, q, den) >= 0:
                        continue
                    for side in (1, -1):
                        if _mixture_side(cmp, p, r, q, den, a, b, side, depth):
                            return (i, j, k, si, side)
    return None


def scan_archimedean(spec, nums, den, depth):
    """First (i, j, k, side) with p > q > r where one side of the
    interior-weight requirement fails at every dyadic probe.

    Never for eu: the beta probe puts q above mix(p, r, 2^-depth) iff
    2^depth·(L_q - L_r) > L_p - L_r, the alpha probe puts mix(p, r,
    1 - 2^-depth) above q iff 2^depth·(L_p - L_q) > L_p - L_r, and both
    hold, as the left factors are at least 1 and L_p - L_r <= den·S.

    lex, hybrid and majority read probe rows: for a pair (i, j) and a
    probe P, the points r that the probe settles, as a bitset.  Beta's
    row is ``_thresholds(q, p, P, 1, den)``, q against mix(p, r, 1/P),
    and alpha's ``_thresholds(q, p, P, P - 1, den)``, q against
    mix(p, r, 1 - 1/P).  Beta fails at the k in gt(j) that no probe
    settles, alpha likewise, and the first hit is the lowest failing k,
    on the beta side when beta fails there, as the pure scan tests beta
    first for each k.
    """
    _require_separation(spec, den, 1, depth)
    if spec[0] == "eu":
        return None
    signs = _SignTable(spec, nums, den)
    beta_rows = _ProbeRows(spec, nums, den, depth, lambda P: (P, 1))
    alpha_rows = _ProbeRows(spec, nums, den, depth, lambda P: (P, P - 1))
    for i, p in enumerate(nums):
        for j in _bits(signs.row(i)[0]):
            q = nums[j]
            below_q = signs.row(j)[0]
            beta = beta_rows.narrow(q, p, below_q, 0, False)
            alpha = alpha_rows.narrow(q, p, below_q, 2, False)
            fail = beta | alpha
            if fail:
                k = (fail & -fail).bit_length() - 1
                return (i, j, k, "beta" if beta >> k & 1 else "alpha")
    return None


# Every kind walks the pure scan.  Lex, hybrid and majority have no
# levels, so no one ratio decides a triple; every eu-encoded oracle has
# solve, so check_continuity runs the solve contract for it instead.
scan_solvability_scan = pure.scan_solvability_scan


def scan_solvability_solve(spec, nums, den, weight):
    """First (i, j, k, a, b) with p >= q >= r where a/b = weight(i, j, k),
    the oracle's own solution, does not mix p and r onto q.

    Never for eu, whose oracles solve in closed form: for
    L_p >= L_q >= L_r the weight is a/b = (L_q - L_r)/(L_p - L_r), or 1
    when L_p = L_r, and it puts mix(p, r, a/b) at
    (a·L_p + (b - a)·L_r)/b = L_q.  No other built-in oracle solves, so
    any other kind walks the pure scan.
    """
    if spec[0] == "eu":
        return None
    return pure.scan_solvability_solve(spec, nums, den, weight)


def scan_openness(spec, nums, den, depth):
    """First (i, j, k): q strictly compares to p, w sits strictly on the
    other side, and every dyadic step from q toward w stays strictly on
    w's side, so q's side fails to be open at q along that segment.

    Never for eu: the step 2^-depth sits at 2^depth·(L_q - L_p) +
    (L_w - L_q) against p, on q's side, as |L_q - L_p| >= 1 and
    |L_w - L_q| <= den·S.

    lex, hybrid and majority read probe rows: p against
    mix(w, q, 1/P) = mix(q, w, 1 - 1/P) over every w is the row
    ``_thresholds(p, q, P, P - 1, den)``, archimedean alpha's with the
    pair swapped.  For a pair (i, j) the hits are the points on w's side
    that every probe keeps there: the intersection of the probe rows, of
    which the lowest is the first.
    """
    _require_separation(spec, den, 1, depth)
    if spec[0] == "eu":
        return None
    signs = _SignTable(spec, nums, den)
    rows = _ProbeRows(spec, nums, den, depth, lambda P: (P, P - 1))
    for i, p in enumerate(nums):
        gt_i, _, lt_i = signs.col(i)
        for j in _bits(gt_i | lt_i):
            # The k with w below p when q is above it, and the converse.
            if gt_i >> j & 1:
                kept = rows.narrow(p, nums[j], lt_i, 0, True)
            else:
                kept = rows.narrow(p, nums[j], gt_i, 2, True)
            if kept:
                return (i, j, (kept & -kept).bit_length() - 1)
    return None


class _ProbeRows:
    """Probe rows for one probe scan over a lex, hybrid or majority grid.

    ``weights(P)`` gives the (a, b) of the probe P = 2^h, so the probe
    row of the pair (x, y) a scan fixes is ``_thresholds(x, y, a, b,
    den)``, the (gt, eq, lt) of x against mix(y, k, b/a) for every grid
    point k.  Each probe is evaluated exactly, deepest first, and the
    walk stops once nothing is left to settle.  Every threshold either
    moves by less than one coordinate step or leaves [0, den] once
    P - 1 > den, so every probe deeper than den + 1 has the masks of
    2^depth and is not evaluated; thresholds clamped to [-1, den + 1]
    that equal the previous probe's give its masks, so that probe is
    skipped too.
    """

    __slots__ = ("_signs", "_den", "_weights")

    def __init__(self, spec, nums, den, depth, weights):
        # Few distinct thresholds recur across pairs: the deepest probe's
        # are out of range wherever x and y differ.
        self._signs = lru_cache(maxsize=1 << 12)(signs_from_coordinates(spec, nums))
        self._den = den
        top = min(depth - 1, (den + 1).bit_length() - 1)
        self._weights = [weights(1 << h) for h in (depth, *range(top, 0, -1))]

    def narrow(self, x, y, mask, part, keep):
        """The points of mask in part (0 gt, 2 lt) of every probe row
        when keep, else of none."""
        signs, den, last = self._signs, self._den, None
        for a, b in self._weights:
            if not mask:
                break
            key = _thresholds(x, y, a, b, den)
            if key != last:
                last = key
                row = signs(*key)[part]
                mask = mask & row if keep else mask & ~row
        return mask


def _clamp(t, den):
    return -1 if t < 0 else den + 1 if t > den else t


def _thresholds(x, y, a, b, den):
    """(lows, highs, plateau) of x against mix(y, k, b/a) for every grid
    point k, for ``signs_from_coordinates``.

    Coordinate c of mix(y, k, b/a) - x is ((a - b)/a)·(k_c - t_c), with
    t_c = (a·x_c - b·y_c)/(a - b), so for a > b >= 0 x's side has the
    sign of t_c - k_c: lows is the ceiling of t and highs its floor,
    clamped to [-1, den + 1], one tuple when a - b = 1 makes t_c the
    integer x_c + b·(x_c - y_c).  Hybrid's plateau holds the mixture
    where x sits on it (2·x_0 = den) and k_0 = t_0, an integer; else
    plateau is None, or a clamped bound that no grid point reaches.
    """
    step = a - b
    if step == 1:
        lows = highs = tuple([_clamp(xc + b * (xc - yc), den) for xc, yc in zip(x, y)])
    else:
        lows, highs = [], []
        for xc, yc in zip(x, y):
            high, rest = divmod(a * xc - b * yc, step)
            lows.append(_clamp(high + (rest != 0), den))
            highs.append(_clamp(high, den))
        lows, highs = tuple(lows), tuple(highs)
    return lows, highs, lows[0] if 2 * x[0] == den and lows[0] == highs[0] else None


def _require_separation(spec, den, max_b, depth):
    """Refuse a depth below the separation depth: from there on
    2^depth > 2·max_b·den·S, the bound the proofs above use."""
    floor = separation_depth(spec, den, max_b)
    if depth < floor:
        raise ValueError(f"level probe depth {depth} is below the "
                         f"separation depth {floor}")
