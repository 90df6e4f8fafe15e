"""Pure-Python axiom-scan kernels over unbounded integers.

Every scan has one pinned candidate order, spelled out by its loops,
and returns the first hit in that order.  These scans serve callback
oracles and the encoded kinds a level scan has no shortcut for, and are
the reference the level kernels must match: tests/test_scan_reference.py
holds this module to a brute-force Fraction-level reference written
from the docstrings, and the level kernels to both.

Comparisons between two grid points go through ``_SignTable``, a lazily
built table of comparison signs stored as Python-int bitsets, so the
triple scans become walks over set bits instead of cubic loops that
repeat the same comparison once per third point.  For an encoded
oracle the table makes no comparison at all: each row is a few bitset
operations on ``_Thresholds``, the per-coordinate (or, for eu,
per-level) threshold bitsets of the grid, built once per grid.  Only a
callback oracle fills rows by calling its closure.  Comparisons with
points off the grid (mixtures, translates, dyadic probes, line points)
are made directly, by ``make_compare``: for an encoded kind that is the
integer rule its oracle compares with, so a scan and the witness
confirmation ask one ordering.

Conventions shared by every scan:

* ``nums`` is the grid as integer weight tuples over one common ``den``;
* comparisons return the sign of "first minus second", one of -1, 0, 1;
* weights a/b arrive as integer pairs, already in the caller's order;
* a return of None means the scan exhausted its budget without a hit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import gcd

from ..oracles import integer_rule

def make_compare(spec):
    """Closure comparing (pnums, pden, qnums, qden) -> sign: a callback
    spec's own closure, else the encoded kind's rule from
    ``oracles.integer_rule``, the one its oracle compares with."""
    kind, params = spec
    if kind == "callback":
        return params[0]
    return integer_rule(kind, params)


class _Thresholds(list):
    """Integer values, one per grid index, plus threshold bitsets taken
    from the indices sorted by value: bit k of ``below(t)`` is set when
    values[k] < t, and so on.  Each threshold costs one bisection."""

    def __init__(self, values):
        super().__init__(values)
        order = sorted(range(len(self)), key=self.__getitem__)
        self._sorted = [self[k] for k in order]
        self._prefix = [0]
        for k in order:
            self._prefix.append(self._prefix[-1] | 1 << k)

    def below(self, t):
        return self._prefix[bisect_left(self._sorted, t)]

    def at_most(self, t):
        return self._prefix[bisect_right(self._sorted, t)]

    def above(self, t):
        return self._prefix[-1] ^ self.at_most(t)

    def at(self, t):
        return self.at_most(t) ^ self.below(t)


@lru_cache(maxsize=8)
def _level_thresholds(utility, nums):
    """The levels u·x of a grid as ``_Thresholds``, built once per grid
    and payoffs and shared by every caller, which only reads it."""
    return _Thresholds(sum(u * x for u, x in zip(utility, xs)) for xs in nums)


@lru_cache(maxsize=8)
def _coordinate_thresholds(nums):
    return tuple(_Thresholds(column) for column in zip(*nums))


def _threshold_row(spec, nums, den):
    """i -> (gt, eq, lt), the sign-table row of grid point i, from
    threshold bitsets; None for a callback spec.

    Coordinate c of point i against point k has the sign of
    x_c - nums[k][c], so each coordinate's masks are two bisections at
    x_c, and ``signs_from_coordinates`` joins them by the oracle's rule;
    for hybrid, a point with 2·x_0 = den sees the points level with it
    on coordinate 0 as its plateau.  eu reads its row off the levels.
    """
    kind = spec[0]
    if kind == "eu":
        full = (1 << len(nums)) - 1
        levels = _level_thresholds(tuple(spec[1]), tuple(nums))

        def eu_row(i):
            gt, lt = levels.below(levels[i]), levels.above(levels[i])
            return gt, full ^ gt ^ lt, lt

        return eu_row
    if kind not in ("lex", "hybrid", "majority"):
        return None
    signs = signs_from_coordinates(spec, nums)

    def row(i):
        x = nums[i]
        return signs(x, x, x[0] if 2 * x[0] == den else None)

    return row


def signs_from_coordinates(spec, nums):
    """(lows, highs, plateau) -> (gt, eq, lt) for a lex, hybrid or
    majority spec: the signs, against every grid point, of a comparison
    whose coordinate c has the sign of t_c - nums[k][c] at point k, with
    lows[c] = ceil(t_c) and highs[c] = floor(t_c).

    So bit k of the coordinate's gt mask is set when nums[k][c] < lows[c]
    and of its lt mask when nums[k][c] > highs[c], one bisection each.
    lex walks its priority: gt and lt gain the tied points the
    coordinate separates, and the tie narrows to the rest.  hybrid is lex
    in index order, then the points whose coordinate 0 equals
    ``plateau`` become indifferent: the caller passes the value that
    puts point k on x_0 = 1/2 when the fixed side sits there, else None.
    majority counts wins and losses per point in bit-sliced counters
    (plane b holds bit b of every point's count) and compares the two
    counters from the top plane down.  lex and majority ignore plateau.
    """
    kind, params = spec
    coords = _coordinate_thresholds(tuple(nums))
    full = (1 << len(nums)) - 1

    if kind == "majority":
        width = len(coords).bit_length()

        def majority_signs(lows, highs, plateau):
            wins, losses = [0] * width, [0] * width
            for t, lo, hi in zip(coords, lows, highs):
                _count(wins, t.below(lo))
                _count(losses, t.above(hi))
            gt = lt = 0
            tie = full
            for w, l in zip(reversed(wins), reversed(losses)):
                gt |= tie & w & ~l
                lt |= tie & l & ~w
                tie &= ~(w ^ l)
            return gt, tie, lt

        return majority_signs

    hybrid = kind == "hybrid"
    priority = range(len(coords)) if hybrid else params

    def lex_signs(lows, highs, plateau):
        gt = lt = 0
        tie = full
        for c in priority:
            t = coords[c]
            above, below = tie & t.above(highs[c]), tie & t.below(lows[c])
            gt |= below
            lt |= above
            tie ^= below | above
            if not tie:
                break
        if hybrid and plateau is not None:
            half = coords[0].at(plateau)
            return gt & ~half, tie | half, lt & ~half
        return gt, tie, lt

    return lex_signs


def _count(planes, mask):
    """Add one to the bit-sliced counter of every point in mask."""
    for b, plane in enumerate(planes):
        planes[b], mask = plane ^ mask, plane & mask
        if not mask:
            return


class _SignTable:
    """Signs of cmp between grid points, as bitsets built on demand.

    ``row(i)`` is ``(gt, eq, lt)``: bit k is set in the one matching the
    sign of ``cmp(nums[i], den, nums[k], den)``.  ``col(i)`` holds the
    same for ``cmp(nums[k], den, nums[i], den)``.

    An encoded oracle (eu, lex, hybrid, majority) builds each row from
    the grid's threshold bitsets with no comparison at all, and since it
    is antisymmetric, ``col(i)`` is ``row(i)`` mirrored: ``mirrored`` is
    True.  A callback oracle need not be antisymmetric, so its rows and
    columns come from g closure calls each, the first time a scan asks;
    a scan then makes at most g extra comparisons for each row or
    column its walk stops inside.  Only bitsets are stored.
    """

    __slots__ = ("mirrored", "_row_of", "_col_of", "_rows", "_cols")

    def __init__(self, spec, nums, den):
        self._row_of = _threshold_row(spec, nums, den)
        self.mirrored = self._row_of is not None
        if not self.mirrored:
            cmp = make_compare(spec)

            def row_of(i):
                p = nums[i]
                return _masks([cmp(p, den, q, den) for q in nums])

            def col_of(i):
                p = nums[i]
                return _masks([cmp(q, den, p, den) for q in nums])

            self._row_of, self._col_of = row_of, col_of
        self._rows = [None] * len(nums)
        self._cols = [None] * len(nums)

    def row(self, i):
        signs = self._rows[i]
        if signs is None:
            signs = self._rows[i] = self._row_of(i)
        return signs

    def col(self, i):
        if self.mirrored:
            gt, eq, lt = self.row(i)
            return lt, eq, gt
        signs = self._cols[i]
        if signs is None:
            signs = self._cols[i] = self._col_of(i)
        return signs


def _masks(signs):
    """(gt, eq, lt) bitsets of a sign list: bit k follows signs[k]."""
    gt = int("0" + "".join("1" if s > 0 else "0" for s in reversed(signs)), 2)
    eq = int("0" + "".join("0" if s else "1" for s in reversed(signs)), 2)
    return gt, eq, ((1 << len(signs)) - 1) ^ gt ^ eq


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    text = bin(mask)[:1:-1]
    k = text.find("1")
    while k >= 0:
        yield k
        k = text.find("1", k + 1)


def _mix(pn, qn, a, b):
    """Numerators of (a/b)p + (1 - a/b)q; denominator becomes b*den."""
    c = b - a
    return tuple(a * x + c * y for x, y in zip(pn, qn))


def scan_transitivity(spec, nums, den):
    """First (i, j, k) with i >= j >= k but i < k."""
    signs = _SignTable(spec, nums, den)
    for i in range(len(nums)):
        gt_i, eq_i, lt_i = signs.row(i)
        for j in _bits(gt_i | eq_i):
            gt_j, eq_j, _ = signs.row(j)
            bad = (gt_j | eq_j) & lt_i
            if bad:
                return (i, j, (bad & -bad).bit_length() - 1)
    return None


def scan_independence(spec, nums, den, alphas):
    """First (i, j, k, alpha index) where mixing with k flips i-vs-j.

    An encoded comparison has cmp(x, x) = 0, and for j = i both
    mixtures are one tuple, so only a callback spec walks j = i.
    """
    cmp = make_compare(spec)
    g = len(nums)
    reflexive = spec[0] != "callback"
    for i in range(g):
        # mixes[k][ai] is i mixed with k at alphas[ai], built on first
        # use and shared by every later j.
        mixes = [None] * g
        for j in range(g):
            if j == i and reflexive:
                continue
            before = cmp(nums[i], den, nums[j], den)
            for k in range(g):
                row = mixes[k]
                if row is None:
                    row = mixes[k] = [_mix(nums[i], nums[k], a, b) for a, b in alphas]
                for ai, ((a, b), mp) in enumerate(zip(alphas, row)):
                    mq = _mix(nums[j], nums[k], a, b)
                    if cmp(mp, b * den, mq, b * den) != before:
                        return (i, j, k, ai)
    return None


def scan_betweenness(spec, nums, den, alphas):
    """First (i, j, alpha index) where i >= j but the mixture escapes
    the closed preference interval [j, i]."""
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    for i in range(len(nums)):
        gt_i, eq_i, _ = signs.row(i)
        for j in _bits(gt_i | eq_i):
            for ai, (a, b) in enumerate(alphas):
                m = _mix(nums[i], nums[j], a, b)
                if cmp(nums[i], den, m, b * den) < 0:
                    return (i, j, ai)
                if cmp(m, b * den, nums[j], den) < 0:
                    return (i, j, ai)
    return None


def scan_convexity(spec, nums, den, alphas):
    """First (i, j, k, alpha index) where j ~ i and k ~ i but their
    mixture is not indifferent to i."""
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    for i in range(len(nums)):
        members = list(_bits(signs.col(i)[1]))
        for j in members:
            for k in members:
                for ai, (a, b) in enumerate(alphas):
                    m = _mix(nums[j], nums[k], a, b)
                    if cmp(m, b * den, nums[i], den) != 0:
                        return (i, j, k, ai)
    return None


def scan_translation(spec, nums, den):
    """First (i, j, k) where k ~ i but the translate k + (j - i), when
    it stays a lottery, is not indifferent to j."""
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    g = len(nums)
    size = len(nums[0]) if nums else 0
    for i in range(g):
        members = list(_bits(signs.col(i)[1]))
        for j in range(g):
            for k in members:
                w = tuple(nums[k][c] + nums[j][c] - nums[i][c] for c in range(size))
                if any(x < 0 for x in w):
                    continue
                if cmp(w, den, nums[j], den) != 0:
                    return (i, j, k)
    return None


def scan_line_order(spec, nums, den, max_t_den):
    """First (i, j, tnum, tden, relation) violating the expected order
    along the line point(t) = q + t(p - q), given p > q.

    t runs over reduced rationals with denominator <= max_t_den inside
    the exact parameter interval where the point stays a lottery,
    skipping t = 0 and t = 1 (the endpoints themselves).  The relation
    names the expected strict comparison that failed: "q-vs-point"
    (t < 0), "p-vs-point" or "point-vs-q" (0 < t < 1), "point-vs-p"
    (t > 1).
    """
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    size = len(nums[0]) if nums else 0
    for i in range(len(nums)):
        for j in _bits(signs.row(i)[0]):
            p, q = nums[i], nums[j]
            d = tuple(p[c] - q[c] for c in range(size))
            if not any(d):
                # p == q (an oracle with p > p): no line, and every
                # expected comparison would be p > p, which holds.
                continue
            for b in range(1, max_t_den + 1):
                # q + t*d >= 0 per coordinate bounds a = t*b between:
                a_lo, a_hi = None, None
                for c in range(size):
                    if d[c] > 0:
                        # ceil(-q*b/d) with q*b >= 0 is -floor(q*b/d)
                        bound = -((q[c] * b) // d[c])
                        if a_lo is None or bound > a_lo:
                            a_lo = bound
                    elif d[c] < 0:
                        bound = (q[c] * b) // (-d[c])
                        if a_hi is None or bound < a_hi:
                            a_hi = bound
                for a in range(a_lo, a_hi + 1):
                    if a == 0 or a == b or gcd(abs(a), b) != 1:
                        continue
                    pt = tuple(b * q[c] + a * d[c] for c in range(size))
                    pden = b * den
                    if a < 0:
                        if cmp(q, den, pt, pden) != 1:
                            return (i, j, a, b, "q-vs-point")
                    elif a < b:
                        if cmp(p, den, pt, pden) != 1:
                            return (i, j, a, b, "p-vs-point")
                        if cmp(pt, pden, q, den) != 1:
                            return (i, j, a, b, "point-vs-q")
                    else:
                        if cmp(pt, pden, p, den) != 1:
                            return (i, j, a, b, "point-vs-p")
    return None


def _mixture_side(cmp, p, r, q, den, a, b, direction, depth):
    """True when every in-range probe alpha +- 1/2^h stays weakly above q."""
    checked = False
    power = 1
    for _ in range(depth):
        power *= 2
        num = a * power + direction * b
        bden = b * power
        if num < 0 or num > bden:
            continue
        m = _mix(p, r, num, bden)
        if cmp(m, bden * den, q, den) < 0:
            return False
        checked = True
    return checked


def scan_mixture(spec, nums, den, alpha_stars, depth):
    """First (i, j, k, alpha index, side) where the weak upper set
    {alpha : mix(p, r, alpha) >= q} excludes a boundary candidate that
    its one-sided dyadic probes all belong to."""
    cmp = make_compare(spec)
    g = len(nums)
    for i in range(g):
        for j in range(g):
            for k in range(g):
                p, q, r = nums[i], nums[j], nums[k]
                for si, (a, b) in enumerate(alpha_stars):
                    m0 = _mix(p, r, a, b)
                    if cmp(m0, b * den, q, den) >= 0:
                        continue  # candidate inside the set; not a boundary gap
                    if _mixture_side(cmp, p, r, q, den, a, b, 1, depth):
                        return (i, j, k, si, 1)
                    if _mixture_side(cmp, p, r, q, den, a, b, -1, depth):
                        return (i, j, k, si, -1)
    return None


def scan_archimedean(spec, nums, den, depth):
    """First (i, j, k, side) with p > q > r where one side of the
    interior-weight requirement fails at every dyadic probe: "beta" when
    no probe keeps q above mix(p, r, 2^-h), else "alpha"."""
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    powers = [1 << h for h in range(1, depth + 1)]
    for i in range(len(nums)):
        for j in _bits(signs.row(i)[0]):
            for k in _bits(signs.row(j)[0]):
                p, q, r = nums[i], nums[j], nums[k]
                if not any(cmp(q, den, _mix(p, r, 1, P), P * den) > 0
                           for P in powers):
                    return (i, j, k, "beta")
                if not any(cmp(_mix(p, r, P - 1, P), P * den, q, den) > 0
                           for P in powers):
                    return (i, j, k, "alpha")
    return None


def scan_solvability_scan(spec, nums, den, alphas):
    """First (i, j, k) with p >= q >= r that no candidate weight solves.

    The weight 1 mixes onto p and the weight 0 onto r.  So when 1 is a
    candidate no j with q ~ p can hit, and when 0 is one no k with
    r ~ q (the eq bits of col(j)) can; the walk skips them, and the
    first hit stays the same.  A callback table pays g comparisons for
    col(j), so it skips only by weight 1.
    """
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    one = (1, 1) in alphas
    zero = (0, 1) in alphas and signs.mirrored
    for i in range(len(nums)):
        gt_i, eq_i, _ = signs.row(i)
        for j in _bits(gt_i if one else gt_i | eq_i):
            gt_j, eq_j, _ = signs.row(j)
            for k in _bits(gt_j if zero else gt_j | eq_j):
                p, q, r = nums[i], nums[j], nums[k]
                solved = False
                for a, b in alphas:
                    m = _mix(p, r, a, b)
                    if cmp(m, b * den, q, den) == 0:
                        solved = True
                        break
                if not solved:
                    return (i, j, k)
    return None


def scan_solvability_solve(spec, nums, den, weight):
    """First (i, j, k, a, b) with p >= q >= r where a/b = weight(i, j, k),
    the oracle's own solution, does not mix p and r onto q; a and b are
    None where weight gives None, the oracle having no solution."""
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    for i in range(len(nums)):
        gt_i, eq_i, _ = signs.row(i)
        for j in _bits(gt_i | eq_i):
            gt_j, eq_j, _ = signs.row(j)
            for k in _bits(gt_j | eq_j):
                solved = weight(i, j, k)
                if solved is None:
                    return (i, j, k, None, None)
                a, b = solved
                if cmp(_mix(nums[i], nums[k], a, b), b * den, nums[j], den) != 0:
                    return (i, j, k, a, b)
    return None


def scan_openness(spec, nums, den, depth):
    """First (i, j, k): q strictly compares to p, w sits strictly on the
    other side, and every dyadic step from q toward w stays strictly on
    w's side, so q's side fails to be open at q along that segment."""
    cmp = make_compare(spec)
    signs = _SignTable(spec, nums, den)
    powers = [1 << h for h in range(1, depth + 1)]
    for i in range(len(nums)):
        gt_i, _, lt_i = signs.col(i)
        for j in _bits(gt_i | lt_i):
            side, opposite = (1, lt_i) if gt_i >> j & 1 else (-1, gt_i)
            for k in _bits(opposite):
                q, w = nums[j], nums[k]
                if all(cmp(_mix(w, q, 1, P), P * den, nums[i], den) == -side
                       for P in powers):
                    return (i, j, k)
    return None
