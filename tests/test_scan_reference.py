"""Pure and level scan kernels against a brute-force Fraction-level
reference.

Each reference below is written from its scan's docstring: nested loops
over the grid in the pinned order (grid index, then candidate weight in
the order grids.py pins), asking ``oracle.compare`` about Fraction
lotteries built with ``lotteries.mix``.  It shares no code with the
kernels beyond the grid and weight enumerations, so the first hit the
two agree on (None included) is computed twice, independently.

The pure kernels run every oracle; the level kernels run every encoded
kind on every scan: eu and represented oracles, including payoffs
beyond 2^121, and lex, hybrid and majority, on the scans their proofs
answer and on those they hand to the pure walk.  Hypothesis tests then
hold the level kernels to the pure ones on drawn payoffs, priorities,
weights and sub-grids, the pure kernels to the reference on drawn lex,
hybrid, majority and callback oracles, the sign rows built from
thresholds to the rows a comparison closure fills, and the pure probe
scans' first hits to stay put from the separation depth on.  The level probe scans
run only from their separation depth; below it they refuse.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotpref import _kernels as kernels
from lotpref._kernels import levels, pure
from lotpref.axioms import DEFAULT_DEPTH, _encoded, check_continuity
from lotpref.geometry import Hyperplane
from lotpref.grids import GridSpec, dyadic_alphas, enumerate_grid, rationals_between
from lotpref.lotteries import Lottery, OutcomeSpace, mix
from lotpref.oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    PreferenceOracle,
    RepresentedOracle,
    UtilityFunction,
)

F = Fraction
DEPTH = 4  # dyadic probes; small enough that some probe scans do hit


class ScoredOracle(PreferenceOracle):
    """Scores the first lottery with ``left`` and the second with
    ``right``: reflexive, and with left != right in general neither
    antisymmetric nor transitive.  The encoder refuses it, so the scans
    see it through the callback path."""

    kind = "scored"

    def __init__(self, space, left, right):
        super().__init__(space)
        self.left, self.right = left, right

    def compare(self, p, q):
        if p == q:
            return ComparisonResult.INDIFFERENT
        lhs = sum(c * w for c, w in zip(self.left, p.weights))
        rhs = sum(c * w for c, w in zip(self.right, q.weights))
        return ComparisonResult.from_sign((lhs > rhs) - (lhs < rhs))


def skewed(space):
    """Scores c + 1 on the left against 2c mod n + 1 on the right."""
    n = space.size
    return ScoredOracle(space, [c + 1 for c in range(n)],
                        [2 * c % n + 1 for c in range(n)])


class TiesBetterOracle(ExpectedUtilityOracle):
    """Expected utility that reports every tie as strictly better, so it
    is not reflexive: p > p.  A subclass, so the scans see it through
    the callback path."""

    def compare(self, p, q):
        result = super().compare(p, q)
        if result is ComparisonResult.INDIFFERENT:
            return ComparisonResult.STRICTLY_BETTER
        return result


class RoundingSolver(ExpectedUtilityOracle):
    """Expected utility whose solve() rounds the true weight down to a
    multiple of 1/2, so it lies wherever the true weight is another
    rational.  A subclass, so the contract walk sees it through the
    callback path."""

    def solve(self, p, q, r):
        return Fraction(int(2 * super().solve(p, q, r)), 2)


class TieLiar(ExpectedUtilityOracle):
    """Expected utility whose solve() answers 1/2 when its ``tied`` pair
    of (p, q, r) is indifferent and the other pair strictly ordered,
    where the true weight is 1 or 0: it lies only on chains a walk
    reaches through an indifference."""

    def __init__(self, utility, tied):
        super().__init__(utility)
        self.tied = tied  # "pq" or "qr"

    def solve(self, p, q, r):
        alpha = super().solve(p, q, r)
        pq, qr = self.compare(p, q), self.compare(q, r)
        tie, strict = (pq, qr) if self.tied == "pq" else (qr, pq)
        if (tie is ComparisonResult.INDIFFERENT
                and strict is ComparisonResult.STRICTLY_BETTER):
            return Fraction(1, 2)
        return alpha


CALLBACK_ORACLES = ("skewed", "ties-better")

ORACLES = {
    3: {
        "eu": lambda s: ExpectedUtilityOracle(UtilityFunction.of(s, [-2, 1, 1])),
        "lex": lambda s: LexicographicOracle(s, (2, 0, 1)),
        "hybrid": HybridExampleOracle,
        "majority": MajorityOracle,
        "skewed": skewed,
        "ties-better": lambda s: TiesBetterOracle(UtilityFunction.of(s, [0, 1, 1])),
    },
    4: {
        "eu": lambda s: ExpectedUtilityOracle(UtilityFunction.of(s, [1, -3, 0, -1])),
        "lex": lambda s: LexicographicOracle(s, (1, 3, 0, 2)),
        "hybrid": HybridExampleOracle,
        "majority": MajorityOracle,
        "skewed": skewed,
        "ties-better": lambda s: TiesBetterOracle(
            UtilityFunction.of(s, [0, 1, 1, -1])),
    },
}

GRIDS = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]


class Reference:
    """One oracle on one grid.  ``grid[i][j]`` is the sign of
    compare(lots[i], lots[j]), asked once per ordered pair when a
    reference first reads it; ``sign`` asks the oracle about any other
    pair."""

    def __init__(self, oracle, lots):
        self.oracle = oracle
        self.lots = lots

    @cached_property
    def grid(self):
        lots, oracle = self.lots, self.oracle
        return [[oracle.compare(p, q).sign for q in lots] for p in lots]

    def sign(self, p, q):
        return self.oracle.compare(p, q).sign

    def triples(self):
        lots = self.lots
        for i, p in enumerate(lots):
            for j, q in enumerate(lots):
                for k, r in enumerate(lots):
                    yield i, j, k, p, q, r


def ref_transitivity(ref, bound, depth):
    """First (i, j, k) with i >= j >= k but i < k."""
    g = ref.grid
    for i, j, k, _, _, _ in ref.triples():
        if g[i][j] >= 0 and g[j][k] >= 0 and g[i][k] < 0:
            return (i, j, k)
    return None


def ref_independence(ref, bound, depth):
    """First (i, j, k, alpha index) where mixing with k flips i-vs-j."""
    s, g = ref.sign, ref.grid
    alphas = dyadic_alphas(bound)
    for i, j, k, p, q, r in ref.triples():
        for ai, alpha in enumerate(alphas):
            if s(mix(p, r, alpha), mix(q, r, alpha)) != g[i][j]:
                return (i, j, k, ai)
    return None


def ref_betweenness(ref, bound, depth):
    """First (i, j, alpha index) where i >= j but the mixture escapes
    the closed preference interval [j, i]."""
    s, g = ref.sign, ref.grid
    alphas = dyadic_alphas(bound, interior_only=True)
    for i, p in enumerate(ref.lots):
        for j, q in enumerate(ref.lots):
            if g[i][j] < 0:
                continue
            for ai, alpha in enumerate(alphas):
                m = mix(p, q, alpha)
                if s(p, m) < 0 or s(m, q) < 0:
                    return (i, j, ai)
    return None


def ref_convexity(ref, bound, depth):
    """First (i, j, k, alpha index) where j ~ i and k ~ i but their
    mixture is not indifferent to i."""
    s, g = ref.sign, ref.grid
    alphas = rationals_between(F(0), F(1), bound)
    for i, j, k, p, q1, q2 in ref.triples():
        if g[j][i] != 0 or g[k][i] != 0:
            continue
        for ai, alpha in enumerate(alphas):
            if s(mix(q1, q2, alpha), p) != 0:
                return (i, j, k, ai)
    return None


def ref_translation(ref, bound, depth):
    """First (i, j, k) where k ~ i but the translate k + (j - i), when
    it stays a lottery, is not indifferent to j."""
    s, g = ref.sign, ref.grid
    for i, j, k, p, q, r in ref.triples():
        if g[k][i] != 0:
            continue
        shifted = tuple(rw + qw - pw for rw, qw, pw in
                        zip(r.weights, q.weights, p.weights))
        if min(shifted) < 0:
            continue
        if s(Lottery(p.space, shifted), q) != 0:
            return (i, j, k)
    return None


def ref_line_order(ref, bound, depth):
    """First (i, j, t numerator, t denominator, relation) along the line
    q + t(p - q) through p > q, t over reduced rationals with
    denominator <= bound that keep the point a lottery, t not 0 or 1.
    A pair with p == q spans no line and is skipped."""
    s, g = ref.sign, ref.grid
    for i, p in enumerate(ref.lots):
        for j, q in enumerate(ref.lots):
            if g[i][j] <= 0 or i == j:
                continue
            d = [pw - qw for pw, qw in zip(p.weights, q.weights)]
            lo = max(-qw / dw for qw, dw in zip(q.weights, d) if dw > 0)
            hi = min(-qw / dw for qw, dw in zip(q.weights, d) if dw < 0)
            by_den = sorted(rationals_between(lo, hi, bound),
                            key=lambda t: (t.denominator, t.numerator))
            for t in by_den:
                if t in (0, 1):
                    continue
                point = Lottery(p.space, tuple(
                    qw + t * dw for qw, dw in zip(q.weights, d)))
                if t < 0:
                    checks = [(q, point, "q-vs-point")]
                elif t < 1:
                    checks = [(p, point, "p-vs-point"), (point, q, "point-vs-q")]
                else:
                    checks = [(point, p, "point-vs-p")]
                for first, second, relation in checks:
                    if s(first, second) != 1:
                        return (i, j, t.numerator, t.denominator, relation)
    return None


def ref_mixture(ref, bound, depth):
    """First (i, j, k, alpha index, side) where mix(p, r, alpha*) < q
    for a candidate alpha* with denominator <= 2 * bound, while every
    probe alpha* + side/2^h (h = 1..depth) that stays in [0, 1] mixes
    weakly above q, and at least one does."""
    s = ref.sign
    stars = rationals_between(F(0), F(1), 2 * bound)
    steps = [F(1, 2 ** h) for h in range(1, depth + 1)]
    # The probes of each candidate and side that stay in [0, 1].
    probes = {(si, side): [a for a in (star + side * step for step in steps)
                           if 0 <= a <= 1]
              for si, star in enumerate(stars) for side in (1, -1)}
    for i, j, k, p, q, r in ref.triples():
        for si, star in enumerate(stars):
            if s(mix(p, r, star), q) >= 0:
                continue
            for side in (1, -1):
                inside = probes[si, side]
                if inside and all(s(mix(p, r, a), q) >= 0 for a in inside):
                    return (i, j, k, si, side)
    return None


def ref_archimedean(ref, bound, depth):
    """First (i, j, k, side) with p > q > r where one side of the
    interior-weight requirement fails at every dyadic probe."""
    s, g = ref.sign, ref.grid
    steps = [F(1, 2 ** h) for h in range(1, depth + 1)]
    for i, j, k, p, q, r in ref.triples():
        if g[i][j] <= 0 or g[j][k] <= 0:
            continue
        if not any(s(q, mix(p, r, step)) > 0 for step in steps):
            return (i, j, k, "beta")
        if not any(s(mix(p, r, 1 - step), q) > 0 for step in steps):
            return (i, j, k, "alpha")
    return None


def ref_solvability_scan(ref, bound, depth, alphas=None):
    """First (i, j, k) with p >= q >= r that no candidate weight solves;
    the candidates are those the checker passes unless given."""
    s, g = ref.sign, ref.grid
    if alphas is None:
        alphas = rationals_between(F(0), F(1), bound)
    for i, j, k, p, q, r in ref.triples():
        if g[i][j] < 0 or g[j][k] < 0:
            continue
        if not any(s(mix(p, r, alpha), q) == 0 for alpha in alphas):
            return (i, j, k)
    return None


def ref_openness(ref, bound, depth):
    """First (i, j, k): q strictly compares to p, w sits strictly on the
    other side, and every dyadic step from q toward w stays there."""
    s, g = ref.sign, ref.grid
    steps = [F(1, 2 ** h) for h in range(1, depth + 1)]
    for i, j, k, p, q, w in ref.triples():
        side = g[j][i]
        if side == 0 or g[k][i] != -side:
            continue
        if all(s(mix(w, q, step), p) == -side for step in steps):
            return (i, j, k)
    return None


def ref_solve_contract(ref):
    """First (i, j, k, a, b) with p >= q >= r where a/b, the oracle's
    own solve(p, q, r), does not mix p and r onto q."""
    s, g = ref.sign, ref.grid
    for i, j, k, p, q, r in ref.triples():
        if g[i][j] < 0 or g[j][k] < 0:
            continue
        alpha = ref.oracle.solve(p, q, r)
        if s(mix(p, r, alpha), q) != 0:
            return (i, j, k, alpha.numerator, alpha.denominator)
    return None


def pairs(fracs):
    return [(a.numerator, a.denominator) for a in fracs]


def kernel_args(name, bound, depth=DEPTH):
    """The trailing arguments the checkers pass each scan."""
    candidates = pairs(rationals_between(F(0), F(1), bound))
    return {
        "transitivity": (),
        "independence": (pairs(dyadic_alphas(bound)),),
        "betweenness": (pairs(dyadic_alphas(bound, interior_only=True)),),
        "convexity": (candidates,),
        "translation": (),
        "line_order": (bound,),
        "mixture": (pairs(rationals_between(F(0), F(1), 2 * bound)), depth),
        "archimedean": (depth,),
        "solvability_scan": (candidates,),
        "openness": (depth,),
    }[name]


REFERENCES = {
    "transitivity": ref_transitivity,
    "betweenness": ref_betweenness,
    "convexity": ref_convexity,
    "translation": ref_translation,
    "line_order": ref_line_order,
    "archimedean": ref_archimedean,
    "solvability_scan": ref_solvability_scan,
    "openness": ref_openness,
}

CASES = [(size, bound, oracle)
         for size, bound in GRIDS for oracle in ORACLES[size]]


@pytest.mark.parametrize(
    "size,bound,oracle_name", CASES,
    ids=[f"{oracle}-{size}x{bound}" for size, bound, oracle in CASES])
def test_pure_scans_match_reference(size, bound, oracle_name):
    space = OutcomeSpace.of_size(size)
    oracle = ORACLES[size][oracle_name](space)
    grid = GridSpec(space, bound)
    lots, nums, den, spec = _encoded(oracle, grid)
    assert lots == enumerate_grid(grid)
    assert (spec[0] == "callback") == (oracle_name in CALLBACK_ORACLES)
    ref = Reference(oracle, lots)
    for name, reference in REFERENCES.items():
        hit = getattr(pure, f"scan_{name}")(spec, nums, den, *kernel_args(name, bound))
        assert hit == reference(ref, bound, DEPTH), f"{name} diverged"


SMALL_CASES = [(size, bound, oracle) for size, bound in ((3, 2), (4, 2))
               for oracle in ORACLES[size]]


@pytest.mark.parametrize(
    "size,bound,oracle_name", SMALL_CASES,
    ids=[f"{oracle}-{size}x{bound}" for size, bound, oracle in SMALL_CASES])
def test_pure_independence_and_mixture_match_reference(size, bound, oracle_name):
    # The two g^3 scans whose references are slowest, on the small grids.
    space = OutcomeSpace.of_size(size)
    oracle = ORACLES[size][oracle_name](space)
    lots, nums, den, spec = _encoded(oracle, GridSpec(space, bound))
    ref = Reference(oracle, lots)
    for name, reference in (("independence", ref_independence),
                            ("mixture", ref_mixture)):
        hit = getattr(pure, f"scan_{name}")(spec, nums, den, *kernel_args(name, bound))
        assert hit == reference(ref, bound, DEPTH), f"{name} diverged"


SOLVERS = {
    size: {
        "eu": ORACLES[size]["eu"],
        "ties-better": ORACLES[size]["ties-better"],
        "rounding": lambda s: RoundingSolver(
            UtilityFunction.of(s, [2, 0, 1, 5][:s.size])),
        "tie-pq": lambda s: TieLiar(
            UtilityFunction.of(s, [0, 1, 1, 2][:s.size]), "pq"),
        "tie-qr": lambda s: TieLiar(
            UtilityFunction.of(s, [0, 1, 1, 2][:s.size]), "qr"),
    }
    for size in (3, 4)
}
def solved_weight(oracle, lots):
    """weight(i, j, k) from the oracle's own solve(), as check_continuity
    passes it to the solve-contract scan."""
    def weight(i, j, k):
        alpha = oracle.solve(lots[i], lots[j], lots[k])
        return alpha.numerator, alpha.denominator

    return weight


SOLVE_CASES = [(size, bound, name)
               for size, bound in GRIDS for name in SOLVERS[size]]


@pytest.mark.parametrize(
    "size,bound,solver", SOLVE_CASES,
    ids=[f"{name}-{size}x{bound}" for size, bound, name in SOLVE_CASES])
def test_solve_contract_scans_match_reference(size, bound, solver):
    # eu takes the level proof, and the callback solvers the pure walk.
    space = OutcomeSpace.of_size(size)
    oracle = SOLVERS[size][solver](space)
    lots, nums, den, spec = _encoded(oracle, GridSpec(space, bound))
    hit = kernels.scan_solvability_solve(spec, nums, den,
                                         solved_weight(oracle, lots))
    expected = ref_solve_contract(Reference(oracle, lots))
    assert hit == expected
    assert (expected is None) == (solver == "eu")


def test_reference_cases_cover_hits_and_misses():
    # Equal first hits only mean something if both outcomes occur:
    # every scan must find a hit in some case and none in another.
    seen = {name: set() for name in REFERENCES}
    for size, bound in ((3, 2), (3, 3), (4, 2)):
        space = OutcomeSpace.of_size(size)
        for make in ORACLES[size].values():
            oracle = make(space)
            ref = Reference(oracle, enumerate_grid(GridSpec(space, bound)))
            for name, reference in REFERENCES.items():
                seen[name].add(reference(ref, bound, DEPTH) is None)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


ENDPOINT_CASES = [(size, bound, oracle, drop)
                  for size, bound in ((3, 2), (3, 3), (4, 2))
                  for oracle in ORACLES[size]
                  for drop in ((), (0,), (1,), (0, 1))]


@pytest.mark.parametrize(
    "size,bound,oracle_name,drop", ENDPOINT_CASES,
    ids=[f"{oracle}-{size}x{bound}-without{list(drop)}"
         for size, bound, oracle, drop in ENDPOINT_CASES])
def test_solvability_scan_with_and_without_endpoint_weights(size, bound,
                                                            oracle_name, drop):
    # The scan skips the triples the weights 1 and 0 solve only when
    # those weights are candidates; without them, those triples can hit.
    space = OutcomeSpace.of_size(size)
    oracle = ORACLES[size][oracle_name](space)
    lots, nums, den, spec = _encoded(oracle, GridSpec(space, bound))
    alphas = [a for a in rationals_between(F(0), F(1), bound) if a not in drop]
    hit = pure.scan_solvability_scan(spec, nums, den, pairs(alphas))
    assert hit == ref_solvability_scan(Reference(oracle, lots), bound, DEPTH, alphas)


# ---- sign rows from thresholds --------------------------------------------------

MAX_BOUND = {2: 6, 3: 4, 4: 3, 5: 2}
SMALL_OR_HUGE = st.one_of(st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40))


@st.composite
def encoded_grids(draw):
    """(spec, grid size, bound): lex with a drawn priority, hybrid,
    majority, or eu with payoffs up to 2^40, on 2 to 5 outcomes."""
    size = draw(st.integers(2, 5))
    spec = draw(st.one_of(
        st.permutations(range(size)).map(lambda order: ("lex", tuple(order))),
        st.just(("hybrid", ())),
        st.just(("majority", ())),
        st.lists(SMALL_OR_HUGE, min_size=size, max_size=size).map(
            lambda payoffs: ("eu", tuple(payoffs)))))
    return spec, size, draw(st.integers(2, MAX_BOUND[size]))


@settings(max_examples=60, deadline=None)
@given(drawn=encoded_grids())
def test_threshold_rows_match_closure_rows(drawn):
    # Every grid bound here is at least 2, so den is even and hybrid's
    # plateau x_0 = 1/2 holds grid points.
    spec, size, bound = drawn
    lots = enumerate_grid(GridSpec(OutcomeSpace.of_size(size), bound))
    nums, den = kernels.encode_lotteries(lots)
    if spec[0] == "hybrid":
        assert any(2 * x[0] == den for x in nums)
    table = pure._SignTable(spec, nums, den)
    closure = pure._SignTable(("callback", (pure.make_compare(spec),)), nums, den)
    assert table.mirrored and not closure.mirrored
    for i in range(len(nums)):
        assert table.row(i) == closure.row(i)
        assert table.col(i) == closure.col(i)


# ---- level kernels ------------------------------------------------------------------

LEVEL_REFERENCES = {**REFERENCES, "independence": ref_independence,
                    "mixture": ref_mixture}
PROBE_SCANS = ("mixture", "archimedean", "openness")
HUGE = 1 << 121  # far beyond any fixed-width integer


def represented(space, normal):
    base = (F(1, space.size),) * space.n
    return RepresentedOracle(space, Hyperplane(tuple(map(F, normal)), base), -1)


INVARIANT_KINDS = ("lex", "hybrid", "majority")
LEVEL_ORACLES = {
    3: {
        "eu": ORACLES[3]["eu"],
        "eu-037": lambda s: ExpectedUtilityOracle(UtilityFunction.of(s, [0, 3, 7])),
        "represented": lambda s: represented(s, (2, -5)),
        "eu-huge": lambda s: ExpectedUtilityOracle(
            UtilityFunction.of(s, [0, HUGE + 1, 3 * HUGE])),
        **{kind: ORACLES[3][kind] for kind in INVARIANT_KINDS},
    },
    4: {
        "eu": ORACLES[4]["eu"],
        "represented": lambda s: represented(s, (1, 0, -3)),
        "eu-huge": lambda s: ExpectedUtilityOracle(
            UtilityFunction.of(s, [-HUGE, 1, 5 * HUGE, 2 * HUGE])),
        **{kind: ORACLES[4][kind] for kind in INVARIANT_KINDS},
    },
}
LEVEL_GRIDS = [(3, 2), (3, 3), (4, 2)]
LEVEL_CASES = [(size, bound, name)
               for size, bound in LEVEL_GRIDS for name in LEVEL_ORACLES[size]]


def probe_floor(name, spec, den, bound):
    """The separation depth of a probe scan's own arguments: the
    largest candidate denominator, 2 * bound, for mixture, else 1."""
    return kernels.separation_depth(spec, den, 2 * bound if name == "mixture" else 1)


def level_scans(spec):
    """The scans a checker runs on the level path for spec's kind: each
    with a reference, and the solve contract's closed form for eu."""
    return [*LEVEL_REFERENCES, *(["solvability_solve"] if spec[0] == "eu" else [])]


def level_hits(oracle, grid):
    """{scan: (level hit, reference hit)} for every scan the level path
    runs for the oracle's kind, the probe scans at their separation
    depth."""
    lots, nums, den, spec = _encoded(oracle, grid)
    ref = Reference(oracle, lots)
    bound = grid.denominator_bound
    out = {}
    for name in level_scans(spec):
        if name == "solvability_solve":
            out[name] = (levels.scan_solvability_solve(
                spec, nums, den, solved_weight(oracle, lots)),
                ref_solve_contract(ref))
            continue
        depth = probe_floor(name, spec, den, bound) if name in PROBE_SCANS else DEPTH
        hit = getattr(levels, f"scan_{name}")(
            spec, nums, den, *kernel_args(name, bound, depth))
        out[name] = hit, LEVEL_REFERENCES[name](ref, bound, depth)
    return out


@pytest.mark.parametrize(
    "size,bound,oracle_name", LEVEL_CASES,
    ids=[f"{oracle}-{size}x{bound}" for size, bound, oracle in LEVEL_CASES])
def test_level_scans_match_reference(size, bound, oracle_name):
    space = OutcomeSpace.of_size(size)
    oracle = LEVEL_ORACLES[size][oracle_name](space)
    hits = level_hits(oracle, GridSpec(space, bound))
    # Ten scans for every kind, and eu's solve contract.
    assert len(hits) == (10 if oracle_name in INVARIANT_KINDS else 11)
    for name, (hit, expected) in hits.items():
        assert hit == expected, f"level {name} diverged"


@pytest.mark.parametrize(
    "size,bound,oracle_name", LEVEL_CASES,
    ids=[f"{oracle}-{size}x{bound}" for size, bound, oracle in LEVEL_CASES])
def test_level_probe_scans_refuse_depths_below_separation(size, bound, oracle_name):
    # Below the separation depth a probe can straddle a threshold, so a
    # None there would be a guess and a skipped candidate could hit: the
    # level probe scans refuse it.  Every encoded kind takes all three;
    # eu proves them, and lex, hybrid and majority answer as pure does
    # from the floor.
    space = OutcomeSpace.of_size(size)
    _, nums, den, spec = _encoded(LEVEL_ORACLES[size][oracle_name](space),
                                  GridSpec(space, bound))
    for name in PROBE_SCANS:
        scan = getattr(levels, f"scan_{name}")
        floor = probe_floor(name, spec, den, bound)
        for depth in {1, floor - 1}:
            with pytest.raises(ValueError, match=f"level probe depth {depth} is "
                                                 f"below the separation depth {floor}"):
                scan(spec, nums, den, *kernel_args(name, bound, depth))
        args = kernel_args(name, bound, floor)
        expected = (None if spec[0] == "eu"
                    else getattr(pure, f"scan_{name}")(spec, nums, den, *args))
        assert scan(spec, nums, den, *args) == expected
    with pytest.raises(ValueError, match=r"candidates must lie in \[0, 1\]"):
        levels.scan_mixture(spec, nums, den, [(3, 2)], 200)


@pytest.mark.parametrize(
    "size,bound,oracle_name", LEVEL_CASES,
    ids=[f"{oracle}-{size}x{bound}" for size, bound, oracle in LEVEL_CASES])
def test_level_weighted_scans_refuse_weights_outside_their_proofs(
        size, bound, oracle_name):
    # Independence's proof covers positive weights and betweenness's
    # those in [0, 1]; the checkers pass dyadic weights in (0, 1] and
    # (0, 1).  Outside them pure can hit where the level proof says
    # nothing, so the level scans refuse such a weight by name, wherever
    # it sits in the list, and answer as pure does on the checkers' own.
    space = OutcomeSpace.of_size(size)
    _, nums, den, spec = _encoded(LEVEL_ORACLES[size][oracle_name](space),
                                  GridSpec(space, bound))
    for name, bad in (("independence", [(0, 1), (-1, 2)]),
                      ("betweenness", [(-1, 2), (3, 2), (5, 4)])):
        scan = getattr(levels, f"scan_{name}")
        (args,) = kernel_args(name, bound)
        for a, b in bad:
            with pytest.raises(ValueError, match=f"level {name} weight {a}/{b} "):
                scan(spec, nums, den, [*args, (a, b)])
        assert scan(spec, nums, den, args) \
            == getattr(pure, f"scan_{name}")(spec, nums, den, args)


def test_level_cases_cover_hits_and_misses():
    # On the checkers' arguments betweenness and line-order never hit,
    # and every other scan must hit in some level case and miss in
    # another: eu hits only the candidate scan, and lex, hybrid and
    # majority the probe scans and the scans they read as rows or hand
    # to the pure walk.
    # The level hits stand for the reference's, which the test above
    # matches.
    seen = {name: set() for name in LEVEL_REFERENCES}
    for size, bound in ((3, 2), (4, 2)):
        space = OutcomeSpace.of_size(size)
        for make in LEVEL_ORACLES[size].values():
            _, nums, den, spec = _encoded(make(space), GridSpec(space, bound))
            for name in LEVEL_REFERENCES:
                depth = probe_floor(name, spec, den, bound)
                hit = getattr(levels, f"scan_{name}")(
                    spec, nums, den, *kernel_args(name, bound, depth))
                seen[name].add(hit is None)
    never = {"betweenness", "line_order"}
    assert {name for name, outcomes in seen.items() if outcomes == {True, False}} \
        == set(LEVEL_REFERENCES) - never, seen
    assert all(seen[name] == {True} for name in never)


def test_level_first_hits_on_pinned_weights():
    # Majority ties the vertex e_0 to every point on an edge from it, so
    # on this sub-grid rows 0 and 1 are all ties and the first
    # independence hit sits in row 2.  The weight 0 and a weight above 1
    # are the first to escape: pure finds them, and the level scans,
    # whose proofs cover only the checkers' weights, refuse them.
    nums, den = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)], 2
    spec = ("majority", ())
    for name, weights, expected, refused in (
            ("independence", [(1, 2), (0, 1), (-1, 2)], (2, 3, 0, 1),
             "independence weight 0/1 is not positive"),
            ("betweenness", [(1, 2), (1, 1), (3, 2), (-1, 2)], (3, 2, 2),
             r"betweenness weight 3/2 is outside \[0, 1\]")):
        assert getattr(pure, f"scan_{name}")(spec, nums, den, weights) == expected, name
        with pytest.raises(ValueError, match=refused):
            getattr(levels, f"scan_{name}")(spec, nums, den, weights)
        kept = weights[:1]
        assert getattr(levels, f"scan_{name}")(spec, nums, den, kept) \
            == getattr(pure, f"scan_{name}")(spec, nums, den, kept) is None, name


# (outcomes, bound, hybrid translation hit, majority convexity hit) on
# the benchmark's falsify-early grids.
WORKLOAD_HITS = [(3, 12, (4, 0, 5), (0, 1, 2, 2)),
                 (4, 8, (7, 0, 8), (0, 1, 2, 2)),
                 (5, 6, (11, 0, 12), (0, 1, 2, 2))]


@pytest.mark.parametrize("size,bound,translation,convexity", WORKLOAD_HITS,
                         ids=[f"{size}x{bound}" for size, bound, *_ in WORKLOAD_HITS])
def test_row_reads_pin_the_workload_first_hits(size, bound, translation, convexity):
    # Hybrid translation and majority convexity read threshold rows: the
    # level scans, the pure walk and the Fraction reference give the same
    # first hit on whole grids with denominators 60 to 27720.
    space = OutcomeSpace.of_size(size)
    grid = GridSpec(space, bound)
    for oracle, name, expected in ((HybridExampleOracle(space), "translation", translation),
                                   (MajorityOracle(space), "convexity", convexity)):
        lots, nums, den, spec = _encoded(oracle, grid)
        args = kernel_args(name, bound)
        assert getattr(levels, f"scan_{name}")(spec, nums, den, *args) == expected, name
        assert getattr(pure, f"scan_{name}")(spec, nums, den, *args) == expected, name
        assert REFERENCES[name](Reference(oracle, lots), bound, DEPTH) == expected, name


def test_row_reads_neither_walk_nor_compare(monkeypatch):
    # The rows cost no pure walk and no comparison of a mixture or a
    # translate, whatever the machine's speed: with both refused, the
    # level scans still find the workload's first hits.
    def refuse(*args):
        raise AssertionError("a row read walked the pure scan or compared")

    for module, name in ((pure, "scan_translation"), (pure, "scan_convexity"),
                         (levels, "make_compare")):
        monkeypatch.setattr(module, name, refuse)
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(5), 6)))
    assert levels.scan_translation(("hybrid", ()), nums, den) == (11, 0, 12)
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(3), 12)))
    assert levels.scan_convexity(("majority", ()), nums, den,
                                 kernel_args("convexity", 12)[0]) == (0, 1, 2, 2)


def test_level_mixture_skips_the_row_j_equals_i(monkeypatch):
    # With q = p every coordinate breakpoint of mix(p, r, alpha) - q sits
    # at alpha = 1, where the mixture is p and ties q, so the row j = i
    # never hits and the level scan mixes nothing in it.  Each mixture
    # the scan body builds (``levels._mix``; the probes mix through
    # ``pure._mix``) is compared with q next: record the pair, and p must
    # never be q.  The first hit stays pure's and the reference's.
    pending, pairs_seen = [], []
    mix_numerators, make = levels._mix, levels.make_compare

    def recording_mix(p, r, a, b):
        pending.append(p)
        return mix_numerators(p, r, a, b)

    def recording_compare(spec):
        cmp = make(spec)

        def compare(x, xd, y, yd):
            if pending:
                pairs_seen.append((pending.pop(), y))
            return cmp(x, xd, y, yd)
        return compare

    monkeypatch.setattr(levels, "_mix", recording_mix)
    monkeypatch.setattr(levels, "make_compare", recording_compare)
    space = OutcomeSpace.of_size(5)
    grid = GridSpec(space, 6)
    args = kernel_args("mixture", 6)
    for oracle in (HybridExampleOracle(space), LexicographicOracle(space)):
        lots, nums, den, spec = _encoded(oracle, grid)
        depth = probe_floor("mixture", spec, den, 6)
        pairs_seen.clear()
        hit = levels.scan_mixture(spec, nums, den, args[0], depth)
        assert pairs_seen and not pending
        assert all(p != q for p, q in pairs_seen), spec
        assert hit == (0, 1, 2, 1, -1)
        assert pure.scan_mixture(spec, nums, den, args[0], depth) == hit
        assert ref_mixture(Reference(oracle, lots), 6, depth) == hit


def simplex(size, den):
    """Every point of the simplex over den, as weight numerators."""
    return [x for x in product(range(den + 1), repeat=size) if sum(x) == den]


def reference_over(oracle, nums, den):
    """The reference for oracle on the lotteries nums/den."""
    space = oracle.space
    return Reference(oracle, [Lottery(space, tuple(F(x, den) for x in xs))
                              for xs in nums])


@pytest.mark.parametrize("nums,den,expected", [
    # An odd den puts no point on the plateau.
    (simplex(3, 3), 3, None),
    (simplex(4, 5), 5, None),
    # The plateau holds one point, whose class is itself.  With a second
    # one, (1, 0, 1)/2 ~ (1, 1, 0)/2 translates by e_1 - (1, 1, 0)/2 to
    # (0, 1, 1)/2, which lex ranks below e_1.
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)], 2, None),
    ([(2, 0, 0), (0, 2, 0), (1, 0, 1), (1, 1, 0)], 2, (3, 1, 2)),
    # Two plateau points, and every j off the plateau lacks the mass a
    # translate between them takes away from coordinate 1 or 2.
    ([(4, 0, 0), (3, 1, 0), (3, 0, 1), (2, 2, 0), (2, 0, 2)], 4, None),
], ids=["den3", "den5", "one-plateau-point", "two-plateau-points", "no-translate"])
def test_hybrid_translation_edges(nums, den, expected):
    spec = ("hybrid", ())
    assert levels.scan_translation(spec, nums, den) == expected
    assert pure.scan_translation(spec, nums, den) == expected
    oracle = HybridExampleOracle(OutcomeSpace.of_size(len(nums[0])))
    assert ref_translation(reference_over(oracle, nums, den), None, None) == expected


def test_majority_convexity_reads_any_weight():
    # The rows hold for every weight a/b with b > 0: a = 0 and a = b mix
    # onto a member and never hit, while a < 0 and a > b flip every sign
    # of the mixture minus i, which keeps majority's ties.  The first hit
    # takes the lowest failing k, then the lowest weight failing there.
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(3), 4)))
    spec = ("majority", ())
    for weights, expected in (([(0, 1)], None), ([(1, 1)], None),
                              ([(3, 2)], (0, 1, 2, 0)), ([(-1, 2)], (0, 1, 2, 0)),
                              ([(0, 1), (1, 1), (3, 2), (-1, 2)], (0, 1, 2, 2)),
                              ([(1, 1), (-1, 2), (3, 2)], (0, 1, 2, 1))):
        assert levels.scan_convexity(spec, nums, den, weights) == expected, weights
        assert pure.scan_convexity(spec, nums, den, weights) == expected, weights


def test_level_mixture_checks_every_probe_of_a_breakpoint():
    # Majority on 4 outcomes, p = (6,1,1,0)/8, q = (0,2,2,4)/8 and
    # r = (0,1,1,6)/8: the coordinates of mix(p, r, alpha) - q have
    # signs (0,-,-,+) at alpha = 0, (+,-,-,+) below 1/3 and (+,-,-,-)
    # from 1/3 on.  The breakpoint candidate 0 is below q and its nearest
    # probe 2^-depth is not, but the farther probe 1/2 is: no hit.
    spec = ("majority", ())
    nums, den = [(6, 1, 1, 0), (0, 2, 2, 4), (0, 1, 1, 6)], 8
    stars = [(0, 1), (1, 2), (1, 1)]
    depth = kernels.separation_depth(spec, den, 2)
    cmp = pure.make_compare(spec)
    p, q, r = nums
    assert [cmp(pure._mix(p, r, a, b), b * den, q, den)
            for a, b in ((0, 1), (1, 2 ** depth), (1, 2))] == [-1, 0, -1]
    assert levels.scan_mixture(spec, nums, den, stars, depth) is None
    assert pure.scan_mixture(spec, nums, den, stars, depth) is None


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_majority_mixture_on_three_outcomes_is_a_proof(bound):
    # At a breakpoint one coordinate of the mixture minus q is 0 and the
    # other two sum to 0, so majority ties there: the level scan returns
    # None unwalked, and pure's walk over every candidate agrees.
    space = OutcomeSpace.of_size(3)
    nums, den = kernels.encode_lotteries(enumerate_grid(GridSpec(space, bound)))
    spec = ("majority", ())
    stars = pairs(rationals_between(F(0), F(1), 2 * bound))
    depth = kernels.separation_depth(spec, den, 2 * bound)
    assert levels.scan_mixture(spec, nums, den, stars, depth) is None
    assert pure.scan_mixture(spec, nums, den, stars, depth) is None


def test_majority_mixture_on_four_outcomes_still_hits():
    # The lemma needs 3 outcomes: on 4, a breakpoint leaves three
    # nonzero coordinates, which need not tie, and the check finds a
    # violation, pure's first hit.
    space = OutcomeSpace.of_size(4)
    grid = GridSpec(space, 4)
    verdict = check_continuity(MajorityOracle(space), "mixture", grid)
    assert verdict.violated
    _, nums, den, spec = _encoded(MajorityOracle(space), grid)
    stars = pairs(rationals_between(F(0), F(1), 8))
    depth = verdict.budget.depth
    hit = levels.scan_mixture(spec, nums, den, stars, depth)
    assert hit is not None
    assert hit == pure.scan_mixture(spec, nums, den, stars, depth)


def test_level_archimedean_reads_every_probe():
    # Majority on 4 outcomes, grid 4 (den 12): p = (0,1/3,1/3,1/3),
    # q = (1/2,0,1/4,1/4) and r = (1,0,0,0) have p > q > r.  The beta
    # probe 1/2 puts q above mix(p, r, 1/2), and every deeper probe
    # leaves them tied, so a kernel that read only the deepest probe
    # would report beta; the alpha side holds from the probe 1/8 on.
    spec = ("majority", ())
    lots = enumerate_grid(GridSpec(OutcomeSpace.of_size(4), 4))
    nums, den = kernels.encode_lotteries(lots)
    p, q, r = (nums[i] for i in (13, 45, 3))
    assert [lots[i].weights for i in (13, 45, 3)] == [
        (0, F(1, 3), F(1, 3), F(1, 3)), (F(1, 2), 0, F(1, 4), F(1, 4)), (1, 0, 0, 0)]
    cmp = pure.make_compare(spec)
    assert cmp(p, den, q, den) == cmp(q, den, r, den) == 1
    depth = kernels.separation_depth(spec, den, 1)
    powers = [2 ** h for h in range(1, depth + 1)]
    assert [cmp(q, den, pure._mix(p, r, 1, P), P * den) for P in powers] \
        == [1] + [0] * (depth - 1)
    assert [cmp(pure._mix(p, r, P - 1, P), P * den, q, den) for P in powers] \
        == [-1, 0] + [1] * (depth - 2)
    for scan in (levels.scan_archimedean, pure.scan_archimedean):
        assert scan(spec, [p, q, r], den, depth) is None
    assert ref_archimedean(Reference(MajorityOracle(OutcomeSpace.of_size(4)),
                                     [lots[i] for i in (13, 45, 3)]), 4, depth) is None


def test_level_archimedean_reports_beta_when_both_sides_fail():
    # Majority on 4 outcomes, grid 3 (den 6): p = (0,1/3,1/3,1/3),
    # q = (2/3,0,0,1/3) and r = (0,0,1,0) have p > q > r, and every
    # probe ties q with both mixtures, so both sides fail at once; the
    # pure scan tests beta first for each r, so the hit is beta.
    spec = ("majority", ())
    nums, den = [(0, 2, 2, 2), (4, 0, 0, 2), (0, 0, 6, 0)], 6
    p, q, r = nums
    cmp = pure.make_compare(spec)
    assert cmp(p, den, q, den) == cmp(q, den, r, den) == 1
    depth = kernels.separation_depth(spec, den, 1)
    for P in (2 ** h for h in range(1, depth + 1)):
        assert cmp(q, den, pure._mix(p, r, 1, P), P * den) == 0
        assert cmp(pure._mix(p, r, P - 1, P), P * den, q, den) == 0
    for scan in (levels.scan_archimedean, pure.scan_archimedean):
        assert scan(spec, nums, den, depth) == (0, 1, 2, "beta")


# row -> (thresholds, sign, comparison): for the fixed pair p, q, the
# probe P and a grid point x, the comparison is the probe's; the probe
# row holds its signs times sign, as alpha's and openness's coordinates
# run x_c - t_c where beta's run t_c - x_c.  Openness reads alpha's
# thresholds with the pair swapped, as scan_openness does.
PROBE_ROWS = {
    "beta": (lambda p, q, P, den: levels._thresholds(q, p, P, 1, den), 1,
             lambda p, q, x, P, den, cmp:
             cmp(q, den, pure._mix(p, x, 1, P), P * den)),
    "alpha": (lambda p, q, P, den: levels._thresholds(q, p, P, P - 1, den), -1,
              lambda p, q, x, P, den, cmp:
              cmp(pure._mix(p, x, P - 1, P), P * den, q, den)),
    "openness": (lambda p, q, P, den: levels._thresholds(p, q, P, P - 1, den), -1,
                 lambda p, q, x, P, den, cmp:
                 cmp(pure._mix(x, q, 1, P), P * den, p, den)),
}


def assert_probe_row(spec, nums, den, row, i, j, h):
    """The probe row equals the row of signs a comparison closure gives
    against every grid point."""
    thresholds, sign, compare = PROBE_ROWS[row]
    p, q, P = nums[i], nums[j], 2 ** h
    cmp = pure.make_compare(spec)
    signs = [sign * compare(p, q, x, P, den, cmp) for x in nums]
    assert (pure.signs_from_coordinates(spec, nums)(*thresholds(p, q, P, den))
            == pure._masks(signs)), (row, i, j, h)


@pytest.mark.parametrize("spec", [("lex", (2, 0, 1)), ("hybrid", ()), ("majority", ())],
                         ids=lambda spec: spec[0])
def test_probe_rows_match_closure_rows_on_a_whole_grid(spec):
    # Every pair of the 3-outcome grid 3 (den 6) at the probes 1/2 to
    # 1/16, where thresholds are fractional, land on grid values, leave
    # [0, den], and, for hybrid, put the mixture on the plateau.
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(3), 3)))
    for row in PROBE_ROWS:
        for i in range(len(nums)):
            for j in range(len(nums)):
                for h in range(1, 5):
                    assert_probe_row(spec, nums, den, row, i, j, h)


@settings(max_examples=60, deadline=None)
@given(drawn=encoded_grids(), data=st.data(), h=st.integers(1, 12),
       row=st.sampled_from(sorted(PROBE_ROWS)))
def test_probe_rows_match_closure_rows(drawn, data, h, row):
    # Each probe row, at any probe P = 2^h, shallow ones included, on
    # drawn lex priorities, hybrid and majority over 2 to 5 outcomes:
    # gt, eq and lt, the ceiling and floor of beta's fractional
    # thresholds, and hybrid's plateau where the fixed side sits on it.
    spec, size, bound = drawn
    if spec[0] == "eu":
        spec = ("majority", ())
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(size), bound)))
    i, j = (data.draw(st.integers(0, len(nums) - 1)) for _ in range(2))
    assert_probe_row(spec, nums, den, row, i, j, h)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(3, 5), bound=st.integers(2, 4), data=st.data(),
       b=st.one_of(st.just(0), st.integers(0, 30)),
       step=st.one_of(st.just(1), st.integers(1, 30)))
def test_mixture_rows_match_closure_rows(size, bound, data, b, step):
    # levels._thresholds(x, y, a, b, den) is every level row of x
    # against mix(y, k, b/a): on drawn lex priorities, hybrid and
    # majority, at a > b >= 0 with a - b = 1 and b = 0 among them, and x
    # drawn from hybrid's plateau x_0 = 1/2 as often as from the grid.
    spec = data.draw(st.one_of(
        st.permutations(range(size)).map(lambda order: ("lex", tuple(order))),
        st.just(("hybrid", ())), st.just(("majority", ()))))
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(size), bound)))
    plateau = [x for x in nums if 2 * x[0] == den]
    x = data.draw(st.one_of(st.sampled_from(plateau), st.sampled_from(nums)))
    y = data.draw(st.sampled_from(nums))
    a = b + step
    cmp = pure.make_compare(spec)
    signs = [cmp(x, den, pure._mix(y, k, b, a), a * den) for k in nums]
    assert (pure.signs_from_coordinates(spec, nums)(*levels._thresholds(x, y, a, b, den))
            == pure._masks(signs))


PROBE_ROW_GRIDS = [(3, 4), (3, 5), (3, 6), (4, 3), (5, 2)]
PROBE_ROW_SPECS = [("lex", (0, 1, 2)), ("lex", (2, 0, 1)), ("hybrid", ()),
                   ("majority", ())]
PROBE_ROW_CASES = [(size, bound, spec) for size, bound in PROBE_ROW_GRIDS
                   for spec in PROBE_ROW_SPECS]


@pytest.mark.parametrize(
    "size,bound,spec", PROBE_ROW_CASES,
    ids=[f"{spec[0]}{''.join(map(str, spec[1]))}-{size}x{bound}"
         for size, bound, spec in PROBE_ROW_CASES])
def test_level_probe_rows_match_pure_on_whole_grids(size, bound, spec):
    # The archimedean and grid-openness probe rows on whole grids with
    # denominators 12 to 60, at the checker's own depth: the thresholds
    # leave [0, den] and repeat on the probes the rows skip, and the
    # first hits, None included, stay the pure scans'.
    if spec[0] == "lex":
        spec = ("lex", spec[1] + tuple(range(3, size)))
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(size), bound)))
    depth = max(DEFAULT_DEPTH, kernels.separation_depth(spec, den, 2 * bound))
    for name in ("archimedean", "openness"):
        assert (getattr(levels, f"scan_{name}")(spec, nums, den, depth)
                == getattr(pure, f"scan_{name}")(spec, nums, den, depth)), name


WEIGHTED_SCANS = ("independence", "betweenness", "convexity", "mixture",
                  "solvability_scan")
# scan -> the weights (a, b), b > 0, its level proof covers.
WEIGHT_RANGES = {"independence": lambda ab: ab[0] > 0,
                 "betweenness": lambda ab: 0 <= ab[0] <= ab[1]}
LEVEL_SPECS = {
    size: st.one_of(
        st.lists(st.integers(-(1 << 40), 1 << 40), min_size=size, max_size=size)
        .map(lambda payoffs: ("eu", tuple(payoffs))),
        st.permutations(range(size)).map(lambda order: ("lex", tuple(order))),
        st.just(("hybrid", ())),
        st.just(("majority", ())))
    for size in (3, 4, 5)
}


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([3, 4, 5]), bound=st.sampled_from([2, 3]), data=st.data(),
       extra=st.integers(0, 6),
       weights=st.lists(st.tuples(st.integers(-3, 6), st.integers(1, 4)), max_size=4))
def test_level_scans_match_pure(size, bound, data, extra, weights):
    # eu with drawn payoffs, lex with a drawn priority, hybrid and
    # majority, each on every scan, over a drawn sub-grid of 3 to
    # 5 outcomes: the checkers' own arguments, the probe scans from
    # their separation depth on, then the weighted scans on drawn
    # weights, which include a = 0, a < 0 and a > b.  Independence and
    # betweenness must match pure where their proofs hold (positive
    # weights, weights in [0, 1]) and refuse the rest, where pure can
    # hit.  The mixture's candidates stay in [0, 1], where its proof
    # holds, and each comes twice, as a/b and 2a/2b, in a drawn order:
    # the breakpoint kernel must let the first index win.
    if size > 3:
        bound = 2
    spec = data.draw(LEVEL_SPECS[size])
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(size), bound)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(nums), max_size=len(nums)))
    nums = [x for x, kept in zip(nums, keep) if kept]
    calls = [(name, kernel_args(name, bound,
                                probe_floor(name, spec, den, bound) + extra))
             for name in LEVEL_REFERENCES]
    stars = [(a, b) for a, b in weights if 0 <= a <= b]
    stars = data.draw(st.permutations(stars + [(2 * a, 2 * b) for a, b in stars]))
    star_floor = kernels.separation_depth(spec, den, max((b for _, b in stars), default=1))
    calls += [(name, (stars, star_floor + extra) if name == "mixture" else (weights,))
              for name in WEIGHTED_SCANS]
    for name, args in calls:
        if name in WEIGHT_RANGES and not all(map(WEIGHT_RANGES[name], args[0])):
            with pytest.raises(ValueError, match=f"level {name} weight"):
                getattr(levels, f"scan_{name}")(spec, nums, den, *args)
            continue
        assert (getattr(levels, f"scan_{name}")(spec, nums, den, *args)
                == getattr(pure, f"scan_{name}")(spec, nums, den, *args)), name


# ---- drawn non-eu oracles -----------------------------------------------------------

SCORES = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
NON_EU_ORACLES = st.one_of(
    st.permutations(range(3)).map(
        lambda order: lambda s: LexicographicOracle(s, tuple(order))),
    st.just(HybridExampleOracle),
    st.just(MajorityOracle),
    st.tuples(SCORES, SCORES).map(
        lambda lr: lambda s: ScoredOracle(s, *lr)),
)


@settings(max_examples=20, deadline=None)
@given(make=NON_EU_ORACLES, bound=st.sampled_from([2, 3]), depth=st.integers(1, 4))
def test_pure_scans_match_reference_on_drawn_oracles(make, bound, depth):
    # lex with a drawn priority, hybrid, majority and a callback oracle
    # with drawn score weights: the pure kernels against the reference
    # at a drawn probe depth, on the encoded or the callback path.  As
    # above, independence and mixture run on the small grid only.
    space = OutcomeSpace.of_size(3)
    oracle = make(space)
    lots, nums, den, spec = _encoded(oracle, GridSpec(space, bound))
    assert (spec[0] == "callback") == isinstance(oracle, ScoredOracle)
    ref = Reference(oracle, lots)
    for name, reference in (LEVEL_REFERENCES if bound == 2 else REFERENCES).items():
        hit = getattr(pure, f"scan_{name}")(
            spec, nums, den, *kernel_args(name, bound, depth))
        assert hit == reference(ref, bound, depth), f"{name} diverged"


@settings(max_examples=30, deadline=None)
@given(grid=st.sampled_from([(3, 2), (3, 3), (4, 2)]), data=st.data())
def test_pure_probe_hits_settle_at_separation_depth(grid, data):
    # lex with a drawn priority, hybrid and majority: from its
    # separation depth on, each probe scan's first hit (None included)
    # no longer moves with the depth.
    size, bound = grid
    spec = data.draw(st.one_of(
        st.permutations(range(size)).map(lambda order: ("lex", tuple(order))),
        st.just(("hybrid", ())),
        st.just(("majority", ()))))
    nums, den = kernels.encode_lotteries(
        enumerate_grid(GridSpec(OutcomeSpace.of_size(size), bound)))
    for name in PROBE_SCANS:
        scan = getattr(pure, f"scan_{name}")
        floor = probe_floor(name, spec, den, bound)
        assert (scan(spec, nums, den, *kernel_args(name, bound, floor))
                == scan(spec, nums, den, *kernel_args(name, bound, floor + 6))), name
