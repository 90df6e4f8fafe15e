"""Pure and level scan kernels against a brute-force Fraction-level
reference.

Each reference below is written from its scan's docstring: nested loops
over the grid in the pinned order (grid index, then candidate weight in
the order grids.py pins), asking ``oracle.compare`` about Fraction
lotteries built with ``lotteries.mix``.  It shares no code with the
kernels beyond the grid and weight enumerations, so the first hit the
two agree on (None included) is computed twice, independently.

The pure kernels run every oracle; the level kernels run the eu and
represented ones, including payoffs beyond the compiled envelope.  Both
run whether or not the compiled extension is built, so this suite
checks the scan algorithms wherever the tests run.  Hypothesis tests
then hold the level kernels to the pure ones on drawn payoffs, the
pure kernels to the reference on drawn lex, hybrid, majority and
callback oracles, the sign rows built from thresholds to the rows a
comparison closure fills, and the pure probe scans' first hits to stay
put from the separation depth on.  The level probe scans run only
from their separation depth; below it they refuse.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotpref import _kernels as kernels
from lotpref._kernels import levels, pure
from lotpref.axioms import _encoded
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
    compare(lots[i], lots[j]), asked once per ordered pair; ``sign``
    asks the oracle about any other pair."""

    def __init__(self, oracle, lots):
        self.oracle = oracle
        self.lots = lots
        self.grid = [[oracle.compare(p, q).sign for q in lots] for p in lots]

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
                    checks = [(q, point, kernels.LINE_Q_BEATS_POINT)]
                elif t < 1:
                    checks = [(p, point, kernels.LINE_P_BEATS_POINT),
                              (point, q, kernels.LINE_POINT_BEATS_Q)]
                else:
                    checks = [(point, p, kernels.LINE_POINT_BEATS_P)]
                for first, second, code in checks:
                    if s(first, second) != 1:
                        return (i, j, t.numerator, t.denominator, code)
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
            return (i, j, k, kernels.ARCH_SIDE_BETA)
        if not any(s(mix(p, r, 1 - step), q) > 0 for step in steps):
            return (i, j, k, kernels.ARCH_SIDE_ALPHA)
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
SOLVE_CASES = [(size, bound, name)
               for size, bound in GRIDS for name in SOLVERS[size]]


@pytest.mark.parametrize(
    "size,bound,solver", SOLVE_CASES,
    ids=[f"{name}-{size}x{bound}" for size, bound, name in SOLVE_CASES])
def test_solve_contract_scans_match_reference(size, bound, solver):
    # eu takes the closed form; the callback solvers take the walk with
    # the weight from the oracle's own solve(), as check_continuity does.
    space = OutcomeSpace.of_size(size)
    oracle = SOLVERS[size][solver](space)
    lots, nums, den, spec = _encoded(oracle, GridSpec(space, bound))
    if spec[0] == "eu":
        hit = levels.scan_solvability_solve(list(spec[1]), nums, den)
    else:
        def weight(i, j, k):
            alpha = oracle.solve(lots[i], lots[j], lots[k])
            return alpha.numerator, alpha.denominator

        hit = pure.scan_solve_contract(spec, nums, den, weight)
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
HUGE = 1 << 121  # beyond the compiled path's 2^120 envelope


def represented(space, normal):
    base = (F(1, space.size),) * space.n
    return RepresentedOracle(space, Hyperplane(tuple(map(F, normal)), base), -1)


LEVEL_ORACLES = {
    3: {
        "eu": ORACLES[3]["eu"],
        "eu-037": lambda s: ExpectedUtilityOracle(UtilityFunction.of(s, [0, 3, 7])),
        "represented": lambda s: represented(s, (2, -5)),
        "eu-huge": lambda s: ExpectedUtilityOracle(
            UtilityFunction.of(s, [0, HUGE + 1, 3 * HUGE])),
    },
    4: {
        "eu": ORACLES[4]["eu"],
        "represented": lambda s: represented(s, (1, 0, -3)),
        "eu-huge": lambda s: ExpectedUtilityOracle(
            UtilityFunction.of(s, [-HUGE, 1, 5 * HUGE, 2 * HUGE])),
    },
}
LEVEL_GRIDS = [(3, 2), (3, 3), (4, 2)]
LEVEL_CASES = [(size, bound, name)
               for size, bound in LEVEL_GRIDS for name in LEVEL_ORACLES[size]]


def probe_floor(name, spec, den, bound):
    """The separation depth of a probe scan's own arguments: the
    largest candidate denominator, 2 * bound, for mixture, else 1."""
    return kernels.separation_depth(spec, den, 2 * bound if name == "mixture" else 1)


def level_hits(oracle, grid):
    """{scan: (level hit, reference hit)} for every scan on the level
    path, the probe scans at their separation depth."""
    lots, nums, den, spec = _encoded(oracle, grid)
    assert spec[0] == "eu"
    ref = Reference(oracle, lots)
    bound = grid.denominator_bound
    out = {}
    for name, reference in LEVEL_REFERENCES.items():
        depth = probe_floor(name, spec, den, bound) if name in PROBE_SCANS else DEPTH
        hit = getattr(levels, f"scan_{name}")(
            spec, nums, den, *kernel_args(name, bound, depth))
        out[name] = hit, reference(ref, bound, depth)
    out["solvability_solve"] = (
        levels.scan_solvability_solve(list(spec[1]), nums, den),
        ref_solve_contract(ref))
    return out


@pytest.mark.parametrize(
    "size,bound,oracle_name", LEVEL_CASES,
    ids=[f"{oracle}-{size}x{bound}" for size, bound, oracle in LEVEL_CASES])
def test_level_scans_match_reference(size, bound, oracle_name):
    space = OutcomeSpace.of_size(size)
    oracle = LEVEL_ORACLES[size][oracle_name](space)
    for name, (hit, expected) in level_hits(oracle, GridSpec(space, bound)).items():
        assert hit == expected, f"level {name} diverged"


@pytest.mark.parametrize(
    "size,bound,oracle_name", LEVEL_CASES,
    ids=[f"{oracle}-{size}x{bound}" for size, bound, oracle in LEVEL_CASES])
def test_level_probe_scans_refuse_depths_below_separation(size, bound, oracle_name):
    # Below the separation depth a probe can straddle a threshold, so a
    # None there would be a guess: the level probe scans refuse it.
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
        assert scan(spec, nums, den, *kernel_args(name, bound, floor)) is None
    with pytest.raises(ValueError, match=r"candidates must lie in \[0, 1\]"):
        levels.scan_mixture(spec, nums, den, [(3, 2)], 200)


def test_level_cases_cover_hits_and_misses():
    # Only the candidate scan can hit an eu oracle on the checkers'
    # arguments; it must hit in some level case and miss in another.
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
    can_hit = {"solvability_scan"}
    assert {name for name, outcomes in seen.items() if outcomes == {True, False}} \
        == can_hit, seen
    assert all(seen[name] == {True} for name in seen if name not in can_hit)


WEIGHTED_SCANS = ("independence", "betweenness", "convexity", "mixture",
                  "solvability_scan")


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([3, 4]), bound=st.sampled_from([2, 3]),
       payoffs=st.lists(st.integers(-(1 << 40), 1 << 40), min_size=4, max_size=4),
       extra=st.integers(0, 6),
       weights=st.lists(st.tuples(st.integers(-3, 6), st.integers(1, 4)), max_size=4))
def test_level_scans_match_pure(size, bound, payoffs, extra, weights):
    # The checkers' own arguments, the probe scans from their separation
    # depth on, then the weighted scans on drawn weights, some outside
    # [0, 1], where independence and betweenness can hit an eu oracle.
    # The mixture's candidates stay in [0, 1], where its proof holds.
    if size == 4:
        bound = 2
    lots = enumerate_grid(GridSpec(OutcomeSpace.of_size(size), bound))
    nums, den = kernels.encode_lotteries(lots)
    spec = ("eu", tuple(payoffs[:size]))
    calls = [(name, kernel_args(name, bound,
                                probe_floor(name, spec, den, bound) + extra))
             for name in LEVEL_REFERENCES]
    stars = [(a, b) for a, b in weights if 0 <= a <= b]
    star_floor = kernels.separation_depth(spec, den, max((b for _, b in stars), default=1))
    calls += [(name, (stars, star_floor + extra) if name == "mixture" else (weights,))
              for name in WEIGHTED_SCANS]
    for name, args in calls:
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
