"""check_ip against a plain greedy loop, and the call counts the scans
must keep.

``ref_check_ip`` is the greedy search written directly: each lot asks
``oracle.compare`` against every class representative in turn and
joins the first it is indifferent to.
``check_ip`` reads the same indifferences off the sign table's eq bits
for an encoded oracle and must return the same verdict, byte for byte,
on every oracle; for a callback oracle it must not ask more.

The cost guards count calls, not time, so a fall-back to per-point
comparisons fails on any machine.
"""

from fractions import Fraction

import pytest

from lotpref import oracles
from lotpref._kernels import pure
from lotpref.axioms import (
    AxiomVerdict,
    Budget,
    IPExhausted,
    IPFound,
    _encoded,
    _greedy_classes,
    check_continuity,
    check_ip,
)
from lotpref.geometry import AffineBasis, affine_rank
from lotpref.grids import GridSpec, enumerate_grid
from lotpref.lotteries import OutcomeSpace, embed
from lotpref.oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    UtilityFunction,
)
from lotpref.scenario import verdict_to_json
from test_scan_reference import ScoredOracle, represented, skewed

INDIFF = ComparisonResult.INDIFFERENT


def ref_check_ip(oracle, grid, lots):
    """The greedy IP search over ``lots``, asking the oracle directly."""
    n = grid.space.n
    budget = Budget(grid=grid)
    classes, hulls, best_size = [], {}, 0
    for lot in lots:
        for k, span in enumerate(classes):
            if oracle.compare(lot, span[0]) is INDIFF:
                if k not in hulls:
                    hulls[k] = AffineBasis(embed(span[0]).coords)
                if hulls[k].add(embed(lot).coords):
                    span.append(lot)
                break
        else:
            span = [lot]
            classes.append(span)
        best_size = max(best_size, len(span))
        if len(span) == n:
            points = tuple(span)
            pairwise = all(oracle.compare(points[a], points[b]) is INDIFF
                           for a in range(n) for b in range(a + 1, n))
            if pairwise and affine_rank([embed(x).coords for x in points]) == n - 1:
                return AxiomVerdict("ip", False, budget, found=IPFound(points, n - 1))
    witness = IPExhausted(grid_size=len(lots), classes=len(classes),
                          best_size=best_size)
    return AxiomVerdict("ip", True, budget, witness=witness)


class TriangleOracle(LexicographicOracle):
    """Lexicographic, except that the vertex pairs (0, 1), (1, 2),
    (2, 3) and (1, 3), by grid index at bound 1, are indifferent:
    vertices 1, 2 and 3 are mutually indifferent, but greedy classes
    keyed on vertex 0 never see it."""

    PAIRS = {(0, 1), (1, 2), (2, 3), (1, 3)}

    def __init__(self, space):
        super().__init__(space)
        self.vertices = enumerate_grid(GridSpec(space, 1))

    def compare(self, p, q):
        if p in self.vertices and q in self.vertices:
            pair = tuple(sorted((self.vertices.index(p), self.vertices.index(q))))
            if pair in self.PAIRS:
                return ComparisonResult.INDIFFERENT
        return super().compare(p, q)


ORACLES = {
    "lex": lambda s: LexicographicOracle(s),
    "lex-reversed": lambda s: LexicographicOracle(s, tuple(reversed(range(s.size)))),
    "hybrid": HybridExampleOracle,
    "majority": MajorityOracle,
    "eu": lambda s: ExpectedUtilityOracle(
        UtilityFunction.of(s, [0, 1, 3, 4, 6][:s.size])),
    "eu-flat": lambda s: ExpectedUtilityOracle(
        UtilityFunction.of(s, [2, 2, 5, 5, 5][:s.size])),
    "represented": lambda s: represented(s, (2, -5, 1, 3)[:s.n]),
    "skewed": skewed,
    "scored": lambda s: ScoredOracle(s, [1, 0, 2, 1, 1][:s.size],
                                     [1, 0, 2, 0, 1][:s.size]),
}
GRIDS = [(2, 4), (3, 2), (3, 4), (4, 2), (4, 3), (5, 2)]
CASES = [(size, bound, name) for size, bound in GRIDS for name in ORACLES]


@pytest.mark.parametrize("size,bound,name", CASES,
                         ids=[f"{name}-{size}x{bound}" for size, bound, name in CASES])
def test_check_ip_matches_the_greedy_reference(size, bound, name):
    space = OutcomeSpace.of_size(size)
    oracle = ORACLES[name](space)
    grid = GridSpec(space, bound)
    expected = ref_check_ip(oracle, grid, enumerate_grid(grid))
    verdict = check_ip(oracle, grid)
    assert verdict == expected
    assert verdict_to_json(verdict) == verdict_to_json(expected)


ENCODED = ("lex", "lex-reversed", "hybrid", "majority", "eu", "eu-flat", "represented")


@pytest.mark.parametrize("size,bound", GRIDS, ids=[f"{s}x{b}" for s, b in GRIDS])
def test_bitset_classes_match_the_lazy_classes(size, bound):
    # The whole class list, not only the verdict, which often stops
    # early: majority is intransitive, so a lot indifferent to two
    # representatives must still join the first.
    space = OutcomeSpace.of_size(size)
    for name in ENCODED:
        oracle = ORACLES[name](space)
        _, nums, den, spec = _encoded(oracle, GridSpec(space, bound))
        assert spec[0] != "callback"
        bitsets = list(_greedy_classes(nums, den, spec))
        callback = ("callback", (pure.make_compare(spec),))
        lazy = list(_greedy_classes(nums, den, callback))
        assert bitsets == lazy, name


def test_triangle_oracle_is_still_reported_exhausted():
    # ROADMAP item 2: vertices 1, 2 and 3 span the indifference plane,
    # but greedy classes are complete only for a transitive relation.
    # The sign table changes how classes are read, not what they are.
    space = OutcomeSpace.of_size(4)
    grid = GridSpec(space, 1)
    oracle = TriangleOracle(space)
    verdict = check_ip(oracle, grid)
    assert verdict.violated
    assert verdict.witness == IPExhausted(grid_size=4, classes=2, best_size=2)
    assert verdict == ref_check_ip(oracle, grid, enumerate_grid(grid))


# ---- cost guards ---------------------------------------------------------------


@pytest.fixture
def compare_calls(monkeypatch):
    """{class name: calls} of every built-in oracle's compare."""
    calls = {}
    for cls in (oracles._LevelOracle, LexicographicOracle, HybridExampleOracle,
                MajorityOracle):
        def counted(self, p, q, _compare=cls.compare, _name=cls.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            return _compare(self, p, q)

        monkeypatch.setattr(cls, "compare", counted)
    return calls


def test_encoded_check_ip_asks_only_the_pairwise_recheck(compare_calls):
    # n4d8 as in the benchmark: 407 grid points.  Lex puts every point
    # in a class of its own, so no span reaches n and nothing is
    # re-checked: the old greedy loop asked 82,621 times.  eu finds a
    # spanning set at its first re-check, which asks each of its n
    # points' pairs once.
    space = OutcomeSpace.of_size(4)
    grid = GridSpec(space, 8)
    verdict = check_ip(LexicographicOracle(space), grid)
    assert verdict.witness == IPExhausted(grid_size=407, classes=407, best_size=1)
    assert compare_calls == {}
    n = space.n
    verdict = check_ip(ExpectedUtilityOracle(UtilityFunction.of(space, [0, 1, 3, 4])),
                       grid)
    assert not verdict.violated
    assert compare_calls == {"_LevelOracle": n * (n - 1) // 2}


def test_majority_solvability_compares_only_off_the_grid(monkeypatch):
    # The sign rows come from coordinate thresholds, and the weights 0
    # and 1 settle every triple with an indifference, so the closure
    # runs only on mixtures the endpoints do not settle: 117 calls to
    # the first hit, where per-point rows took 138,785.
    calls = [0]
    make_compare = pure.make_compare

    def counting(spec):
        cmp = make_compare(spec)

        def counted(*args):
            calls[0] += 1
            return cmp(*args)

        return counted

    monkeypatch.setattr(pure, "make_compare", counting)
    space = OutcomeSpace.of_size(4)
    verdict = check_continuity(MajorityOracle(space), "solvability",
                               GridSpec(space, 8))
    assert verdict.violated
    assert verdict.witness.r.weights == (0, 0, Fraction(1, 5), Fraction(4, 5))
    assert calls[0] <= 117


class CountedScored(ScoredOracle):
    """A scored oracle that counts its comparisons."""

    calls = 0

    def compare(self, p, q):
        self.calls += 1
        return super().compare(p, q)


@pytest.mark.parametrize("name", ["skewed", "scored"])
def test_callback_check_ip_asks_no_more_than_the_reference(name):
    # A callback oracle is asked lazily, lot by lot, as the greedy loop
    # asks; reading its classes off a sign table would cost g calls per
    # representative.
    space = OutcomeSpace.of_size(4)
    grid = GridSpec(space, 3)
    scores = ORACLES[name](space)
    reference = CountedScored(space, scores.left, scores.right)
    expected = ref_check_ip(reference, grid, enumerate_grid(grid))
    counted = CountedScored(space, scores.left, scores.right)
    assert check_ip(counted, grid) == expected
    assert 0 < counted.calls <= reference.calls
