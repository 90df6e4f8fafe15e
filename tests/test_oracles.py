from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lotpref.errors import (
    LengthMismatch,
    NoSolveCapability,
    PreconditionViolated,
    SpaceMismatch,
    UnorientedRepresentation,
)
from lotpref.geometry import Hyperplane
from lotpref.lotteries import (
    OutcomeSpace,
    degenerate,
    embed,
    make_lottery,
    mix,
    uniform,
)
from lotpref.oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    RepresentedOracle,
    UtilityFunction,
    expected_utility,
)

F = Fraction
SPACE = OutcomeSpace.of_size(3)
U012 = UtilityFunction.of(SPACE, [0, 1, 2])


def lot(*weights):
    return make_lottery(SPACE, list(weights))


@st.composite
def lotteries(draw, size=3):
    space = OutcomeSpace.of_size(size)
    den = draw(st.integers(1, 24))
    cuts = sorted(
        draw(st.lists(st.integers(0, den), min_size=size - 1, max_size=size - 1))
    )
    bounds = [0] + cuts + [den]
    weights = [F(bounds[i + 1] - bounds[i], den) for i in range(size)]
    return make_lottery(space, weights)


def test_comparison_result_signs():
    assert ComparisonResult.STRICTLY_BETTER.sign == 1
    assert ComparisonResult.INDIFFERENT.sign == 0
    assert ComparisonResult.STRICTLY_WORSE.sign == -1
    for r in ComparisonResult:
        assert ComparisonResult.from_sign(r.sign) is r
    assert ComparisonResult.from_sign(7) is ComparisonResult.STRICTLY_BETTER
    assert ComparisonResult.STRICTLY_BETTER.weakly_better
    assert ComparisonResult.INDIFFERENT.weakly_better
    assert not ComparisonResult.STRICTLY_WORSE.weakly_better


def test_utility_function_validation():
    with pytest.raises(LengthMismatch):
        UtilityFunction.of(SPACE, [0, 1])
    assert UtilityFunction.of(SPACE, ["1/2", 1, 2]).values == (F(1, 2), F(1), F(2))


@pytest.mark.parametrize("bad", [0.1, "1"])
def test_utility_function_rejects_inexact_payoffs(bad):
    space = OutcomeSpace.of_size(2)
    with pytest.raises(ValueError, match=f"not an exact rational: {bad!r}"):
        UtilityFunction(space, (bad, 1))
    with pytest.raises(ValueError, match="not an exact rational"):
        UtilityFunction(space, (F(0), bad))


def test_expected_utility():
    assert expected_utility(U012, uniform(SPACE)) == 1
    assert expected_utility(U012, lot("1/2", 0, "1/2")) == 1
    assert expected_utility(U012, degenerate(SPACE, 2)) == 2
    with pytest.raises(SpaceMismatch):
        expected_utility(U012, uniform(OutcomeSpace.of_size(4)))


def test_eu_compare():
    oracle = ExpectedUtilityOracle(U012)
    assert oracle.kind == "eu"
    assert oracle.has_solve
    better = oracle.compare(degenerate(SPACE, 2), degenerate(SPACE, 0))
    assert better is ComparisonResult.STRICTLY_BETTER
    tie = oracle.compare(lot("1/2", 0, "1/2"), degenerate(SPACE, 1))
    assert tie is ComparisonResult.INDIFFERENT
    with pytest.raises(SpaceMismatch):
        oracle.compare(uniform(SPACE), uniform(OutcomeSpace.of_size(2)))


def test_eu_solve_frozen():
    oracle = ExpectedUtilityOracle(U012)
    alpha = oracle.solve(degenerate(SPACE, 2), lot("1/2", 0, "1/2"), degenerate(SPACE, 0))
    assert alpha == F(1, 2)
    # Flat segment: every mixture matches q, so the answer is pinned at 1.
    flat = oracle.solve(lot("1/2", 0, "1/2"), degenerate(SPACE, 1), lot(0, 1, 0))
    assert flat == 1


def test_eu_solve_precondition():
    oracle = ExpectedUtilityOracle(U012)
    with pytest.raises(PreconditionViolated):
        oracle.solve(degenerate(SPACE, 0), uniform(SPACE), degenerate(SPACE, 2))
    with pytest.raises(PreconditionViolated):
        oracle.solve(degenerate(SPACE, 2), degenerate(SPACE, 0), uniform(SPACE))


@given(lotteries(), lotteries(), st.integers(0, 8))
def test_eu_solve_hits_indifference(p, r, num):
    oracle = ExpectedUtilityOracle(U012)
    if not oracle.compare(p, r).weakly_better:
        p, r = r, p
    q = mix(p, r, F(num, 8))
    alpha = oracle.solve(p, q, r)
    assert 0 <= alpha <= 1
    assert oracle.compare(mix(p, r, alpha), q) is ComparisonResult.INDIFFERENT


def test_represented_oracle_matches_eu():
    # Same ranking as u = (0, 1, 2) expressed through its level set.
    plane = Hyperplane((F(1), F(2)), (F(1, 3), F(1, 3)))
    rep = RepresentedOracle(SPACE, plane, 1)
    flipped = RepresentedOracle(SPACE, plane, -1)
    eu = ExpectedUtilityOracle(U012)
    probes = [
        degenerate(SPACE, 0),
        degenerate(SPACE, 1),
        degenerate(SPACE, 2),
        uniform(SPACE),
        lot("1/2", "1/2", 0),
        lot("1/4", "1/4", "1/2"),
    ]
    for a in probes:
        for b in probes:
            want = eu.compare(a, b)
            assert rep.compare(a, b) is want
            assert flipped.compare(a, b) is ComparisonResult.from_sign(-want.sign)


def test_represented_oracle_validation():
    plane = Hyperplane((F(1), F(2)), (F(1, 3), F(1, 3)))
    with pytest.raises(UnorientedRepresentation):
        RepresentedOracle(SPACE, plane, 0)
    with pytest.raises(SpaceMismatch):
        RepresentedOracle(OutcomeSpace.of_size(4), plane, 1)
    with pytest.raises(ValueError, match="not an exact rational: 0.5"):
        RepresentedOracle(SPACE, Hyperplane((F(1), 0.5), (F(0), F(0))), 1)


def test_lexicographic_compare():
    oracle = LexicographicOracle(SPACE)
    assert oracle.priority == (0, 1, 2)
    assert not oracle.has_solve
    a = lot("1/2", "1/2", 0)
    b = lot("1/2", 0, "1/2")
    assert oracle.compare(a, b) is ComparisonResult.STRICTLY_BETTER
    assert oracle.compare(b, a) is ComparisonResult.STRICTLY_WORSE
    assert oracle.compare(a, a) is ComparisonResult.INDIFFERENT
    # Flipping the priority flips the verdict for this pair.
    reversed_oracle = LexicographicOracle(SPACE, (2, 0, 1))
    assert reversed_oracle.compare(a, b) is ComparisonResult.STRICTLY_WORSE
    with pytest.raises(NoSolveCapability):
        oracle.solve(a, a, b)


def test_lexicographic_priority_validation():
    with pytest.raises(LengthMismatch):
        LexicographicOracle(SPACE, (0, 1))
    with pytest.raises(LengthMismatch):
        LexicographicOracle(SPACE, (0, 1, 1))


def test_hybrid_plateau_and_fallback():
    oracle = HybridExampleOracle(SPACE)
    assert not oracle.has_solve
    on_a = lot("1/2", "1/2", 0)
    on_b = lot("1/2", 0, "1/2")
    off = uniform(SPACE)
    assert oracle.compare(on_a, on_b) is ComparisonResult.INDIFFERENT
    assert oracle.compare(on_b, on_a) is ComparisonResult.INDIFFERENT
    # One foot off the plateau and the lexicographic order takes over.
    assert oracle.compare(on_a, off) is ComparisonResult.STRICTLY_BETTER
    assert oracle.compare(off, on_a) is ComparisonResult.STRICTLY_WORSE
    with pytest.raises(NoSolveCapability):
        oracle.solve(on_a, on_b, off)


def test_majority_cycle():
    oracle = MajorityOracle(SPACE)
    a = lot("2/3", "1/3", 0)
    b = lot("1/3", 0, "2/3")
    c = lot(0, "2/3", "1/3")
    assert oracle.compare(a, b) is ComparisonResult.STRICTLY_BETTER
    assert oracle.compare(b, c) is ComparisonResult.STRICTLY_BETTER
    assert oracle.compare(c, a) is ComparisonResult.STRICTLY_BETTER
    assert oracle.compare(a, a) is ComparisonResult.INDIFFERENT


@given(lotteries(), lotteries())
def test_compare_is_antisymmetric(p, q):
    for oracle in (
        ExpectedUtilityOracle(U012),
        LexicographicOracle(SPACE),
        HybridExampleOracle(SPACE),
        MajorityOracle(SPACE),
    ):
        assert oracle.compare(p, q).sign == -oracle.compare(q, p).sign


# ---- the integer gauge against Fraction levels -------------------------------

# Small rationals such as 1/3, negatives, and magnitudes near 2^70.
RATIONALS = st.builds(
    F,
    st.integers(-9, 9) | st.integers(2**70 - 9, 2**70 + 9)
    | st.integers(-2**70 - 9, -2**70 + 9),
    st.integers(1, 6))


def sign(x):
    return (x > 0) - (x < 0)


def reference_solve(level, p, q, r):
    top, mid, bot = level(p), level(q), level(r)
    return F(1) if top == bot else (mid - bot) / (top - bot)


@given(st.data())
def test_linear_oracles_match_fraction_levels(data):
    size = data.draw(st.integers(2, 5))
    space = OutcomeSpace.of_size(size)
    utility = UtilityFunction(space, tuple(
        data.draw(RATIONALS) for _ in range(size)))
    normal = tuple(data.draw(RATIONALS) for _ in range(size - 1))
    assume(any(normal))
    plane = Hyperplane(normal, tuple(
        data.draw(RATIONALS) for _ in range(size - 1)))
    orientation = data.draw(st.sampled_from((-1, 1)))
    cases = (
        (ExpectedUtilityOracle(utility),
         lambda x: expected_utility(utility, x)),
        (RepresentedOracle(space, plane, orientation),
         lambda x: orientation * plane.level(embed(x).coords)),
    )
    lots = [data.draw(lotteries(size)) for _ in range(3)]
    lots.append(mix(lots[0], lots[1], F(data.draw(st.integers(0, 8)), 8)))
    lots.append(degenerate(space, data.draw(st.integers(0, size - 1))))
    for oracle, level in cases:
        for a in lots:
            for b in lots:
                assert oracle.compare(a, b) is ComparisonResult.from_sign(
                    sign(level(a) - level(b)))
        for p, q, r in ((a, b, c) for a in lots for b in lots for c in lots
                        if level(a) >= level(b) >= level(c)):
            alpha = oracle.solve(p, q, r)
            assert type(alpha) is F
            assert alpha == reference_solve(level, p, q, r)
