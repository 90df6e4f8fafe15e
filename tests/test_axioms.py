from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lotpref import _kernels as kernels
from lotpref.axioms import (
    CONTINUITY_KINDS,
    ArchimedeanWitness,
    BetweennessWitness,
    CycleWitness,
    IndependenceWitness,
    IPExhausted,
    MixtureWitness,
    OpennessWitness,
    SolvabilityScanWitness,
    check_continuity,
    check_convexity,
    check_independence,
    check_ip,
    check_line_order,
    check_translation,
    check_weak_order,
)
from lotpref.errors import AlphaOutOfRange
from lotpref.geometry import Hyperplane
from lotpref.grids import GridSpec, enumerate_grid
from lotpref.lotteries import OutcomeSpace, make_lottery
from lotpref.oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    RepresentedOracle,
    UtilityFunction,
)
from lotpref.representation import ElicitationInput, elicit

F = Fraction
SPACE = OutcomeSpace.of_size(3)
EU = ExpectedUtilityOracle(UtilityFunction.of(SPACE, [0, 1, 2]))
HYBRID = HybridExampleOracle(SPACE)
LEX = LexicographicOracle(SPACE)
MAJORITY = MajorityOracle(SPACE)

GRID4 = GridSpec(SPACE, 4)
GRID6 = GridSpec(SPACE, 6)


def lot(*weights):
    return make_lottery(SPACE, list(weights))


# ---- a compliant oracle passes everything -----------------------------------


def test_eu_satisfies_weak_order_and_independence():
    assert check_weak_order(EU, GRID4).no_violation_found
    assert check_independence(EU, GRID4).no_violation_found
    assert check_independence(EU, GRID4, variant="betweenness").no_violation_found


def test_eu_satisfies_all_continuity_kinds():
    for kind in ("grid-openness", "mixture", "archimedean", "solvability"):
        verdict = check_continuity(EU, kind, GRID4)
        assert verdict.no_violation_found, kind
    assert check_continuity(EU, "solvability", GRID4).route == "solve-contract"


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from([(3, 2), (3, 3), (4, 2)]), depth=st.integers(1, 24),
       data=st.data())
def test_linear_oracles_satisfy_every_continuity_kind(grid, depth, data):
    # Expected utility satisfies every continuity kind however close a
    # threshold sits to a candidate weight: the probe kinds run from the
    # separation depth (2 * 2d * den * payoff span).bit_length() on, and
    # the budget records the depth used.
    size, bound = grid
    space = OutcomeSpace.of_size(size)
    payoffs = data.draw(st.lists(st.integers(-(1 << 40), 1 << 40),
                                 min_size=size, max_size=size))
    if data.draw(st.booleans(), label="represented"):
        assume(any(payoffs[1:]))
        plane = Hyperplane(tuple(map(F, payoffs[1:])), (F(1, size),) * space.n)
        oracle = RepresentedOracle(space, plane, data.draw(st.sampled_from([1, -1])))
    else:
        oracle = ExpectedUtilityOracle(UtilityFunction.of(space, payoffs))
    span = max(oracle.gauge) - min(oracle.gauge)
    floor = (2 * 2 * bound * lcm(*range(1, bound + 1)) * span).bit_length()
    for kind in CONTINUITY_KINDS:
        verdict = check_continuity(oracle, kind, GridSpec(space, bound), depth)
        assert verdict.no_violation_found, kind
        if kind != "solvability":
            assert verdict.budget.depth == max(depth, floor), kind


class CallbackEU(ExpectedUtilityOracle):
    """Expected utility through the callback path: the encoder refuses
    subclasses."""


def test_callback_oracles_keep_the_requested_depth():
    # A callback oracle has no threshold bound, so its probes stay at
    # the requested depth, and a threshold closer than 2^-depth reads as
    # a violation: the hit is only as deep as the probes.
    oracle = CallbackEU(UtilityFunction.of(SPACE, [0, 1, 10**7]))
    assert kernels.encode_oracle(oracle) is None
    verdict = check_continuity(oracle, "archimedean", GridSpec(SPACE, 3), 3)
    assert verdict.violated
    assert verdict.budget.depth == verdict.witness.depth == 3


def test_eu_satisfies_geometry_axioms():
    assert check_convexity(EU, GRID4).no_violation_found
    assert check_translation(EU, GRID4).no_violation_found
    assert check_line_order(EU, GRID4).no_violation_found


def test_eu_ip_found():
    verdict = check_ip(EU, GRID4)
    assert verdict.no_violation_found
    assert verdict.found is not None
    points = verdict.found.points
    assert len(points) == SPACE.n
    assert verdict.found.rank == SPACE.n - 1
    # First spanning pair in enumeration order: both have payoff 1.
    assert points[0] == lot(0, 1, 0)
    assert points[1] == lot("1/2", 0, "1/2")


def test_represented_oracle_takes_solve_contract_route():
    rep = elicit(ElicitationInput(
        indifferent=(lot("1/3", "1/3", "1/3"), lot("5/12", "1/6", "5/12")),
        strict=(lot(0, 0, 1), lot(1, 0, 0)),
    ))
    oracle = RepresentedOracle(SPACE, rep.hyperplane, rep.orientation)
    verdict = check_continuity(oracle, "solvability", GRID4)
    assert verdict.no_violation_found
    assert verdict.route == "solve-contract"


# ---- the hybrid ranking: the separating example ------------------------------


def test_hybrid_keeps_weak_order_and_betweenness():
    assert check_weak_order(HYBRID, GRID6).no_violation_found
    assert check_independence(HYBRID, GRID6, variant="betweenness").no_violation_found


def test_hybrid_violates_independence():
    verdict = check_independence(HYBRID, GRID6)
    assert verdict.violated
    w = verdict.witness
    assert isinstance(w, IndependenceWitness)
    # First hit in scan order: mixing two vertices halfway onto the
    # plateau erases a strict lexicographic gap.
    assert (w.p, w.q, w.r) == (lot(0, 0, 1), lot(0, 1, 0), lot(1, 0, 0))
    assert w.alpha == F(1, 2)
    assert w.before is ComparisonResult.STRICTLY_WORSE
    assert w.after is ComparisonResult.INDIFFERENT
    assert w.replay(HYBRID)


def test_hybrid_violates_every_continuity_kind():
    witness_types = {
        "grid-openness": OpennessWitness,
        "mixture": MixtureWitness,
        "archimedean": ArchimedeanWitness,
        "solvability": SolvabilityScanWitness,
    }
    for kind, expected in witness_types.items():
        verdict = check_continuity(HYBRID, kind, GRID4)
        assert verdict.violated, kind
        assert isinstance(verdict.witness, expected)
        assert verdict.witness.replay(HYBRID), kind
    verdict = check_continuity(HYBRID, "solvability", GRID4)
    assert verdict.route == "alpha-scan"
    assert verdict.witness.candidate_bound == 4


def test_hybrid_ip_found_on_the_plateau():
    verdict = check_ip(HYBRID, GridSpec(SPACE, 2))
    assert verdict.no_violation_found
    assert verdict.found.points == (lot("1/2", 0, "1/2"), lot("1/2", "1/2", 0))
    assert verdict.found.rank == 1


# ---- lexicographic: no spanning indifference anywhere ------------------------


def test_lex_ip_exhausted():
    verdict = check_ip(LEX, GRID6)
    assert verdict.violated
    w = verdict.witness
    assert isinstance(w, IPExhausted)
    # Every lottery is alone in its class: 55 grid points, 55 classes.
    assert w.grid_size == len(enumerate_grid(GRID6))
    assert w.grid_size == 55
    assert w.classes == 55
    assert w.best_size == 1


def test_lex_violates_solvability_by_scan():
    verdict = check_continuity(LEX, "solvability", GridSpec(SPACE, 2))
    assert verdict.violated
    assert verdict.route == "alpha-scan"
    assert isinstance(verdict.witness, SolvabilityScanWitness)
    assert verdict.witness.replay(LEX)


def test_lex_violates_grid_openness():
    verdict = check_continuity(LEX, "grid-openness", GridSpec(SPACE, 2))
    assert verdict.violated
    assert verdict.witness.replay(LEX)


# ---- majority: the designed weak-order failure --------------------------------


def test_majority_cycle_found():
    verdict = check_weak_order(MAJORITY, GridSpec(SPACE, 3))
    assert verdict.violated
    w = verdict.witness
    assert isinstance(w, CycleWitness)
    assert w.replay(MAJORITY)


def test_majority_ip_does_not_crash_on_pseudo_classes():
    # Greedy classes under an intransitive oracle are not real classes;
    # the checker must re-verify and keep going rather than report junk.
    verdict = check_ip(MAJORITY, GridSpec(SPACE, 3))
    assert verdict.axiom == "ip"
    if verdict.found is not None:
        pts = verdict.found.points
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                assert MAJORITY.compare(pts[a], pts[b]) is ComparisonResult.INDIFFERENT


# ---- plumbing -----------------------------------------------------------------


def test_bad_variant_and_kind_rejected():
    with pytest.raises(ValueError):
        check_independence(EU, GRID4, variant="monotonicity")
    with pytest.raises(ValueError):
        check_continuity(EU, "uniform-continuity", GRID4)


@pytest.mark.parametrize("depth", [0, -1])
def test_probe_depth_below_one_rejected(depth):
    # With no probes an expected-utility oracle used to "violate"
    # grid-openness and archimedean, and a negative depth ran silently.
    for kind in ("grid-openness", "mixture", "archimedean", "solvability"):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            check_continuity(EU, kind, GRID4, depth=depth)


@pytest.mark.parametrize("depth", [2.5, True, "3", F(3)])
def test_probe_depth_must_be_an_int(depth):
    # 2.5 once raised TypeError inside the kernels, and True ran as
    # depth 1 and wrote a "depth": true its witness could not decode.
    for kind in ("grid-openness", "mixture", "archimedean", "solvability"):
        with pytest.raises(ValueError, match="probe depth must be an int"):
            check_continuity(EU, kind, GRID4, depth=depth)


@pytest.mark.parametrize("answer,error", [(F(3, 2), AlphaOutOfRange),
                                          (-1, AlphaOutOfRange),
                                          (0.5, ValueError)])
def test_solve_contract_rejects_weights_outside_the_contract(answer, error):
    # The oracle's own solve() is checked like any mixing weight: exact
    # and inside [0, 1], before any comparison trusts it.
    class BadSolver(ExpectedUtilityOracle):
        def solve(self, p, q, r):
            return answer

    with pytest.raises(error):
        check_continuity(BadSolver(EU.utility), "solvability", GRID4)


def test_probe_witnesses_do_not_replay_without_probes():
    # An empty probe loop must not vouch for a witness.
    p, q, r = lot(0, 0, 1), lot(0, 1, 0), lot(1, 0, 0)
    for depth in (0, -1):
        assert not OpennessWitness(p=q, q=p, w=r, side=1, depth=depth).replay(EU)
        for side in ("beta", "alpha"):
            assert not ArchimedeanWitness(p=p, q=q, r=r, side=side,
                                          depth=depth).replay(EU)


def test_two_outcome_space():
    two = OutcomeSpace.of_size(2)
    eu2 = ExpectedUtilityOracle(UtilityFunction.of(two, [0, 1]))
    grid = GridSpec(two, 6)
    assert check_weak_order(eu2, grid).no_violation_found
    verdict = check_ip(eu2, grid)
    assert verdict.no_violation_found
    assert len(verdict.found.points) == 1
    assert verdict.found.rank == 0


def test_verdict_budget_records_the_scan():
    verdict = check_continuity(HYBRID, "mixture", GRID4, depth=10)
    assert verdict.budget.grid == GRID4
    assert verdict.budget.candidate_bound == 8
    assert verdict.budget.depth == 10
    assert verdict.witness.depth == 10


def test_eu_mixture_holds_on_denser_grid():
    # g^3 x 23 candidates: the level kernel runs it without the
    # compiled extension.
    assert check_continuity(EU, "mixture", GRID6).no_violation_found
