"""One definition per witness: ``observe`` builds, confirms and replays.

Each scan witness class asks the oracle every question it records in
one ``observe`` classmethod.  The checkers report a scan hit only
through it, and ``replay`` is ``observe`` again on the witness's own
inputs, so every recorded answer is checked and a hit the oracle does
not confirm raises the one RuntimeError.
"""

import dataclasses
import inspect
import json
from fractions import Fraction

import pytest

from lotpref import _kernels as kernels
from lotpref.axioms import (
    WITNESS_TYPES,
    ArchimedeanWitness,
    Budget,
    ConvexityWitness,
    IPExhausted,
    LineOrderWitness,
    MixtureWitness,
    OpennessWitness,
    SolvabilityScanWitness,
    SolveContractWitness,
    TranslationWitness,
    _verdict,
    check_continuity,
    check_convexity,
    check_independence,
    check_line_order,
    check_translation,
    check_weak_order,
)
from lotpref.grids import GridSpec, enumerate_grid
from lotpref.errors import UnconfirmedHit
from lotpref.lotteries import Lottery, OutcomeSpace, make_lottery
from lotpref.oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    UtilityFunction,
)
from lotpref.scenario import witness_from_json, witness_to_json
from test_scan_reference import (
    Reference,
    RoundingSolver,
    ScoredOracle,
    ref_archimedean,
    ref_line_order,
    skewed,
)

F = Fraction
SPACE = OutcomeSpace.of_size(3)
GRID2 = GridSpec(SPACE, 2)
GRID3 = GridSpec(SPACE, 3)
GRID4 = GridSpec(SPACE, 4)
EU = ExpectedUtilityOracle(UtilityFunction.of(SPACE, [0, 3, 7]))
HYBRID = HybridExampleOracle(SPACE)
MAJORITY = MajorityOracle(SPACE)


class EUSubclass(ExpectedUtilityOracle):
    """Expected utility the encoder refuses, so solvability walks the
    solve contract on the pure path."""


def continuity(kind):
    return lambda oracle, grid: check_continuity(oracle, kind, grid)


def betweenness(oracle, grid):
    return check_independence(oracle, grid, variant="betweenness")


# ---- every unconfirmed hit raises the same RuntimeError --------------------

# (scan, hit, checker, oracle): a hit on the 3-outcome grid at
# bound 2 that the oracle denies.  Its lotteries, by index: (0,0,1),
# (0,1,0), (1,0,0), (0,1/2,1/2), (1/2,0,1/2), (1/2,1/2,0).  Before
# observe, the grid-openness, translation, line-order and solve-contract
# hits raised ValueError, NegativeWeight, NegativeWeight and
# PreconditionViolated.
UNCONFIRMED = [
    ("scan_transitivity", (0, 1, 2), check_weak_order, EU),
    ("scan_independence", (0, 1, 2, 0), check_independence, EU),
    ("scan_betweenness", (0, 1, 0), betweenness, EU),
    ("scan_convexity", (0, 1, 2, 0), check_convexity, EU),
    ("scan_translation", (2, 0, 1), check_translation, EU),
    ("scan_line_order", (0, 1, 3, 1, "point-vs-p"),
     check_line_order, EU),
    ("scan_mixture", (0, 1, 2, 0, 1), continuity("mixture"), EU),
    ("scan_archimedean", (0, 1, 2, "beta"),
     continuity("archimedean"), EU),
    ("scan_solvability_scan", (0, 2, 2), continuity("solvability"),
     LexicographicOracle(SPACE)),
    ("scan_openness", (0, 0, 0), continuity("grid-openness"), EU),
    ("scan_solvability_solve", (0, 2, 1, 1, 2),
     continuity("solvability"), EU),
    ("scan_solvability_solve", (0, 2, 1, 1, 2),
     continuity("solvability"), EUSubclass(EU.utility)),
]


@pytest.mark.parametrize(
    "scan,hit,check,oracle", UNCONFIRMED,
    ids=[row[0] + ("" if kernels.encode_oracle(row[3]) else "-callback")
         for row in UNCONFIRMED])
def test_unconfirmed_hit_raises_runtime_error(monkeypatch, scan, hit, check,
                                              oracle):
    monkeypatch.setattr(kernels, scan, lambda *args: hit)
    with pytest.raises(RuntimeError, match="scan backend and oracle disagree"):
        check(oracle, GRID2)


class DriftingOracle(ExpectedUtilityOracle):
    """Expected utility that answers "indifferent" after its 33rd
    comparison: the scan's sign table sees the true order, and the
    confirmation that follows sees only ties."""

    calls = 0

    def compare(self, p, q):
        self.calls += 1
        if self.calls > 33:
            return ComparisonResult.INDIFFERENT
        return super().compare(p, q)


def test_an_oracle_alone_reaches_the_unconfirmed_path():
    # Unpatched: the grid-openness hit once raised "grid-openness side
    # must be -1 or 1, got 0" from the witness constructor.
    oracle = DriftingOracle(UtilityFunction.of(SPACE, [0, 1, 10**7]))
    with pytest.raises(RuntimeError, match="scan backend and oracle disagree"):
        check_continuity(oracle, "grid-openness", GRID3, 3)


# ---- a hit that meets its premise but violates nothing is refused ----------

U012 = ExpectedUtilityOracle(UtilityFunction.of(SPACE, [0, 1, 2]))
TOP, MID, BOTTOM, HALVES, CENTRE = (
    make_lottery(SPACE, w) for w in ((0, 0, 1), (0, 1, 0), (1, 0, 0),
                                     ("1/2", 0, "1/2"), ("1/3", "1/3", "1/3")))

# (witness class, observe's inputs) under U012, whose levels are 0, 1
# and 2 at BOTTOM, MID and TOP, and 1 at HALVES and CENTRE.  Each case
# reaches the return None that stands for "no violation here": the
# mixture, translate or line point ranks as the axiom asks, a candidate
# or solve() weight solves, a probe leaves the far side, or (the first
# line-order case) p is not above q.
NOT_VIOLATED = [
    ("convexity", ConvexityWitness, (MID, HALVES, CENTRE, F(1, 2))),
    ("translation", TranslationWitness,
     (CENTRE, make_lottery(SPACE, ("1/3", "2/3", 0)), HALVES)),
    ("line-order-premise", LineOrderWitness, (BOTTOM, TOP, F(1, 2), "p-vs-point")),
    ("line-order", LineOrderWitness, (TOP, BOTTOM, F(1, 2), "p-vs-point")),
    ("mixture", MixtureWitness, (TOP, MID, BOTTOM, F(1, 2), 1, 4)),
    ("solvability-scan", SolvabilityScanWitness, (TOP, MID, BOTTOM, 2)),
    ("solve-contract", SolveContractWitness, (TOP, MID, BOTTOM)),
    ("grid-openness", OpennessWitness, (MID, TOP, BOTTOM, 4)),
]


@pytest.mark.parametrize("cls,inputs", [case[1:] for case in NOT_VIOLATED],
                         ids=[case[0] for case in NOT_VIOLATED])
def test_a_hit_that_violates_nothing_is_refused(cls, inputs):
    assert cls.observe(U012, *inputs) is None
    with pytest.raises(UnconfirmedHit, match="scan backend and oracle disagree"):
        _verdict(cls, U012, Budget(grid=GRID2), inputs, lambda *hit: hit)


# ---- witness branches a 2-outcome scored oracle reaches ---------------------

PAIR = OutcomeSpace.of_size(2)

# (oracle's left and right scores, bound, depth, the hit's last entry):
# the archimedean alpha side, and the two line-order relations the
# built-in oracles never fail.
BRANCHES = [
    ((-3, 1), (-2, 1), 3, 4, "alpha"),
    ((-3, 0), (-3, 3), 2, None, "p-vs-point"),
    ((3, -3), (-1, -3), 2, None, "point-vs-p"),
]


@pytest.mark.parametrize("left,right,bound,depth,branch", BRANCHES,
                         ids=[case[-1] for case in BRANCHES])
def test_scored_oracle_reaches_the_rare_branches(left, right, bound, depth, branch):
    oracle = ScoredOracle(PAIR, left, right)
    grid = GridSpec(PAIR, bound)
    lots = enumerate_grid(grid)
    if depth is None:
        i, j, a, b, relation = ref_line_order(Reference(oracle, lots), bound, depth)
        witness = check_line_order(oracle, grid).witness
        assert (witness.p, witness.q, witness.t, witness.relation) == (
            lots[i], lots[j], F(a, b), relation)
        assert relation == branch
    else:
        i, j, k, side = ref_archimedean(Reference(oracle, lots), bound, depth)
        witness = check_continuity(oracle, "archimedean", grid, depth).witness
        assert (witness.p, witness.q, witness.r, witness.side, witness.depth) == (
            lots[i], lots[j], lots[k], side, depth)
        assert side == branch
    assert witness.replay(oracle)
    doc = json.loads(json.dumps(witness_to_json(witness)))
    assert witness_from_json(PAIR, doc) == witness


# ---- replay checks every recorded answer ------------------------------------


def reported():
    """(oracle, witness) with one reported witness per scan witness class."""
    sk = skewed(SPACE)
    rounding = RoundingSolver(UtilityFunction.of(SPACE, [0, 1, 5]))
    cases = [
        (MAJORITY, check_weak_order(MAJORITY, GRID3)),
        (HYBRID, check_independence(HYBRID, GRID4)),
        (sk, betweenness(sk, GRID2)),
        (MAJORITY, check_convexity(MAJORITY, GRID3)),
        (HYBRID, check_translation(HYBRID, GRID4)),
        (sk, check_line_order(sk, GRID2)),
        (rounding, check_continuity(rounding, "solvability", GRID2)),
    ] + [(HYBRID, check_continuity(HYBRID, kind, GRID4))
         for kind in ("mixture", "archimedean", "grid-openness", "solvability")]
    return [(oracle, verdict.witness) for oracle, verdict in cases]


REPORTED = reported()


def test_one_reported_witness_per_scan_class():
    scan_classes = [cls for cls in WITNESS_TYPES if cls is not IPExhausted]
    assert sorted(type(w).__name__ for _, w in REPORTED) == sorted(
        cls.__name__ for cls in scan_classes)


def other_values(value):
    """Valid replacements for a recorded field's value."""
    if isinstance(value, ComparisonResult):
        return [r for r in ComparisonResult if r is not value]
    if isinstance(value, Lottery):
        return [x for x in enumerate_grid(GRID2) if x != value]
    if isinstance(value, Fraction):
        return [a for a in (F(0), F(1, 3), F(1, 2), F(1)) if a != value]
    assert isinstance(value, int), value
    return [-value]  # a side, +1 or -1


@pytest.mark.parametrize("oracle,witness", REPORTED,
                         ids=[type(w).__name__ for _, w in REPORTED])
def test_replay_checks_every_recorded_answer(oracle, witness):
    names = list(inspect.signature(type(witness).observe).parameters)[1:]
    values = [getattr(witness, name) for name in names]
    assert type(witness).observe(oracle, *values) == witness
    assert witness.replay(oracle)
    recorded = [f.name for f in dataclasses.fields(witness) if f.name not in names]
    for name in recorded:
        for value in other_values(getattr(witness, name)):
            changed = dataclasses.replace(witness, **{name: value})
            assert not changed.replay(oracle), (name, value)


def test_witness_types_are_the_classes_in_declaration_order():
    # A routeless "solvability" document decodes as the first class of
    # its kind, so the order is part of the wire format.
    assert [cls.__name__ for cls in WITNESS_TYPES] == [
        "CycleWitness", "IndependenceWitness", "BetweennessWitness",
        "ConvexityWitness", "TranslationWitness", "LineOrderWitness",
        "MixtureWitness", "ArchimedeanWitness", "SolvabilityScanWitness",
        "SolveContractWitness", "OpennessWitness", "IPExhausted"]


# (witness class, choice field, its values, a value outside them)
OUTSIDE_CHOICES = [
    (LineOrderWitness, "relation",
     ("q-vs-point", "p-vs-point", "point-vs-q", "point-vs-p"), "q-vs-q"),
    (MixtureWitness, "side", (-1, 1), 0),
    (ArchimedeanWitness, "side", ("beta", "alpha"), "gamma"),
    (OpennessWitness, "side", (-1, 1), 2),
]


@pytest.mark.parametrize("cls,name,allowed,value", OUTSIDE_CHOICES,
                         ids=[row[0].__name__ for row in OUTSIDE_CHOICES])
def test_a_choice_outside_its_values_is_refused(cls, name, allowed, value):
    witness = next(w for _, w in REPORTED if type(w) is cls)
    doc = {**witness_to_json(witness), name: value}
    with pytest.raises(ValueError) as info:
        witness_from_json(SPACE, doc)
    assert str(info.value) == (f"{cls.kind} {name} must be one of {allowed}, "
                               f"got {value!r}")


def test_replay_is_written_once():
    for cls in WITNESS_TYPES:
        if cls is not IPExhausted:
            assert "replay" not in vars(cls), cls.__name__


def test_derived_lottery_off_the_simplex_replays_false():
    eu = ExpectedUtilityOracle(UtilityFunction.of(SPACE, [0, 1, 2]))
    # r ~ p, but r + (q - p) = (3/2, -1, 1/2) leaves the simplex.
    translation = witness_from_json(SPACE, {
        "kind": "translation", "p": ["0", "1", "0"], "q": ["1", "0", "0"],
        "r": ["1/2", "0", "1/2"], "translated": ["1", "0", "0"],
        "observed": "strictly-better"})
    assert isinstance(translation, TranslationWitness)
    assert translation.replay(eu) is False
    # p > q, but q + 3 (p - q) = (-2, 0, 3) leaves the simplex.
    line = witness_from_json(SPACE, {
        "kind": "line-order", "p": ["0", "0", "1"], "q": ["1", "0", "0"],
        "t": "3", "point": ["0", "0", "1"], "relation": "point-vs-p",
        "observed": "indifferent"})
    assert isinstance(line, LineOrderWitness)
    assert line.replay(eu) is False


def test_derived_lottery_that_disagrees_with_its_inputs_replays_false():
    sk = skewed(SPACE)
    witness = check_line_order(sk, GRID2).witness
    for point in enumerate_grid(GRID2):
        if point != witness.point:
            assert not dataclasses.replace(witness, point=point).replay(sk)
    # The inputs are what replay re-derives from: moving t moves the point.
    assert not dataclasses.replace(witness, t=F(-1, 2)).replay(sk)


# ---- a solve() that disagrees with compare breaks the contract -------------


class ReversedEU(ExpectedUtilityOracle):
    """Compares by reversed expected utility but solves by the true one,
    so solve() refuses the premise of every strict triple its compare
    ranks p >= q >= r."""

    def compare(self, p, q):
        return super().compare(q, p)


class SolvesTwo(ExpectedUtilityOracle):
    """Compares by expected utility but solves every triple with 2."""

    def solve(self, p, q, r):
        return 2


class CountingSolve:
    """Counts an oracle's compare and solve calls."""

    def __init__(self, oracle):
        self.oracle, self.calls = oracle, {"compare": 0, "solve": 0}

    def __getattr__(self, name):
        if name in self.calls:
            self.calls[name] += 1
        return getattr(self.oracle, name)


@pytest.mark.parametrize("cls", [ReversedEU, SolvesTwo], ids=lambda cls: cls.__name__)
def test_a_refused_solve_is_a_solve_contract_violation(cls):
    # PreconditionViolated and AlphaOutOfRange from solve() once escaped
    # the check; the triple is now the hit, its witness has no alpha or
    # observed answer, and its document omits both.
    oracle = cls(UtilityFunction.of(SPACE, [0, 1, 3]))
    verdict = check_continuity(oracle, "solvability", GRID2)
    witness = verdict.witness
    assert verdict.violated and verdict.route == "solve-contract"
    assert (witness.alpha, witness.observed) == (None, None)
    counting = CountingSolve(oracle)
    assert witness.replay(counting)
    assert counting.calls == {"compare": 2, "solve": 1}
    document = witness_to_json(witness)
    assert "alpha" not in document and "observed" not in document
    assert witness_from_json(SPACE, json.loads(json.dumps(document))) == witness
