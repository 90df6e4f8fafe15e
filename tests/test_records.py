"""The contract of the package's frozen records: every class in a
lotpref module that ``dataclasses.is_dataclass`` reports.  Each keeps
its fields in order, its constructor signature, frozen attributes,
equality within its exact class, the hash of its field tuple, the
dataclass repr, and ``dataclasses.replace`` that validates again."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import lotpref
from lotpref.axioms import (
    ArchimedeanWitness,
    AxiomVerdict,
    BetweennessWitness,
    Budget,
    ConvexityWitness,
    CycleWitness,
    IndependenceWitness,
    IPExhausted,
    IPFound,
    LineOrderWitness,
    MixtureWitness,
    OpennessWitness,
    SolvabilityScanWitness,
    SolveContractWitness,
    TranslationWitness,
)
from lotpref._record import Record
from lotpref.errors import EmptyInput, RankDeficient, SumNotOne
from lotpref.geometry import Hyperplane
from lotpref.grids import GridSpec
from lotpref.lotteries import EmbeddedPoint, Lottery, OutcomeSpace, mix
from lotpref.oracles import ComparisonResult, UtilityFunction
from lotpref.representation import (
    CertificateReplay,
    ElicitationInput,
    IndifferenceCertificate,
    KernelConstruction,
    MixStep,
    Representation,
)
from lotpref.scenario import CheckRequest, Construct, Scenario, StrictPair

SPACE = OutcomeSpace(("x0", "x1", "x2"))
P = Lottery(SPACE, (F(0), F(0), F(1)))
Q = Lottery(SPACE, (F(1, 3), F(1, 3), F(1, 3)))
R = Lottery(SPACE, (F(1), F(0), F(0)))
GRID = GridSpec(SPACE, 2)
BUDGET = Budget(GRID, candidate_bound=4)
BETTER = ComparisonResult.STRICTLY_BETTER
WORSE = ComparisonResult.STRICTLY_WORSE
INDIFF = ComparisonResult.INDIFFERENT
UTILITY = UtilityFunction(SPACE, (F(0), F(1), F(2)))
PLANE = Hyperplane((F(1), F(2)), (F(1, 3), F(1, 3)))

# One valid instance per record class, built by keyword where the class
# has defaults so that the defaults are exercised too.
EXAMPLES = {
    OutcomeSpace: SPACE,
    Lottery: P,
    EmbeddedPoint: EmbeddedPoint(SPACE, (F(1, 3), F(1, 3))),
    GridSpec: GRID,
    UtilityFunction: UTILITY,
    Hyperplane: PLANE,
    Budget: BUDGET,
    AxiomVerdict: AxiomVerdict("weak-order", False, BUDGET, route=None),
    CycleWitness: CycleWitness(P, Q, R, BETTER, BETTER, WORSE),
    IndependenceWitness: IndependenceWitness(P, Q, R, F(1, 2), BETTER, INDIFF),
    BetweennessWitness: BetweennessWitness(P, Q, F(1, 2), BETTER, WORSE, BETTER),
    ConvexityWitness: ConvexityWitness(P, Q, R, F(1, 2), BETTER),
    TranslationWitness: TranslationWitness(P, Q, R, Q, WORSE),
    LineOrderWitness: LineOrderWitness(P, R, F(1, 2), Q, "point-vs-q", WORSE),
    MixtureWitness: MixtureWitness(P, Q, R, F(1, 2), -1, WORSE, 3),
    ArchimedeanWitness: ArchimedeanWitness(P, Q, R, "beta", 3),
    SolvabilityScanWitness: SolvabilityScanWitness(P, Q, R, 4),
    SolveContractWitness: SolveContractWitness(P, Q, R, F(1, 2), BETTER),
    OpennessWitness: OpennessWitness(P, Q, R, 1, 3),
    IPFound: IPFound((P, R), 1),
    IPExhausted: IPExhausted(4, 2, 2),
    ElicitationInput: ElicitationInput((Q, R), strict=(P, R)),
    Representation: Representation(SPACE, UTILITY, PLANE, 1, True),
    KernelConstruction: KernelConstruction(
        ((F(0), F(1), F(2)), (F(1), F(1), F(1))), F(1), Q,
        ((F(1), F(-2), F(1)),), F(1, 12)),
    MixStep: MixStep(P, R, F(1, 2), mix(P, R, F(1, 2))),
    IndifferenceCertificate: IndifferenceCertificate(
        Q, (Q, R), (F(1), F(0)), "convex", k_star=1),
    CertificateReplay: CertificateReplay(True, (("member", True),)),
    StrictPair: StrictPair(P, R),
    Construct: Construct(P, Q, R),
    CheckRequest: CheckRequest(axiom="ip", grid=2),
    Scenario: Scenario(SPACE, utility=UTILITY, queries=(P,)),
}

# Each class's constructor as "name" or "name=default", in field order.
SIGNATURES = {
    OutcomeSpace: "labels",
    Lottery: "space, weights",
    EmbeddedPoint: "space, coords",
    GridSpec: "space, denominator_bound",
    UtilityFunction: "space, values",
    Hyperplane: "normal, base",
    Budget: "grid, candidate_bound=None, depth=None",
    AxiomVerdict: "axiom, violated, budget, route=None, witness=None, found=None",
    CycleWitness: "p, q, r, pq, qr, pr",
    IndependenceWitness: "p, q, r, alpha, before, after",
    BetweennessWitness: "p, q, alpha, pq, upper, lower",
    ConvexityWitness: "p, q1, q2, alpha, observed",
    TranslationWitness: "p, q, r, translated, observed",
    LineOrderWitness: "p, q, t, point, relation, observed",
    MixtureWitness: "p, q, r, alpha_star, side, boundary, depth",
    ArchimedeanWitness: "p, q, r, side, depth",
    SolvabilityScanWitness: "p, q, r, candidate_bound",
    SolveContractWitness: "p, q, r, alpha=None, observed=None",
    OpennessWitness: "p, q, w, side, depth",
    IPFound: "points, rank",
    IPExhausted: "grid_size, classes, best_size",
    ElicitationInput: "indifferent, strict=None",
    Representation: "space, utility, hyperplane, orientation, oriented",
    KernelConstruction: "matrix, mean_utility, base, basis, step",
    MixStep: "left, right, alpha, result",
    IndifferenceCertificate: (
        "target, points, coefficients, branch, steps=(), k_star=None, "
        "lambda_star=None, mean=None, alpha_star=None, reduced=None, "
        "reduced_coefficients=None, ia_rhs=None"),
    CertificateReplay: "ok, checks",
    StrictPair: "better, worse",
    Construct: "p, q, r",
    CheckRequest: "axiom=None, grid=None, depth=None",
    Scenario: ("space, utility=None, oracle=None, indifferent=None, strict=None, "
               "reference=None, queries=(), target=None, construct=None, "
               "check=None"),
}

RECORDS = list(EXAMPLES)
ids = [cls.__name__ for cls in RECORDS]


def _package_modules():
    for info in pkgutil.walk_packages(lotpref.__path__, "lotpref."):
        yield importlib.import_module(info.name)


def _values(record):
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _rendered(cls) -> str:
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    return ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in params)


def test_every_record_class_has_an_example():
    found = {obj for module in _package_modules()
             for obj in vars(module).values()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and dataclasses.is_dataclass(obj)}
    assert found == set(RECORDS)
    assert len(found) == 31
    assert set(SIGNATURES) == found


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_and_signature(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert _rendered(cls) == SIGNATURES[cls]
    assert names == tuple(inspect.signature(cls).parameters)
    assert dataclasses.is_dataclass(EXAMPLES[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_frozen(cls):
    record = EXAMPLES[cls]
    before = _values(record)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
    assert all(now is then for now, then in zip(_values(record), before))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equality_and_hash_follow_the_field_tuple(cls):
    record = EXAMPLES[cls]
    values = _values(record)
    twin = cls(*values)
    assert twin == record and not twin != record
    assert hash(record) == hash(twin) == hash(values)
    assert record != values
    # Equal field values in another class are not equal records.
    other = type(f"Other{cls.__name__}", (cls,), {"__doc__": "A subclass."})
    stranger = other(*values)
    assert stranger != record and record != stranger
    assert not stranger == record


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_repr_lists_every_field(cls):
    record = EXAMPLES[cls]
    inner = ", ".join(f"{f.name}={getattr(record, f.name)!r}"
                      for f in dataclasses.fields(cls))
    assert repr(record) == f"{cls.__qualname__}({inner})"


def test_repr_text():
    assert repr(Budget(grid=GRID)) == (
        "Budget(grid=GridSpec(space=OutcomeSpace(labels=('x0', 'x1', 'x2')), "
        "denominator_bound=2), candidate_bound=None, depth=None)")
    assert repr(P) == (
        "Lottery(space=OutcomeSpace(labels=('x0', 'x1', 'x2')), "
        "weights=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))")


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_replace_keeps_an_equal_record(cls):
    record = EXAMPLES[cls]
    assert dataclasses.replace(record) == record


REFUSED = [
    (P, {"weights": (F(1, 2), F(1, 3), F(0))}, SumNotOne),
    (EXAMPLES[IndependenceWitness], {"alpha": F(3, 2)}, ValueError),
    (EXAMPLES[MixtureWitness], {"alpha_star": F(3, 2)}, ValueError),
    (EXAMPLES[MixtureWitness], {"side": 0}, ValueError),
    (EXAMPLES[SolvabilityScanWitness], {"candidate_bound": 0}, ValueError),
    (EXAMPLES[ArchimedeanWitness], {"side": "gamma"}, ValueError),
    (EXAMPLES[LineOrderWitness], {"relation": "q-vs-q"}, ValueError),
    # Four grid points in two classes leave at most three to one class.
    (EXAMPLES[IPExhausted], {"best_size": 4}, ValueError),
    (EXAMPLES[IPExhausted], {"classes": 5}, ValueError),
    (EXAMPLES[IPExhausted], {"grid_size": True}, ValueError),
    (GRID, {"denominator_bound": 0}, ValueError),
    (SPACE, {"labels": ()}, EmptyInput),
    (PLANE, {"normal": (F(0), F(0))}, RankDeficient),
    (EXAMPLES[CheckRequest], {"depth": 0}, ValueError),
]


@pytest.mark.parametrize("record,changes,error", REFUSED,
                         ids=[f"{type(r).__name__}-{next(iter(c))}"
                              for r, c, _ in REFUSED])
def test_replace_validates_again(record, changes, error):
    with pytest.raises(error):
        dataclasses.replace(record, **changes)


def _stdlib_imports():
    """The top-level modules lotpref's source imports from outside the
    package."""
    names = set()
    for path in Path(lotpref.__file__).parent.rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    names.discard("__future__")
    return sorted(names)


STARTUP = """
import dataclasses, importlib, json, sys
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
compiled = []
sys.addaudithook(lambda event, args: compiled.append(args[1])
                 if event == "compile" else None)
import lotpref.cli
strings = compiled.count("<string>")
records = sum(dataclasses.is_dataclass(obj) and isinstance(obj, type)
              and obj.__module__ == module.__name__
              for name, module in list(sys.modules.items())
              if name.startswith("lotpref")
              for obj in vars(module).values())
print(json.dumps([strings, records]))
"""


def test_startup_compiles_at_most_one_source_per_record():
    # Each record class may compile one source of its own methods and
    # nothing else compiles a string at import: dataclasses' exec per
    # method once made 186 compilations for 31 classes, about a third
    # of lotpref's uncached import.
    src = str(Path(lotpref.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP, json.dumps(_stdlib_imports())],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    strings, records = json.loads(proc.stdout)
    assert records == 31
    assert strings <= records


def test_a_method_the_class_body_defines_is_kept():
    # Record compiles only the methods a class body leaves out.  A body
    # that defines __eq__ alone gets __hash__ = None from Python, which
    # Record replaces with the field-tuple hash, as Lottery relies on.
    class Pair(Record):
        a: int
        b: int

        def __eq__(self, other):
            return isinstance(other, Pair) and self.a == other.a

    assert Pair(1, 2) == Pair(1, 3)
    assert hash(Pair(1, 2)) == hash((1, 2))
    space = lotpref.OutcomeSpace.of_size(2)
    lot = lotpref.Lottery.from_integers(space, (1, 1), 2)
    assert "__eq__" in vars(lotpref.Lottery)
    assert hash(lot) == hash((space, (F(1, 2), F(1, 2))))


@pytest.mark.parametrize("build,field", [
    (lambda: Lottery(SPACE, [F(1, 3)] * 3), "weights"),
    (lambda: UtilityFunction(SPACE, [0, 1, 2]), "values"),
    (lambda: ElicitationInput([Q, R]), "indifferent"),
], ids=["Lottery", "UtilityFunction", "ElicitationInput"])
def test_a_list_field_is_refused(build, field):
    # A record kept a list it was given: unequal to its tuple twin, and
    # unhashable.
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize("depth", [0, -1, True, 2.0])
@pytest.mark.parametrize("cls", [MixtureWitness, ArchimedeanWitness, OpennessWitness],
                         ids=lambda cls: cls.__name__)
def test_a_probe_witness_depth_below_one_is_refused(cls, depth):
    # A decoded document with such a depth once failed only at replay.
    with pytest.raises(ValueError, match="depth"):
        dataclasses.replace(EXAMPLES[cls], depth=depth)
