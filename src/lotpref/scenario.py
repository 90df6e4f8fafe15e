"""Scenario files and JSON serialization.

A scenario is a JSON document (schema ``version: 1``) declaring an
outcome space plus whatever a subcommand needs: a utility, an oracle,
elicitation data, queries, a certificate target, a construction triple,
or a check request.  ``Scenario`` has one field per key and is decoded
by ``from_json`` like any other dataclass, so a wrongly shaped value
fails with ValueError naming its key.  Every rational travels as a
canonical string ("a/b" or "a"); floats are never accepted, so
exactness survives the round trip.

Every dataclass (certificates, constructions, replays, budgets, found
sets, hyperplanes, witnesses) has one wire format: one key per field in
declaration order, None fields left out, lotteries as lists of
rationals, comparison results as their values.  ``to_json`` writes it;
``from_json`` reads it back by the declared field types.  A witness
starts with "kind" (and "route" where its class has one).  Verdicts,
representations and oracles are framed by hand: their keys are not
field names in declaration order.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

from .axioms import WITNESS_TYPES, AxiomVerdict
from .errors import EmptyInput
from .geometry import Hyperplane
from .grids import GridSpec
from .lotteries import Lottery, OutcomeSpace, uniform
from .oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    PreferenceOracle,
    RepresentedOracle,
    UtilityFunction,
)
from .rationals import format_rational, parse_rational
from .representation import (
    ElicitationInput,
    IndifferenceCertificate,
    Representation,
)

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "parse_lottery_field",
    "parse_point",
    "lottery_to_json",
    "fractions_to_json",
    "oracle_to_json",
    "oracle_from_json",
    "representation_to_json",
    "construction_to_json",
    "certificate_to_json",
    "certificate_from_json",
    "replay_to_json",
    "witness_to_json",
    "witness_from_json",
    "verdict_to_json",
    "to_json",
    "from_json",
    "dump_document",
]


# ---- primitives -------------------------------------------------------------


def fractions_to_json(values) -> list[str]:
    return [format_rational(v) for v in values]


def _parse_fractions(items, what: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(item) for item in _shaped(items, list, what))


def lottery_to_json(lot: Lottery) -> list[str]:
    return fractions_to_json(lot.weights)


def parse_point(space: OutcomeSpace, items, what: str = "lottery") -> Lottery:
    """A lottery from a JSON list of rational strings."""
    return Lottery(space, _parse_fractions(items, what))


def parse_lottery_field(space: OutcomeSpace, value, what: str = "lottery") -> Lottery:
    """A lottery from scenario or command line: the word "uniform", a
    comma-separated string of rationals, or a list of rational strings."""
    if value == "uniform":
        return uniform(space)
    if isinstance(value, str):
        return Lottery(space, tuple(
            parse_rational(part.strip()) for part in value.split(",")))
    return parse_point(space, value, what)


# ---- oracles ----------------------------------------------------------------


def oracle_to_json(oracle: PreferenceOracle) -> dict:
    if isinstance(oracle, ExpectedUtilityOracle):
        return {"kind": "eu", "utility": fractions_to_json(oracle.utility.values)}
    if isinstance(oracle, RepresentedOracle):
        return {"kind": "represented", **to_json(oracle.hyperplane),
                "orientation": oracle.orientation}
    if isinstance(oracle, HybridExampleOracle):
        return {"kind": "hybrid"}
    if isinstance(oracle, LexicographicOracle):
        return {"kind": "lexicographic", "priority": list(oracle.priority)}
    if isinstance(oracle, MajorityOracle):
        return {"kind": "majority"}
    raise ValueError(f"cannot serialize oracle kind {oracle.kind!r}")


def oracle_from_json(space: OutcomeSpace, data: dict) -> PreferenceOracle:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("oracle block needs a 'kind' field")
    kind = data["kind"]
    if kind == "eu":
        if "utility" not in data:
            raise ValueError("eu oracle needs 'utility'")
        values = _parse_fractions(data["utility"], "utility")
        return ExpectedUtilityOracle(UtilityFunction(space, values))
    if kind == "lexicographic":
        priority = _decoder(tuple[int, ...] | None)(
            space, data.get("priority"), "priority")
        return LexicographicOracle(space, priority)
    if kind == "hybrid":
        return HybridExampleOracle(space)
    if kind == "majority":
        return MajorityOracle(space)
    if kind == "represented":
        plane = from_json(Hyperplane, space, data)
        if "orientation" not in data:
            raise ValueError("represented oracle needs 'orientation'")
        return RepresentedOracle(
            space, plane, _shaped(data["orientation"], int, "orientation"))
    raise ValueError(f"unknown oracle kind {kind!r}")


# ---- dataclass documents ----------------------------------------------------


def representation_to_json(rep: Representation) -> dict:
    return {
        "outcomes": rep.space.size,
        "utility": fractions_to_json(rep.utility.values),
        **to_json(rep.hyperplane),
        "orientation": rep.orientation,
        "oriented": rep.oriented,
    }


def to_json(value):
    """The wire form of a value: a lottery as its weights, a rational as
    its canonical string, a comparison result as its value, a grid as
    its outcome count and bound, a tuple as a list, a dataclass as one
    key per field in declaration order with None fields left out, and
    any other value (int, str, bool) as itself."""
    if isinstance(value, Lottery):
        return lottery_to_json(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, ComparisonResult):
        return value.value
    if isinstance(value, GridSpec):
        return {"outcomes": value.space.size,
                "denominator_bound": value.denominator_bound}
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if is_dataclass(value):
        return _fields_to_json(value, type(value))
    return value


def _fields_to_json(value, cls) -> dict:
    return {f.name: to_json(item) for f in fields(cls)
            if (item := getattr(value, f.name)) is not None}


certificate_to_json = construction_to_json = replay_to_json = to_json


def _shaped(value, json_type, key):
    """value when its JSON type is exactly json_type, else ValueError."""
    if type(value) is not json_type:
        raise ValueError(f"{key} must be a JSON {json_type.__name__}, "
                         f"got {value!r}")
    return value


def _decoder(tp):
    """decode(space, value, key) for a declared field type: T | None,
    tuple[T, ...], Annotated[T, decode], Lottery, Fraction,
    ComparisonResult, UtilityFunction, PreferenceOracle, int, str, or a
    nested dataclass; None for OutcomeSpace, which takes the space the
    document is read in."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # T | None
        inner = _decoder(args[0])
        return lambda space, value, key: (
            None if value is None else inner(space, value, key))
    if origin is tuple:  # tuple[T, ...]
        item = _decoder(args[0])
        return lambda space, value, key: tuple(
            item(space, v, key) for v in _shaped(value, list, key))
    if origin is Annotated:  # the field names its own decoder
        return args[1]
    if tp is OutcomeSpace:
        return None
    if tp is Lottery:
        return parse_point
    if tp is Fraction:
        return lambda space, value, key: parse_rational(value)
    if tp is ComparisonResult:
        return lambda space, value, key: ComparisonResult(value)
    if tp is UtilityFunction:
        return lambda space, value, key: UtilityFunction(
            space, _parse_fractions(value, key))
    if tp is PreferenceOracle:
        return lambda space, value, key: oracle_from_json(space, value)
    if tp in (int, str):
        return lambda space, value, key: _shaped(value, tp, key)
    return lambda space, value, key: from_json(
        tp, space, _shaped(value, dict, key))


@cache
def _layout(cls) -> tuple:
    """(name, decode, required) per field of a dataclass in declaration
    order, from its type hints on first use."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, _decoder(hints[f.name]),
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def from_json(cls, space: OutcomeSpace, data):
    """Rebuild dataclass ``cls`` from the object ``to_json`` wrote.
    Raises ValueError on a missing required key or a wrongly shaped
    value; keys that name no field are ignored."""
    _shaped(data, dict, cls.__name__)
    values = {}
    for name, decode, required in _layout(cls):
        if decode is None:
            values[name] = space
        elif name in data:
            values[name] = decode(space, data[name], name)
        elif required:
            raise ValueError(f"{cls.__name__} document needs {name!r}")
    return cls(**values)


def certificate_from_json(space: OutcomeSpace, data) -> IndifferenceCertificate:
    return from_json(IndifferenceCertificate, space, data)


# ---- verdicts and witnesses -------------------------------------------------


# (kind, route) -> class.  A document without a route decodes as the
# first class declared for its kind: built in reverse, so that class
# writes its (kind, None) entry last.
_WITNESS_BY_KEY = {
    (cls.kind, route): cls
    for cls in reversed(WITNESS_TYPES)
    for route in (None, getattr(cls, "route", None))
}


def witness_to_json(witness) -> dict:
    """"kind", then "route" where the class has one, then the fields of
    the witness's class in WITNESS_TYPES (a subclass adds none)."""
    cls = next((c for c in type(witness).__mro__ if c in WITNESS_TYPES), None)
    if cls is None:
        raise ValueError(f"cannot serialize witness {witness!r}")
    doc = {"kind": cls.kind}
    if hasattr(cls, "route"):
        doc["route"] = cls.route
    doc.update(_fields_to_json(witness, cls))
    return doc


def witness_from_json(space: OutcomeSpace, data: dict):
    kind = _shaped(data, dict, "witness").get("kind")
    cls = _WITNESS_BY_KEY.get((kind, data.get("route")),
                              _WITNESS_BY_KEY.get((kind, None)))
    if cls is None:
        raise ValueError(f"unknown witness kind {kind!r}")
    return from_json(cls, space, data)


def verdict_to_json(verdict: AxiomVerdict) -> dict:
    doc = {
        "axiom": verdict.axiom,
        "violated": verdict.violated,
        "budget": to_json(verdict.budget),
    }
    if verdict.route is not None:
        doc["route"] = verdict.route
    if verdict.witness is not None:
        doc["witness"] = witness_to_json(verdict.witness)
    if verdict.found is not None:
        doc["found"] = to_json(verdict.found)
    return doc


# ---- scenario files ---------------------------------------------------------


# A scenario lottery may also be written "uniform" or as a
# comma-separated string of rationals.
LotteryField = Annotated[Lottery, parse_lottery_field]


@dataclass(frozen=True)
class StrictPair:
    better: Lottery
    worse: Lottery


@dataclass(frozen=True)
class Construct:
    """The best, middle and worst lottery of a construction."""

    p: LotteryField
    q: LotteryField
    r: LotteryField


@dataclass(frozen=True)
class CheckRequest:
    axiom: str | None = None
    variant: str | None = None
    grid: int | None = None
    depth: int | None = None

    def __post_init__(self):
        if self.variant is not None and self.axiom != "independence":
            raise ValueError(f"check variant {self.variant!r} applies only to "
                             f"axiom 'independence', got {self.axiom!r}")
        if self.depth is not None and (type(self.depth) is not int or self.depth < 1):
            raise ValueError(f"check depth must be an int >= 1, got {self.depth!r}")


@dataclass(frozen=True)
class Scenario:
    """Everything a scenario file declared, already validated: one
    field per scenario key, decoded by ``from_json``."""

    space: OutcomeSpace
    utility: UtilityFunction | None = None
    oracle: PreferenceOracle | None = None
    indifferent: tuple[Lottery, ...] | None = None
    strict: StrictPair | None = None
    reference: LotteryField | None = None
    queries: tuple[LotteryField, ...] = ()
    target: LotteryField | None = None
    construct: Construct | None = None
    check: CheckRequest | None = None

    def __post_init__(self):
        self.elicitation  # built now, so bad indifference data fails at load

    @cached_property
    def elicitation(self) -> ElicitationInput | None:
        if self.indifferent is None:
            return None
        strict = self.strict and (self.strict.better, self.strict.worse)
        return ElicitationInput(self.indifferent, strict)


def _space_of(data: dict) -> OutcomeSpace:
    if "labels" in data:
        return OutcomeSpace(_decoder(tuple[str, ...])(None, data["labels"], "labels"))
    if "outcomes" in data:
        return OutcomeSpace.of_size(_shaped(data["outcomes"], int, "outcomes"))
    # fall back to whatever sized data is present
    for key in ("utility", "indifferent", "queries"):
        seq = data.get(key)
        if seq and isinstance(seq, list):
            first = seq[0] if key != "utility" else seq
            if isinstance(first, list):
                return OutcomeSpace.of_size(len(first))
    raise EmptyInput("scenario declares no outcome space "
                     "(need 'outcomes' or 'labels')")


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    version = data.get("version")
    if version != SCHEMA_VERSION or type(version) is not int:
        raise ValueError(
            f"unsupported scenario version {version!r}; expected {SCHEMA_VERSION}")
    return from_json(Scenario, _space_of(data), data)


def load_scenario(path: str | None, keys: dict | None = None,
                  outcomes: int = 3) -> Scenario:
    """The scenario in the JSON file at path (an empty one over
    ``outcomes`` outcomes when path is None) with ``keys`` written over
    it: "block.key" replaces one key inside a block, any other key the
    whole value.  Decodes the result once."""
    if path is None:
        data = {"version": SCHEMA_VERSION, "outcomes": outcomes}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, parse_float=_reject_float)
            except json.JSONDecodeError as exc:
                raise ValueError(f"scenario is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("scenario must be a JSON object")
    for key, value in (keys or {}).items():
        block, _, name = key.rpartition(".")
        if block:
            inner = data.get(block)
            value = {**({} if inner is None else _shaped(inner, dict, block)),
                     name: value}
        data[block or key] = value
    return scenario_from_dict(data)


def _reject_float(text: str):
    raise ValueError(
        f"scenario contains a floating literal {text!r}; "
        "write rationals as strings like \"1/3\"")


def dump_document(doc: dict) -> str:
    """Canonical textual form: two-space indent, keys in insertion
    order, trailing newline.  Byte-identical for identical inputs."""
    return json.dumps(doc, indent=2) + "\n"
