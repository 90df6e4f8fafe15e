"""Scenario files and JSON serialization.

A scenario is a JSON document (schema ``version: 1``) declaring an
outcome space plus whatever a subcommand needs: a utility, an oracle,
elicitation data, queries, a certificate target, a construction triple,
or a check request.  Every rational travels as a canonical string
("a/b" or "a"); floats are never accepted, so exactness survives the
round trip.

The *_to_json functions build plain dict/list trees ready for
json.dumps; the *_from_json functions rebuild domain objects and
validate as they go, raising the package's named errors.  Witness JSON
is derived from the witness dataclasses: "kind" (and "route" where a
class has one), then each field in declaration order, encoded by its
declared type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import get_type_hints

from .axioms import WITNESS_TYPES, AxiomVerdict, Budget
from .errors import EmptyInput, LengthMismatch
from .geometry import Hyperplane
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
    CertificateReplay,
    ElicitationInput,
    IndifferenceCertificate,
    KernelConstruction,
    MixStep,
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
    "dump_document",
]


# ---- primitives -------------------------------------------------------------


def fractions_to_json(values) -> list[str]:
    return [format_rational(v) for v in values]


def _parse_fractions(items, what: str) -> tuple[Fraction, ...]:
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"{what} must be a list of rational strings")
    out = []
    for item in items:
        if not isinstance(item, str):
            raise ValueError(
                f"{what} entries must be canonical rational strings, "
                f"got {item!r}")
        out.append(parse_rational(item))
    return tuple(out)


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
        return {
            "kind": "represented",
            "normal": fractions_to_json(oracle.hyperplane.normal),
            "base": fractions_to_json(oracle.hyperplane.base),
            "orientation": oracle.orientation,
        }
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
        priority = data.get("priority")
        if priority is not None:
            priority = tuple(int(i) for i in priority)
        return LexicographicOracle(space, priority)
    if kind == "hybrid":
        return HybridExampleOracle(space)
    if kind == "majority":
        return MajorityOracle(space)
    if kind == "represented":
        for field in ("normal", "base", "orientation"):
            if field not in data:
                raise ValueError(f"represented oracle needs {field!r}")
        plane = Hyperplane(
            normal=_parse_fractions(data["normal"], "normal"),
            base=_parse_fractions(data["base"], "base"))
        return RepresentedOracle(space, plane, int(data["orientation"]))
    raise ValueError(f"unknown oracle kind {kind!r}")


# ---- representation objects -------------------------------------------------


def representation_to_json(rep: Representation) -> dict:
    return {
        "outcomes": rep.space.size,
        "utility": fractions_to_json(rep.utility.values),
        "normal": fractions_to_json(rep.hyperplane.normal),
        "base": fractions_to_json(rep.hyperplane.base),
        "orientation": rep.orientation,
        "oriented": rep.oriented,
    }


def construction_to_json(kc: KernelConstruction) -> dict:
    return {
        "matrix": [fractions_to_json(row) for row in kc.matrix],
        "mean_utility": format_rational(kc.mean_utility),
        "base": lottery_to_json(kc.base),
        "basis": [fractions_to_json(vec) for vec in kc.basis],
        "step": format_rational(kc.step),
    }


def certificate_to_json(cert: IndifferenceCertificate) -> dict:
    doc = {
        "target": lottery_to_json(cert.target),
        "points": [lottery_to_json(p) for p in cert.points],
        "coefficients": fractions_to_json(cert.coefficients),
        "branch": cert.branch,
        "steps": [
            {
                "left": lottery_to_json(s.left),
                "right": lottery_to_json(s.right),
                "alpha": format_rational(s.alpha),
                "result": lottery_to_json(s.result),
            }
            for s in cert.steps
        ],
    }
    if cert.branch == "reduction":
        doc["k_star"] = cert.k_star
        doc["lambda_star"] = format_rational(cert.lambda_star)
        doc["mean"] = lottery_to_json(cert.mean)
        doc["alpha_star"] = format_rational(cert.alpha_star)
        doc["reduced"] = lottery_to_json(cert.reduced)
        doc["reduced_coefficients"] = fractions_to_json(cert.reduced_coefficients)
        doc["ia_rhs"] = lottery_to_json(cert.ia_rhs)
    return doc


def certificate_from_json(space: OutcomeSpace, data: dict) -> IndifferenceCertificate:
    if not isinstance(data, dict):
        raise ValueError("certificate must be an object")
    for field in ("target", "points", "coefficients", "branch"):
        if field not in data:
            raise ValueError(f"certificate needs {field!r}")
    steps = tuple(
        MixStep(
            left=parse_point(space, s["left"], "step left"),
            right=parse_point(space, s["right"], "step right"),
            alpha=parse_rational(s["alpha"]),
            result=parse_point(space, s["result"], "step result"),
        )
        for s in data.get("steps", ())
    )

    def opt_lot(key):
        return (parse_point(space, data[key], key)
                if data.get(key) is not None else None)

    def opt_frac(key):
        return (parse_rational(data[key])
                if data.get(key) is not None else None)

    reduced_coeffs = None
    if data.get("reduced_coefficients") is not None:
        reduced_coeffs = _parse_fractions(
            data["reduced_coefficients"], "reduced_coefficients")
    return IndifferenceCertificate(
        target=parse_point(space, data["target"], "target"),
        points=tuple(
            parse_point(space, p, "points") for p in data["points"]),
        coefficients=_parse_fractions(data["coefficients"], "coefficients"),
        branch=data["branch"],
        steps=steps,
        k_star=data.get("k_star"),
        lambda_star=opt_frac("lambda_star"),
        mean=opt_lot("mean"),
        alpha_star=opt_frac("alpha_star"),
        reduced=opt_lot("reduced"),
        reduced_coefficients=reduced_coeffs,
        ia_rhs=opt_lot("ia_rhs"),
    )


def replay_to_json(replay: CertificateReplay) -> dict:
    return {
        "ok": replay.ok,
        "checks": [[label, good] for label, good in replay.checks],
    }


# ---- verdicts and witnesses -------------------------------------------------


# (encode, decode) per declared witness field type.
_FIELD_CODECS = {
    Lottery: (lottery_to_json,
              lambda space, value, key: parse_point(space, value, key)),
    Fraction: (format_rational, lambda space, value, key: parse_rational(value)),
    ComparisonResult: (lambda result: result.value,
                       lambda space, value, key: ComparisonResult(value)),
    int: (lambda value: value, lambda space, value, key: int(value)),
    str: (lambda value: value, lambda space, value, key: value),
}


def _layout(cls) -> tuple:
    """A witness class's (field name, codec) pairs in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, _FIELD_CODECS[hints[f.name]]) for f in fields(cls))


_WITNESS_LAYOUT = {cls: _layout(cls) for cls in WITNESS_TYPES}

# (kind, route) -> class.  A document without a route decodes as the
# first class declared for its kind: built in reverse, so that class
# writes its (kind, None) entry last.
_WITNESS_BY_KEY = {
    (cls.kind, route): cls
    for cls in reversed(WITNESS_TYPES)
    for route in (None, getattr(cls, "route", None))
}


def witness_to_json(witness) -> dict:
    cls = next((c for c in type(witness).__mro__ if c in _WITNESS_LAYOUT), None)
    if cls is None:
        raise ValueError(f"cannot serialize witness {witness!r}")
    doc = {"kind": cls.kind}
    if hasattr(cls, "route"):
        doc["route"] = cls.route
    for name, (encode, _) in _WITNESS_LAYOUT[cls]:
        doc[name] = encode(getattr(witness, name))
    return doc


def witness_from_json(space: OutcomeSpace, data: dict):
    kind = data.get("kind")
    cls = _WITNESS_BY_KEY.get((kind, data.get("route")),
                              _WITNESS_BY_KEY.get((kind, None)))
    if cls is None:
        raise ValueError(f"unknown witness kind {kind!r}")
    return cls(**{name: decode(space, data[name], name)
                  for name, (_, decode) in _WITNESS_LAYOUT[cls]})


def _budget_to_json(budget: Budget) -> dict:
    doc = {
        "grid": {
            "outcomes": budget.grid.space.size,
            "denominator_bound": budget.grid.denominator_bound,
        }
    }
    if budget.candidate_bound is not None:
        doc["candidate_bound"] = budget.candidate_bound
    if budget.depth is not None:
        doc["depth"] = budget.depth
    return doc


def verdict_to_json(verdict: AxiomVerdict) -> dict:
    doc = {
        "axiom": verdict.axiom,
        "violated": verdict.violated,
        "budget": _budget_to_json(verdict.budget),
    }
    if verdict.route is not None:
        doc["route"] = verdict.route
    if verdict.witness is not None:
        doc["witness"] = witness_to_json(verdict.witness)
    if verdict.found is not None:
        doc["found"] = {
            "points": [lottery_to_json(p) for p in verdict.found.points],
            "rank": verdict.found.rank,
        }
    return doc


# ---- scenario files ---------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Everything a scenario file declared, already validated."""

    space: OutcomeSpace
    utility: UtilityFunction | None = None
    oracle: PreferenceOracle | None = None
    elicitation: ElicitationInput | None = None
    reference: Lottery | None = None
    queries: tuple[Lottery, ...] = ()
    target: Lottery | None = None
    construct: tuple[Lottery, Lottery, Lottery] | None = None
    check: dict | None = None


def _space_of(data: dict) -> OutcomeSpace:
    if "labels" in data:
        labels = data["labels"]
        if not isinstance(labels, list) or not all(
                isinstance(x, str) for x in labels):
            raise ValueError("labels must be a list of strings")
        return OutcomeSpace(tuple(labels))
    if "outcomes" in data:
        return OutcomeSpace.of_size(int(data["outcomes"]))
    # fall back to whatever sized data is present
    for key in ("utility", "indifferent", "queries"):
        seq = data.get(key)
        if seq:
            first = seq[0] if key != "utility" else seq
            if isinstance(first, list):
                return OutcomeSpace.of_size(len(first))
    raise EmptyInput("scenario declares no outcome space "
                     "(need 'outcomes' or 'labels')")


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported scenario version {version!r}; expected {SCHEMA_VERSION}")
    space = _space_of(data)

    utility = None
    if data.get("utility") is not None:
        values = _parse_fractions(data["utility"], "utility")
        if len(values) != space.size:
            raise LengthMismatch(
                f"utility has {len(values)} values for {space.size} outcomes")
        utility = UtilityFunction(space, values)

    oracle = None
    if data.get("oracle") is not None:
        oracle = oracle_from_json(space, data["oracle"])

    elicitation = None
    if data.get("indifferent") is not None:
        points = tuple(
            parse_point(space, item, "indifferent")
            for item in data["indifferent"])
        strict = None
        if data.get("strict") is not None:
            block = data["strict"]
            if not isinstance(block, dict) or "better" not in block \
                    or "worse" not in block:
                raise ValueError("strict block needs 'better' and 'worse'")
            strict = (parse_point(space, block["better"], "better"),
                      parse_point(space, block["worse"], "worse"))
        elicitation = ElicitationInput(indifferent=points, strict=strict)

    reference = None
    if data.get("reference") is not None:
        reference = parse_lottery_field(space, data["reference"], "reference")

    queries = tuple(
        parse_lottery_field(space, item, "query")
        for item in data.get("queries", ()))

    target = None
    if data.get("target") is not None:
        target = parse_lottery_field(space, data["target"], "target")

    construct = None
    if data.get("construct") is not None:
        block = data["construct"]
        if not isinstance(block, dict) or any(
                key not in block for key in ("p", "q", "r")):
            raise ValueError("construct block needs 'p', 'q' and 'r'")
        construct = (parse_lottery_field(space, block["p"], "p"),
                     parse_lottery_field(space, block["q"], "q"),
                     parse_lottery_field(space, block["r"], "r"))

    check = data.get("check")
    if check is not None and not isinstance(check, dict):
        raise ValueError("check block must be an object")

    return Scenario(
        space=space,
        utility=utility,
        oracle=oracle,
        elicitation=elicitation,
        reference=reference,
        queries=queries,
        target=target,
        construct=construct,
        check=check,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=_reject_float,
                             parse_int=int)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def _reject_float(text: str):
    raise ValueError(
        f"scenario contains a floating literal {text!r}; "
        "write rationals as strings like \"1/3\"")


def dump_document(doc: dict) -> str:
    """Canonical textual form: two-space indent, keys in insertion
    order, trailing newline.  Byte-identical for identical inputs."""
    return json.dumps(doc, indent=2) + "\n"
