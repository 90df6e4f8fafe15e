"""Batch command line front end.

One subcommand per public operation: elicit, generate, classify,
certify, construct-ip, check.  Inputs come from a JSON scenario file
and/or flags (flags win).  Output is a short human-readable header
followed by one JSON document, all rationals in canonical string form;
--out mirrors stdout byte for byte.

Exit codes: 0 success (including NoViolationFound), 1 a check found a
violation, 2 invalid input with the failed invariant named on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .axioms import (
    CONTINUITY_KINDS,
    DEFAULT_DEPTH,
    check_continuity,
    check_convexity,
    check_independence,
    check_ip,
    check_line_order,
    check_translation,
    check_weak_order,
)
from .errors import LotprefError
from .grids import GridSpec
from .lotteries import OutcomeSpace
from .oracles import ExpectedUtilityOracle, RepresentedOracle, UtilityFunction
from .rationals import format_rational, parse_rational
from .representation import (
    construct_ip_via_solvability,
    elicit,
    classify,
    generate_indifferent_points,
    indifference_certificate,
    replay_certificate,
)
from .scenario import (
    SCHEMA_VERSION,
    Scenario,
    certificate_to_json,
    construction_to_json,
    dump_document,
    load_scenario,
    lottery_to_json,
    oracle_from_json,
    oracle_to_json,
    parse_lottery_field,
    replay_to_json,
    representation_to_json,
    verdict_to_json,
)

# --axiom name -> check run as (oracle, grid, variant, depth).  Each row
# looks its check_* name up in this module when it runs, so rebinding a
# name (as perfbench/layers.py does to time it) reaches the CLI too.
AXIOM_CHECKS = {
    "weak-order": lambda o, g, v, d: check_weak_order(o, g),
    "independence": lambda o, g, v, d: check_independence(
        o, g, v or "independence"),
    "betweenness": lambda o, g, v, d: check_independence(o, g, "betweenness"),
    "ip": lambda o, g, v, d: check_ip(o, g),
    **{kind: lambda o, g, v, d, kind=kind: check_continuity(o, kind, g, int(d))
       for kind in CONTINUITY_KINDS},
    "convexity": lambda o, g, v, d: check_convexity(o, g),
    "translation": lambda o, g, v, d: check_translation(o, g),
    "line-order": lambda o, g, v, d: check_line_order(o, g),
}

DEFAULT_OUTCOMES = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotpref",
        description="Exact lottery-preference toolkit: elicitation, "
                    "certificates, constructions, and axiom checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", metavar="FILE",
                       help="JSON scenario file (version %d)" % SCHEMA_VERSION)
        p.add_argument("--out", metavar="FILE",
                       help="also write the output to FILE (mirrors stdout)")
        p.add_argument("--outcomes", type=int, metavar="N",
                       help="outcome count when no scenario declares one "
                            "(default %d)" % DEFAULT_OUTCOMES)

    p = sub.add_parser("elicit", help="fit a representation to "
                                      "indifference data")
    common(p)
    p.set_defaults(run=_cmd_elicit)

    p = sub.add_parser("generate", help="indifferent points from a utility")
    common(p)
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--utility", metavar="CSV",
                   help="comma-separated utility values, e.g. 0,1,2")

    p = sub.add_parser("classify", help="rank queries against a reference "
                                        "under an elicited representation")
    common(p)
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--reference", metavar="LOTTERY",
                   help="reference lottery: 'uniform' or comma-separated "
                        "weights")
    p.add_argument("--query", action="append", metavar="LOTTERY",
                   help="query lottery (repeatable)")

    p = sub.add_parser("certify", help="step-by-step indifference "
                                       "certificate for a target")
    common(p)
    p.set_defaults(run=_cmd_certify)
    p.add_argument("--target", metavar="LOTTERY",
                   help="target lottery to certify")

    p = sub.add_parser("construct-ip", help="construct indifferent points "
                                            "via the oracle's solve "
                                            "capability")
    common(p)
    p.set_defaults(run=_cmd_construct_ip)
    _oracle_flags(p)
    p.add_argument("--p", metavar="LOTTERY", help="best lottery of the triple")
    p.add_argument("--q", metavar="LOTTERY", help="middle lottery")
    p.add_argument("--r", metavar="LOTTERY", help="worst lottery")

    p = sub.add_parser("check", help="hunt for an axiom violation on a grid")
    common(p)
    p.set_defaults(run=_cmd_check)
    _oracle_flags(p)
    p.add_argument("--axiom", choices=tuple(AXIOM_CHECKS), help="axiom to falsify")
    p.add_argument("--variant", choices=("independence", "betweenness"),
                   help="independence variant (with --axiom independence)")
    p.add_argument("--grid", type=int, metavar="D",
                   help="grid denominator bound (default 4)")
    p.add_argument("--depth", type=int, metavar="H",
                   help="dyadic probe depth (default %d)" % DEFAULT_DEPTH)

    return parser


def _oracle_flags(p):
    p.add_argument("--oracle",
                   choices=("eu", "lexicographic", "hybrid", "majority"),
                   help="oracle kind (scenario files also support "
                        "'represented')")
    p.add_argument("--utility", metavar="CSV",
                   help="comma-separated utility values for --oracle eu")
    p.add_argument("--priority", metavar="CSV",
                   help="comma-separated outcome priority for "
                        "--oracle lexicographic")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = args.run(args)
    except LotprefError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


# ---- shared resolution ------------------------------------------------------


def _scenario(args) -> Scenario | None:
    if args.scenario:
        return load_scenario(args.scenario)
    return None


def _space(args, scenario: Scenario | None,
           utility_csv: str | None = None) -> OutcomeSpace:
    if scenario is not None:
        return scenario.space
    if utility_csv:
        return OutcomeSpace.of_size(len(utility_csv.split(",")))
    if args.outcomes:
        return OutcomeSpace.of_size(args.outcomes)
    return OutcomeSpace.of_size(DEFAULT_OUTCOMES)


def _utility_from_csv(space: OutcomeSpace, csv: str) -> UtilityFunction:
    values = tuple(parse_rational(part.strip()) for part in csv.split(","))
    return UtilityFunction(space, values)


def _oracle(args, scenario: Scenario | None, space: OutcomeSpace):
    """Flags win over the scenario's oracle block; a scenario with only
    a utility implies the expected-utility oracle over it."""
    if getattr(args, "oracle", None):
        block = {"kind": args.oracle}
        if args.utility:
            block["utility"] = args.utility.split(",")
        if args.priority:
            block["priority"] = args.priority.split(",")
        return oracle_from_json(space, block)
    if scenario is not None and scenario.oracle is not None:
        return scenario.oracle
    if scenario is not None and scenario.utility is not None:
        return ExpectedUtilityOracle(scenario.utility)
    raise ValueError("no oracle given (use --oracle or a scenario oracle "
                     "block)")


def _given(*values):
    """The first value that was given at all; 0 counts as given, so a
    bad bound reaches the checker and fails there."""
    return next(v for v in values if v is not None)


def _tuple_str(values) -> str:
    return "(" + ", ".join(format_rational(v) for v in values) + ")"


def _points_block(points) -> str:
    lines = ["points:"]
    for p in points:
        lines.append("  " + _tuple_str(p.weights))
    return "\n".join(lines) + "\n"


# ---- subcommands ------------------------------------------------------------


def _cmd_elicit(args) -> tuple[str, int]:
    scenario = _scenario(args)
    if scenario is None or scenario.elicitation is None:
        raise ValueError("elicit needs a scenario with 'indifferent' data")
    rep = elicit(scenario.elicitation)
    text = "u = %s\noriented = %s\n" % (
        _tuple_str(rep.utility.values), "true" if rep.oriented else "false")
    doc = {"version": SCHEMA_VERSION,
           "representation": representation_to_json(rep)}
    return text + dump_document(doc), 0


def _cmd_generate(args) -> tuple[str, int]:
    scenario = _scenario(args)
    if args.utility:
        space = _space(args, scenario, args.utility)
        utility = _utility_from_csv(space, args.utility)
    elif scenario is not None and scenario.utility is not None:
        utility = scenario.utility
    else:
        raise ValueError("generate needs --utility or a scenario 'utility'")
    points, construction = generate_indifferent_points(utility)
    doc = {
        "version": SCHEMA_VERSION,
        "points": [lottery_to_json(p) for p in points],
        "construction": construction_to_json(construction),
    }
    return _points_block(points) + dump_document(doc), 0


def _cmd_classify(args) -> tuple[str, int]:
    scenario = _scenario(args)
    if scenario is None or scenario.elicitation is None:
        raise ValueError("classify needs a scenario with 'indifferent' data")
    rep = elicit(scenario.elicitation)
    space = scenario.space
    if args.reference is not None:
        reference = parse_lottery_field(space, args.reference, "reference")
    elif scenario.reference is not None:
        reference = scenario.reference
    else:
        raise ValueError("classify needs --reference or a scenario "
                         "'reference'")
    if args.query:
        queries = tuple(
            parse_lottery_field(space, q, "query") for q in args.query)
    elif scenario.queries:
        queries = scenario.queries
    else:
        raise ValueError("classify needs --query or scenario 'queries'")
    results = [classify(rep, reference, q) for q in queries]
    text = "".join(res.value + "\n" for res in results)
    doc = {
        "version": SCHEMA_VERSION,
        "reference": lottery_to_json(reference),
        "results": [
            {"query": lottery_to_json(q), "result": res.value}
            for q, res in zip(queries, results)
        ],
    }
    return text + dump_document(doc), 0


def _cmd_certify(args) -> tuple[str, int]:
    scenario = _scenario(args)
    if scenario is None or scenario.elicitation is None:
        raise ValueError("certify needs a scenario with 'indifferent' data")
    points = scenario.elicitation.indifferent
    space = scenario.space
    if args.target is not None:
        target = parse_lottery_field(space, args.target, "target")
    elif scenario.target is not None:
        target = scenario.target
    else:
        raise ValueError("certify needs --target or a scenario 'target'")

    if scenario.oracle is None and scenario.utility is None:
        # The indifference data itself pins the class: orientation does
        # not matter for ~, so +1 serves even without a strict pair.
        rep = elicit(scenario.elicitation)
        oracle = RepresentedOracle(space, rep.hyperplane, 1)
    else:
        oracle = _oracle(args, scenario, space)

    cert = indifference_certificate(target, points)
    replay = replay_certificate(cert, oracle)
    text = "branch = %s\nreplay = %s\n" % (
        cert.branch, "ok" if replay.ok else "failed")
    doc = {
        "version": SCHEMA_VERSION,
        "certificate": certificate_to_json(cert),
        "replay": replay_to_json(replay),
    }
    if not replay.ok:
        first = replay.failures()[0]
        print(f"error: CertificateReplayFailed: {first}", file=sys.stderr)
        return text + dump_document(doc), 2
    return text + dump_document(doc), 0


def _cmd_construct_ip(args) -> tuple[str, int]:
    scenario = _scenario(args)
    space = _space(args, scenario, args.utility)
    oracle = _oracle(args, scenario, space)
    if args.p and args.q and args.r:
        triple = tuple(
            parse_lottery_field(space, field, name)
            for field, name in ((args.p, "p"), (args.q, "q"), (args.r, "r")))
    elif scenario is not None and scenario.construct is not None:
        triple = scenario.construct
    else:
        raise ValueError("construct-ip needs --p/--q/--r or a scenario "
                         "'construct' block")
    points = construct_ip_via_solvability(oracle, *triple)
    doc = {
        "version": SCHEMA_VERSION,
        "oracle": oracle_to_json(oracle),
        "points": [lottery_to_json(p) for p in points],
    }
    return _points_block(points) + dump_document(doc), 0


def _cmd_check(args) -> tuple[str, int]:
    scenario = _scenario(args)
    space = _space(args, scenario, args.utility)
    oracle = _oracle(args, scenario, space)
    block = scenario.check if scenario is not None and scenario.check else {}

    axiom = args.axiom or block.get("axiom")
    if not axiom:
        raise ValueError("check needs --axiom or a scenario check block")
    if axiom not in AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}")
    variant = args.variant or block.get("variant")
    bound = _given(args.grid, block.get("grid"), 4)
    depth = _given(args.depth, block.get("depth"), DEFAULT_DEPTH)
    grid = GridSpec(space, int(bound))
    verdict = AXIOM_CHECKS[axiom](oracle, grid, variant, depth)

    text = "axiom = %s\nverdict = %s\n" % (
        verdict.axiom, "violated" if verdict.violated else "no-violation-found")
    doc = {
        "version": SCHEMA_VERSION,
        "oracle": oracle_to_json(oracle),
        "verdict": verdict_to_json(verdict),
    }
    return text + dump_document(doc), 1 if verdict.violated else 0


if __name__ == "__main__":
    sys.exit(main())
