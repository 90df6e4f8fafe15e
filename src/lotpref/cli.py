"""Batch command line front end.

One subcommand per public operation: elicit, generate, classify,
certify, construct-ip, check.  Every input is a scenario key: each flag
replaces the key of the same name in the --scenario file (or in an
empty scenario), --p/--q/--r and --axiom/--grid/--depth one key
inside the construct or check block, and the result is decoded once by
``load_scenario``, which refuses any key nothing reads.  --utility is
the eu oracle's payoffs with --oracle eu and the scenario's utility
without --oracle, and --priority the lexicographic oracle's; either
flag with another --oracle kind is refused.  ``main`` loads the
scenario once and hands it to the subcommand, which returns a short
human-readable header and the body of its JSON document; main writes
the envelope, the header followed by the document with its "version"
key first, all rationals in canonical string form, to stdout and to
--out, which mirrors stdout byte for byte.

Exit codes: 0 success (including NoViolationFound), 1 a check found a
violation, 2 invalid input with the failed invariant named on stderr
(an --out file that cannot be written among it), or a scan hit the
oracle did not confirm (``UnconfirmedHit``), which is no verdict at
all.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .axioms import (
    _PROBE_KINDS,
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
from .oracles import ExpectedUtilityOracle
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
    oracle_to_json,
    parse_lottery_field,  # noqa: F401  (perfbench/layers.py times it here)
    replay_to_json,
    representation_to_json,
    verdict_to_json,
)

# --axiom name -> check run as (oracle, grid, depth).  Each row
# looks its check_* name up in this module when it runs, so rebinding a
# name (as perfbench/layers.py does to time it) reaches the CLI too.
AXIOM_CHECKS = {
    "weak-order": lambda o, g, d: check_weak_order(o, g),
    "independence": lambda o, g, d: check_independence(o, g),
    "betweenness": lambda o, g, d: check_independence(o, g, "betweenness"),
    "ip": lambda o, g, d: check_ip(o, g),
    **{kind: lambda o, g, d, kind=kind: check_continuity(o, kind, g, d)
       for kind in CONTINUITY_KINDS},
    "convexity": lambda o, g, d: check_convexity(o, g),
    "translation": lambda o, g, d: check_translation(o, g),
    "line-order": lambda o, g, d: check_line_order(o, g),
}

DEFAULT_OUTCOMES = 3


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, and an append flag starts a fresh list."""
    parser = argparse.ArgumentParser(
        prog="lotpref",
        description="Exact lottery-preference toolkit: elicitation, "
                    "certificates, constructions, and axiom checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--scenario", metavar="FILE",
                       help="JSON scenario file (version %d)" % SCHEMA_VERSION)
        p.add_argument("--out", metavar="FILE",
                       help="also write the output to FILE (mirrors stdout)")
        p.add_argument("--outcomes", type=int, metavar="N",
                       help="outcome count when neither --scenario nor "
                            "--utility fixes one (default %d); a count that "
                            "disagrees with theirs is refused"
                            % DEFAULT_OUTCOMES)
        return p

    command("elicit", _cmd_elicit,
            "fit a representation to indifference data")

    p = command("generate", _cmd_generate, "indifferent points from a utility")
    p.add_argument("--utility", metavar="CSV",
                   help="comma-separated utility values, e.g. 0,1,2")

    p = command("classify", _cmd_classify, "rank queries against a reference "
                                           "under an elicited representation")
    p.add_argument("--reference", metavar="LOTTERY",
                   help="reference lottery: 'uniform' or comma-separated "
                        "weights")
    p.add_argument("--query", dest="queries", action="append",
                   metavar="LOTTERY", help="query lottery (repeatable)")

    p = command("certify", _cmd_certify,
                "step-by-step indifference certificate for a target")
    p.add_argument("--target", metavar="LOTTERY",
                   help="target lottery to certify")

    p = command("construct-ip", _cmd_construct_ip, "construct indifferent "
                "points via the oracle's solve capability")
    _oracle_flags(p)
    for key, role in (("p", "best lottery of the triple"),
                      ("q", "middle lottery"), ("r", "worst lottery")):
        p.add_argument("--" + key, dest="construct." + key,
                       metavar="LOTTERY", help=role)

    p = command("check", _cmd_check, "hunt for an axiom violation on a grid")
    _oracle_flags(p)
    p.add_argument("--axiom", dest="check.axiom", choices=tuple(AXIOM_CHECKS),
                   help="axiom to falsify")
    p.add_argument("--grid", dest="check.grid", type=int, metavar="D",
                   help="grid denominator bound (default 4)")
    p.add_argument("--depth", dest="check.depth", type=int, metavar="H",
                   help="least dyadic probe depth (default %d): built-in "
                        "oracles raise it to where probes are exact; only "
                        "%s read it, and any other axiom refuses it"
                        % (DEFAULT_DEPTH, ", ".join(_PROBE_KINDS)))

    return parser


def _oracle_flags(p):
    p.add_argument("--oracle",
                   choices=("eu", "lexicographic", "hybrid", "majority"),
                   help="oracle kind (scenario files also support "
                        "'represented')")
    p.add_argument("--utility", metavar="CSV",
                   help="comma-separated utility values: the eu oracle's "
                        "with --oracle eu, the scenario's utility without "
                        "--oracle")
    p.add_argument("--priority", metavar="CSV",
                   help="comma-separated outcome priority for "
                        "--oracle lexicographic")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        header, body, code = args.run(_scenario(args))
        text = header + dump_document({"version": SCHEMA_VERSION, **body})
        # An unwritable --out is invalid input like any other: exit 1
        # would read as a violation.
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (LotprefError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


# ---- shared resolution ------------------------------------------------------

# Flag dests that are scenario keys; "block.key" is one key inside the
# construct or check block.
KEY_FLAGS = ("reference", "queries", "target", "construct.p", "construct.q",
             "construct.r", "check.axiom", "check.grid", "check.depth")


def _scenario(args) -> Scenario:
    """The scenario file, or an empty scenario sized by --utility, then
    --outcomes, with every given flag written over its scenario key.
    An --outcomes the scenario or --utility contradicts is refused."""
    keys = {key: getattr(args, key) for key in KEY_FLAGS
            if getattr(args, key, None) is not None}
    utility = getattr(args, "utility", None)
    priority = getattr(args, "priority", None)
    oracle = getattr(args, "oracle", None)
    for flag, value in (("--utility", utility), ("--priority", priority)):
        if value == "":
            raise ValueError(f"{flag} needs a value")
    if priority is not None and oracle != "lexicographic":
        raise ValueError("--priority needs --oracle lexicographic")
    if utility is not None and oracle not in (None, "eu"):
        raise ValueError(f"--utility needs --oracle eu or no --oracle, "
                         f"got --oracle {oracle}")
    if utility is not None:
        utility = utility.split(",")
        for entry in utility:
            try:
                parse_rational(entry)
            except ValueError:
                raise ValueError(
                    f"--utility entries must be exact rationals such as 2 "
                    f"or -1/3, got {entry!r}") from None
        outcomes = len(utility)
    else:
        outcomes = DEFAULT_OUTCOMES if args.outcomes is None else args.outcomes
    if oracle:
        block = keys["oracle"] = {"kind": oracle}
        if utility is not None:
            block["utility"] = utility
        if priority is not None:
            block["priority"] = [_priority_entry(i) for i in priority.split(",")]
    elif utility is not None:
        keys["utility"] = utility
    scenario = load_scenario(args.scenario, keys, outcomes)
    if args.outcomes not in (None, scenario.space.size):
        source = "--scenario" if args.scenario else "--utility"
        raise ValueError(f"--outcomes is {args.outcomes} but {source} gives "
                         f"{scenario.space.size} outcomes")
    return scenario


def _priority_entry(entry: str) -> int:
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"--priority entries must be ints, got {entry!r}") from None


def _oracle(scenario: Scenario):
    """The scenario's oracle block; a scenario with only a utility
    implies the expected-utility oracle over it."""
    if scenario.oracle is not None:
        return scenario.oracle
    if scenario.utility is not None:
        return ExpectedUtilityOracle(scenario.utility)
    raise ValueError("no oracle given (use --oracle or a scenario oracle "
                     "block)")


def _tuple_str(texts) -> str:
    return "(" + ", ".join(texts) + ")"


def _points_block(points) -> str:
    lines = ["points:"]
    for p in points:
        lines.append("  " + _tuple_str(lottery_to_json(p)))
    return "\n".join(lines) + "\n"


# ---- subcommands ------------------------------------------------------------


def _cmd_elicit(scenario: Scenario) -> tuple[str, dict, int]:
    if scenario.elicitation is None:
        raise ValueError("elicit needs a scenario with 'indifferent' data")
    rep = elicit(scenario.elicitation)
    header = "u = %s\noriented = %s\n" % (
        _tuple_str(map(format_rational, rep.utility.values)),
        "true" if rep.oriented else "false")
    return header, {"representation": representation_to_json(rep)}, 0


def _cmd_generate(scenario: Scenario) -> tuple[str, dict, int]:
    if scenario.utility is None:
        raise ValueError("generate needs --utility or a scenario 'utility'")
    points, construction = generate_indifferent_points(scenario.utility)
    return _points_block(points), {
        "points": [lottery_to_json(p) for p in points],
        "construction": construction_to_json(construction),
    }, 0


def _cmd_classify(scenario: Scenario) -> tuple[str, dict, int]:
    if scenario.elicitation is None:
        raise ValueError("classify needs a scenario with 'indifferent' data")
    rep = elicit(scenario.elicitation)
    reference, queries = scenario.reference, scenario.queries
    if reference is None:
        raise ValueError("classify needs --reference or a scenario "
                         "'reference'")
    if not queries:
        raise ValueError("classify needs --query or scenario 'queries'")
    results = [classify(rep, reference, q) for q in queries]
    return "".join(res.value + "\n" for res in results), {
        "reference": lottery_to_json(reference),
        "results": [
            {"query": lottery_to_json(q), "result": res.value}
            for q, res in zip(queries, results)
        ],
    }, 0


def _cmd_certify(scenario: Scenario) -> tuple[str, dict, int]:
    if scenario.elicitation is None:
        raise ValueError("certify needs a scenario with 'indifferent' data")
    if scenario.target is None:
        raise ValueError("certify needs --target or a scenario 'target'")

    if scenario.oracle is None and scenario.utility is None:
        # The indifference data itself pins the class: orientation does
        # not matter for ~, so the elicited utility serves even without
        # a strict pair.
        oracle = ExpectedUtilityOracle(elicit(scenario.elicitation).utility)
    else:
        oracle = _oracle(scenario)

    cert = indifference_certificate(scenario.target, scenario.indifferent)
    replay = replay_certificate(cert, oracle)
    header = "branch = %s\nreplay = %s\n" % (
        cert.branch, "ok" if replay.ok else "failed")
    if not replay.ok:
        first = replay.failures()[0]
        print(f"error: CertificateReplayFailed: {first}", file=sys.stderr)
    return header, {
        "certificate": certificate_to_json(cert),
        "replay": replay_to_json(replay),
    }, 0 if replay.ok else 2


def _cmd_construct_ip(scenario: Scenario) -> tuple[str, dict, int]:
    oracle = _oracle(scenario)
    triple = scenario.construct
    if triple is None:
        raise ValueError("construct-ip needs --p/--q/--r or a scenario "
                         "'construct' block")
    points = construct_ip_via_solvability(oracle, triple.p, triple.q, triple.r)
    return _points_block(points), {
        "oracle": oracle_to_json(oracle),
        "points": [lottery_to_json(p) for p in points],
    }, 0


def _cmd_check(scenario: Scenario) -> tuple[str, dict, int]:
    oracle = _oracle(scenario)
    check = scenario.check
    if check is None or check.axiom is None:
        raise ValueError("check needs --axiom or a scenario check block")
    if check.axiom not in AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {check.axiom!r}")
    if check.depth is not None and check.axiom not in _PROBE_KINDS:
        raise ValueError(f"check depth is read only by {', '.join(_PROBE_KINDS)}; "
                         f"axiom {check.axiom} reads none")
    grid = GridSpec(scenario.space, 4 if check.grid is None else check.grid)
    depth = DEFAULT_DEPTH if check.depth is None else check.depth
    verdict = AXIOM_CHECKS[check.axiom](oracle, grid, depth)

    header = "axiom = %s\nverdict = %s\n" % (
        verdict.axiom, "violated" if verdict.violated else "no-violation-found")
    return header, {
        "oracle": oracle_to_json(oracle),
        "verdict": verdict_to_json(verdict),
    }, 1 if verdict.violated else 0


if __name__ == "__main__":
    sys.exit(main())
