import json
import subprocess
import sys
from fractions import Fraction

import pytest

from lotpref.axioms import (
    ArchimedeanWitness,
    BetweennessWitness,
    IPExhausted,
    LineOrderWitness,
    SolvabilityScanWitness,
    SolveContractWitness,
    check_continuity,
    check_convexity,
    check_independence,
    check_ip,
    check_line_order,
    check_translation,
    check_weak_order,
)
from lotpref import _kernels as kernels
from lotpref import cli
from lotpref.errors import EmptyInput, LengthMismatch
from lotpref.grids import GridSpec
from lotpref.lotteries import OutcomeSpace, make_lottery, uniform
from lotpref.oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    RepresentedOracle,
    UtilityFunction,
)
from lotpref.geometry import Hyperplane
from lotpref.representation import (
    construct_ip_via_solvability,
    generate_indifferent_points,
    indifference_certificate,
    replay_certificate,
)
from lotpref.scenario import (
    certificate_from_json,
    certificate_to_json,
    construction_to_json,
    dump_document,
    lottery_to_json,
    oracle_from_json,
    oracle_to_json,
    parse_lottery_field,
    parse_point,
    replay_to_json,
    scenario_from_dict,
    verdict_to_json,
    witness_from_json,
    witness_to_json,
)

F = Fraction
SPACE = OutcomeSpace.of_size(3)
EU = ExpectedUtilityOracle(UtilityFunction.of(SPACE, [0, 1, 2]))
HYBRID = HybridExampleOracle(SPACE)

SCENARIO = {
    "version": 1,
    "outcomes": 3,
    "indifferent": [["1/3", "1/3", "1/3"], ["5/12", "1/6", "5/12"]],
    "strict": {"better": ["0", "0", "1"], "worse": ["1", "0", "0"]},
}


def lot(*weights):
    return make_lottery(SPACE, list(weights))


def roundtrip(witness):
    doc = json.loads(json.dumps(witness_to_json(witness)))
    return witness_from_json(SPACE, doc)


# ---- value serialization ------------------------------------------------------


def test_lottery_field_forms():
    assert parse_lottery_field(SPACE, "uniform") == uniform(SPACE)
    assert parse_lottery_field(SPACE, "1/2,0,1/2") == lot("1/2", 0, "1/2")
    assert parse_lottery_field(SPACE, ["1/2", "0", "1/2"]) == lot("1/2", 0, "1/2")
    with pytest.raises(ValueError):
        parse_point(SPACE, ["1/2", 0.5, "0"], "lottery")


def test_oracle_round_trips():
    plane = Hyperplane((F(1), F(2)), (F(1, 3), F(1, 3)))
    oracles = [
        EU,
        LexicographicOracle(SPACE, (2, 0, 1)),
        HybridExampleOracle(SPACE),
        MajorityOracle(SPACE),
        RepresentedOracle(SPACE, plane, -1),
    ]
    probes = [lot(0, 0, 1), lot(0, 1, 0), uniform(SPACE), lot("1/2", "1/2", 0)]
    for oracle in oracles:
        back = oracle_from_json(SPACE, json.loads(json.dumps(oracle_to_json(oracle))))
        assert back.kind == oracle.kind
        for a in probes:
            for b in probes:
                assert back.compare(a, b) is oracle.compare(a, b)


def test_oracle_from_json_errors():
    with pytest.raises(ValueError):
        oracle_from_json(SPACE, {})
    with pytest.raises(ValueError):
        oracle_from_json(SPACE, {"kind": "dictator"})
    with pytest.raises(ValueError):
        oracle_from_json(SPACE, {"kind": "eu"})
    with pytest.raises(ValueError):
        oracle_from_json(SPACE, {"kind": "represented", "normal": ["1", "2"]})
    # Integers must be JSON integers: no bool, no numeric string.
    represented = oracle_to_json(RepresentedOracle(
        SPACE, Hyperplane((F(1), F(2)), (F(1, 3), F(1, 3))), 1))
    for doc, key in (
            ({"kind": "lexicographic", "priority": [2, True, 0]}, "priority"),
            ({"kind": "lexicographic", "priority": ["2", "0", "1"]}, "priority"),
            ({**represented, "orientation": True}, "orientation")):
        with pytest.raises(ValueError, match=key):
            oracle_from_json(SPACE, doc)


# ---- witness serialization ------------------------------------------------------


def test_checker_witnesses_survive_round_trip():
    majority = MajorityOracle(SPACE)
    produced = [
        (majority, check_weak_order(majority, GridSpec(SPACE, 3))),
        (HYBRID, check_independence(HYBRID, GridSpec(SPACE, 4))),
        (majority, check_convexity(majority, GridSpec(SPACE, 3))),
        (HYBRID, check_translation(HYBRID, GridSpec(SPACE, 4))),
        (HYBRID, check_continuity(HYBRID, "mixture", GridSpec(SPACE, 4))),
        (HYBRID, check_continuity(HYBRID, "archimedean", GridSpec(SPACE, 4))),
        (HYBRID, check_continuity(HYBRID, "grid-openness", GridSpec(SPACE, 4))),
        (HYBRID, check_continuity(HYBRID, "solvability", GridSpec(SPACE, 4))),
    ]
    for oracle, verdict in produced:
        assert verdict.violated
        back = roundtrip(verdict.witness)
        assert back == verdict.witness
        assert back.replay(oracle)


def test_solve_contract_witness_round_trip():
    class LyingOracle(ExpectedUtilityOracle):
        def solve(self, p, q, r):
            self._solve_precondition(p, q, r)
            return F(1, 7)

    liar = LyingOracle(UtilityFunction.of(SPACE, [0, 1, 2]))
    verdict = check_continuity(liar, "solvability", GridSpec(SPACE, 2))
    assert verdict.violated
    assert verdict.route == "solve-contract"
    assert isinstance(verdict.witness, SolveContractWitness)
    back = roundtrip(verdict.witness)
    assert back == verdict.witness
    assert back.replay(liar)


def test_ip_exhausted_round_trip():
    verdict = check_ip(LexicographicOracle(SPACE), GridSpec(SPACE, 4))
    assert isinstance(verdict.witness, IPExhausted)
    assert roundtrip(verdict.witness) == verdict.witness


def test_handmade_witnesses_round_trip():
    # No built-in oracle violates these two on small grids, so the
    # serialization is pinned with hand-built instances.
    between = BetweennessWitness(
        p=lot(1, 0, 0), q=lot(0, 0, 1), alpha=F(1, 2),
        pq=ComparisonResult.STRICTLY_BETTER,
        upper=ComparisonResult.STRICTLY_WORSE,
        lower=ComparisonResult.STRICTLY_BETTER)
    assert roundtrip(between) == between
    line = LineOrderWitness(
        p=lot("1/2", "1/4", "1/4"), q=lot("1/4", "1/2", "1/4"), t=F(3, 2),
        point=lot("5/8", "1/8", "1/4"), relation="point-vs-p",
        observed=ComparisonResult.INDIFFERENT)
    assert roundtrip(line) == line


def test_unknown_witness_kind_rejected():
    with pytest.raises(ValueError):
        witness_from_json(SPACE, {"kind": "telepathy"})
    with pytest.raises(ValueError):
        witness_from_json(SPACE, [])
    with pytest.raises(ValueError):
        witness_to_json(object())
    # A solvability document without a route is the alpha-scan witness.
    routeless = {"kind": "solvability", "p": ["0", "0", "1"],
                 "q": ["0", "1", "0"], "r": ["1", "0", "0"],
                 "candidate_bound": 3}
    assert witness_from_json(SPACE, routeless) == SolvabilityScanWitness(
        p=lot(0, 0, 1), q=lot(0, 1, 0), r=lot(1, 0, 0), candidate_bound=3)


def test_witness_with_unknown_case_rejected():
    # Accepted, this document would replay True against EU by reading
    # the unknown relation as "point-vs-p", although EU orders that line.
    bogus = {"kind": "line-order", "p": ["0", "0", "1"], "q": ["1", "0", "0"],
             "t": "1/2", "point": ["1/2", "0", "1/2"], "relation": "bogus",
             "observed": "strictly-worse"}
    with pytest.raises(ValueError):
        witness_from_json(SPACE, bogus)
    assert check_line_order(EU, GridSpec(SPACE, 3)).no_violation_found
    with pytest.raises(ValueError):
        ArchimedeanWitness(p=lot(0, 0, 1), q=lot(0, 1, 0), r=lot(1, 0, 0),
                           side="gamma", depth=4)
    # A mixture side of 7 steps past [0, 1] and skips most of the probes
    # its depth claims: this document replayed True against an oracle
    # that never violates mixture.
    mixture = {"kind": "mixture", "p": ["0", "0", "1"], "q": ["0", "1", "0"],
               "r": ["1/2", "1/2", "0"], "alpha_star": "0", "side": 7,
               "boundary": "strictly-worse", "depth": 24}
    openness = {"kind": "grid-openness", "p": ["0", "1", "0"],
                "q": ["1/2", "1/2", "0"], "w": ["0", "0", "1"], "side": 2,
                "depth": 24}
    for doc in (mixture, openness):
        with pytest.raises(ValueError, match="side"):
            witness_from_json(SPACE, doc)


def test_witness_with_weight_or_bound_out_of_range_rejected():
    # Accepted, these decoded and then made replay raise AlphaOutOfRange
    # (the weight) or ValueError (the bound) instead of answering.
    independence = {"kind": "independence", "p": ["0", "0", "1"],
                    "q": ["0", "1", "0"], "r": ["1", "0", "0"], "alpha": "3/2",
                    "before": "strictly-worse", "after": "strictly-worse"}
    scan = {"kind": "solvability", "route": "alpha-scan", "p": ["0", "0", "1"],
            "q": ["0", "1", "0"], "r": ["1", "0", "0"], "candidate_bound": 0}
    mixture = {"kind": "mixture", "p": ["0", "0", "1"], "q": ["0", "1", "0"],
               "r": ["1/2", "1/2", "0"], "alpha_star": "-1/2", "side": 1,
               "boundary": "strictly-worse", "depth": 24}
    for doc, field, valid in ((independence, "alpha", "1/2"),
                              (scan, "candidate_bound", 1),
                              (mixture, "alpha_star", "1/2")):
        with pytest.raises(ValueError, match=field):
            witness_from_json(SPACE, doc)
        assert witness_from_json(SPACE, {**doc, field: valid}).kind == doc["kind"]


def test_verdict_document_shape():
    verdict = check_ip(EU, GridSpec(SPACE, 4))
    doc = verdict_to_json(verdict)
    assert doc["axiom"] == "ip"
    assert doc["violated"] is False
    assert doc["budget"]["grid"] == {"outcomes": 3, "denominator_bound": 4}
    assert doc["found"]["rank"] == 1
    assert doc["found"]["points"] == [["0", "1", "0"], ["1/2", "0", "1/2"]]


# ---- certificate serialization ---------------------------------------------------


@pytest.mark.parametrize("target", [lot("3/8", "1/4", "3/8"), lot("1/2", 0, "1/2")])
def test_certificate_round_trip(target):
    points = (uniform(SPACE), lot("5/12", "1/6", "5/12"))
    cert = indifference_certificate(target, points)
    back = certificate_from_json(
        SPACE, json.loads(json.dumps(certificate_to_json(cert))))
    assert back == cert
    assert replay_certificate(back, EU).ok


def test_certificate_from_json_missing_field():
    with pytest.raises(ValueError):
        certificate_from_json(SPACE, {"target": ["1", "0", "0"]})
    cert = indifference_certificate(
        lot("3/8", "1/4", "3/8"), (uniform(SPACE), lot("5/12", "1/6", "5/12")))
    doc = certificate_to_json(cert)
    del doc["steps"][0]["alpha"]
    with pytest.raises(ValueError):
        certificate_from_json(SPACE, doc)
    doc = certificate_to_json(cert)
    doc["k_star"] = "x"
    with pytest.raises(ValueError):
        certificate_from_json(SPACE, doc)


@pytest.mark.parametrize("mutation,label", [
    ({"reduced": None}, "reduced point is the recorded mixture"),
    ({"mean": None}, "mean is the equal-weight average"),
    ({"alpha_star": None}, "pullback weight from the most negative coefficient"),
    ({"k_star": 5}, "reduced coefficients convex with a zero at k*"),
    ({"alpha_star": "2"}, "pullback weight from the most negative coefficient"),
    ({"lambda_star": "-1/2"}, "most negative coefficient drives the reduction"),
], ids=["no-reduced", "no-mean", "no-alpha_star", "k_star-5", "alpha_star-2",
        "lambda_star-minus-half"])
def test_replay_of_a_broken_reduction_certificate_fails_a_check(mutation, label):
    # The reduction fields are optional in the wire format, so a decoded
    # certificate can lack one; replay must fail the named check, not crash.
    points, _ = generate_indifferent_points(EU.utility)
    cert = indifference_certificate(lot("1/2", 0, "1/2"), points)
    doc = certificate_to_json(cert)
    for key, value in mutation.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    replay = replay_certificate(certificate_from_json(SPACE, doc), EU)
    good = replay_certificate(cert, EU)
    assert good.ok
    assert [c for c, _ in replay.checks] == [c for c, _ in good.checks]
    assert not replay.ok
    assert label in replay.failures()


@pytest.mark.parametrize("target,branch", [
    (lot("3/8", "1/4", "3/8"), "convex"),
    (lot("1/2", 0, "1/2"), "reduction"),
])
def test_replay_of_a_certificate_without_points_fails_a_check(target, branch):
    # The wire format accepts an empty point list; replay must fail a
    # named check instead of indexing the first point or dividing by 0.
    points, _ = generate_indifferent_points(EU.utility)
    doc = certificate_to_json(indifference_certificate(target, points))
    assert doc["branch"] == branch
    doc["points"], doc["coefficients"] = [], []
    replay = replay_certificate(certificate_from_json(SPACE, doc), EU)
    assert not replay.ok
    assert "certificate lists the indifferent points" in replay.failures()


# ---- exact document text -----------------------------------------------------------
#
# Each expected document is written as compact JSON; its key order and
# value types are the wire format, and dump_document must print it with
# two-space indents and a trailing newline.

CERT_POINTS = (uniform(SPACE), lot("5/12", "1/6", "5/12"))
P_UNIFORM = '["1/3", "1/3", "1/3"]'
P_SECOND = '["5/12", "1/6", "5/12"]'


def expected_text(compact: str) -> str:
    return json.dumps(json.loads(compact), indent=2) + "\n"


def test_certificate_documents_exact_text():
    convex = indifference_certificate(lot("3/8", "1/4", "3/8"), CERT_POINTS)
    assert dump_document(certificate_to_json(convex)) == expected_text(
        '{"target": ["3/8", "1/4", "3/8"], '
        f'"points": [{P_UNIFORM}, {P_SECOND}], '
        '"coefficients": ["1/2", "1/2"], "branch": "convex", '
        f'"steps": [{{"left": {P_UNIFORM}, "right": {P_SECOND}, '
        '"alpha": "1/2", "result": ["3/8", "1/4", "3/8"]}]}')
    reduction = indifference_certificate(lot("1/2", 0, "1/2"), CERT_POINTS)
    assert dump_document(certificate_to_json(reduction)) == expected_text(
        '{"target": ["1/2", "0", "1/2"], '
        f'"points": [{P_UNIFORM}, {P_SECOND}], '
        '"coefficients": ["-1", "2"], "branch": "reduction", "steps": [], '
        '"k_star": 0, "lambda_star": "1", "mean": ["3/8", "1/4", "3/8"], '
        f'"alpha_star": "2/3", "reduced": {P_SECOND}, '
        '"reduced_coefficients": ["0", "1"], "ia_rhs": ["4/9", "1/9", "4/9"]}')


def test_replay_document_exact_text():
    convex = indifference_certificate(lot("3/8", "1/4", "3/8"), CERT_POINTS)
    assert dump_document(replay_to_json(replay_certificate(convex, EU))) == (
        expected_text(
            '{"ok": true, "checks": [["coefficients sum to 1", true], '
            '["coefficients combine to the target", true], '
            '["points pairwise indifferent", true], '
            '["mixture chain stays indifferent", true], '
            '["chain ends at the target", true], '
            '["target indifferent to the class", true]]}'))


def test_construction_document_exact_text():
    _, construction = generate_indifferent_points(EU.utility)
    assert dump_document(construction_to_json(construction)) == expected_text(
        '{"matrix": [["0", "1", "2"], ["1", "1", "1"]], "mean_utility": "1", '
        f'"base": {P_UNIFORM}, "basis": [["1", "-2", "1"]], "step": "1/12"}}')


GRID_2 = '{"grid": {"outcomes": 3, "denominator_bound": 2}'
VERDICT_TEXTS = [
    # No candidate bound, no depth: the budget is the grid alone.
    (lambda g: check_weak_order(MajorityOracle(SPACE), g),
     '{"axiom": "weak-order", "violated": true, "budget": ' + GRID_2 + '}, '
     '"witness": {"kind": "weak-order", "p": ["0", "0", "1"], '
     '"q": ["0", "1", "0"], "r": ["1/2", "1/2", "0"], "pq": "indifferent", '
     '"qr": "indifferent", "pr": "strictly-worse"}}'),
    # Both budget fields.  The requested depth 3 is raised to the
    # separation depth of grid 2 and candidate bound 4: (2·4·2).bit_length().
    (lambda g: check_continuity(HYBRID, "mixture", g, 3),
     '{"axiom": "mixture", "violated": true, "budget": ' + GRID_2
     + ', "candidate_bound": 4, "depth": 5}, '
     '"witness": {"kind": "mixture", "p": ["0", "0", "1"], '
     '"q": ["0", "1", "0"], "r": ["1", "0", "0"], "alpha_star": "1", '
     '"side": -1, "boundary": "strictly-worse", "depth": 5}}'),
    # A found spanning set.
    (lambda g: check_ip(EU, g),
     '{"axiom": "ip", "violated": false, "budget": ' + GRID_2 + '}, '
     '"found": {"points": [["0", "1", "0"], ["1/2", "0", "1/2"]], '
     '"rank": 1}}'),
    # A route and no witness.
    (lambda g: check_continuity(EU, "solvability", g),
     '{"axiom": "solvability", "violated": false, "budget": ' + GRID_2
     + '}, "route": "solve-contract"}'),
]


@pytest.mark.parametrize("check,compact", VERDICT_TEXTS,
                         ids=["weak-order", "mixture", "ip", "solvability"])
def test_verdict_documents_exact_text(check, compact):
    verdict = check(GridSpec(SPACE, 2))
    assert dump_document(verdict_to_json(verdict)) == expected_text(compact)


# ---- scenario parsing --------------------------------------------------------------


def test_scenario_from_dict():
    scenario = scenario_from_dict(dict(SCENARIO))
    assert scenario.space.size == 3
    assert scenario.elicitation is not None
    assert scenario.elicitation.strict[0] == lot(0, 0, 1)


def test_scenario_version_and_space_required():
    with pytest.raises(ValueError):
        scenario_from_dict({"version": 2, "outcomes": 3})
    with pytest.raises(EmptyInput):
        scenario_from_dict({"version": 1})


def test_scenario_utility_length_checked():
    with pytest.raises(LengthMismatch):
        scenario_from_dict({"version": 1, "outcomes": 3, "utility": ["0", "1"]})


def test_scenario_block_shapes():
    with pytest.raises(ValueError):
        scenario_from_dict({
            "version": 1, "outcomes": 3,
            "indifferent": [["1/3", "1/3", "1/3"]],
            "strict": {"better": ["0", "0", "1"]},
        })
    with pytest.raises(ValueError):
        scenario_from_dict({
            "version": 1, "outcomes": 3,
            "construct": {"p": "uniform", "q": "uniform"},
        })
    with pytest.raises(ValueError):
        scenario_from_dict({
            "version": 1, "outcomes": 3, "check": "independence",
        })


# ---- command line -----------------------------------------------------------------


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lotpref.cli", *argv],
        capture_output=True, text=True)


def split_output(stdout: str):
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("{"):
            return "".join(lines[:i]), json.loads("".join(lines[i:]))
    raise AssertionError(f"no JSON document in output:\n{stdout}")


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def test_cli_elicit(scenario_file):
    proc = run_cli("elicit", "--scenario", scenario_file)
    assert proc.returncode == 0
    header, doc = split_output(proc.stdout)
    assert header == "u = (0, 1, 2)\noriented = true\n"
    assert doc["version"] == 1
    assert doc["representation"]["utility"] == ["0", "1", "2"]
    assert doc["representation"]["oriented"] is True


def test_cli_classify(scenario_file):
    proc = run_cli("classify", "--scenario", scenario_file,
                   "--reference", "uniform",
                   "--query", "0,0,1", "--query", "1,0,0")
    assert proc.returncode == 0
    header, doc = split_output(proc.stdout)
    assert header == "strictly-better\nstrictly-worse\n"
    assert doc["results"][0]["result"] == "strictly-better"
    assert doc["results"][1]["query"] == ["1", "0", "0"]


def test_cli_parser_reuse_keeps_no_query_state(scenario_file, capsys):
    # main() reuses one parser per process; each run must see only its
    # own --query list, not an appended one.
    for queries, header in ((["0,0,1", "1,0,0"], "strictly-better\nstrictly-worse\n"),
                            (["1,0,0"], "strictly-worse\n")):
        argv = ["classify", "--scenario", scenario_file, "--reference", "uniform"]
        for query in queries:
            argv += ["--query", query]
        assert cli.main(argv) == 0
        head, doc = split_output(capsys.readouterr().out)
        assert head == header
        assert [",".join(r["query"]) for r in doc["results"]] == queries
    assert cli.build_parser() is cli.build_parser()


def test_cli_generate():
    proc = run_cli("generate", "--utility", "0,1,2")
    assert proc.returncode == 0
    header, doc = split_output(proc.stdout)
    assert header.splitlines()[0] == "points:"
    assert doc["points"] == [["1/3", "1/3", "1/3"], ["5/12", "1/6", "5/12"]]
    assert doc["construction"]["step"] == "1/12"


def test_cli_certify_reduction(scenario_file, tmp_path):
    proc = run_cli("certify", "--scenario", scenario_file,
                   "--target", "1/2,0,1/2")
    assert proc.returncode == 0
    header, doc = split_output(proc.stdout)
    assert header == "branch = reduction\nreplay = ok\n"
    cert = certificate_from_json(SPACE, doc["certificate"])
    assert cert.alpha_star == F(2, 3)
    assert replay_certificate(cert, EU).ok
    assert doc["replay"]["ok"] is True


def test_cli_construct_ip():
    proc = run_cli("construct-ip", "--oracle", "eu", "--utility", "0,1,2",
                   "--p", "0,0,1", "--q", "uniform", "--r", "1,0,0")
    assert proc.returncode == 0
    _, doc = split_output(proc.stdout)
    assert doc["points"] == [["1/2", "0", "1/2"], ["0", "1", "0"]]
    assert doc["oracle"] == {"kind": "eu", "utility": ["0", "1", "2"]}


def test_cli_check_violation_exit_code_and_witness():
    proc = run_cli("check", "--oracle", "hybrid",
                   "--axiom", "independence", "--grid", "6")
    assert proc.returncode == 1
    header, doc = split_output(proc.stdout)
    assert header == "axiom = independence\nverdict = violated\n"
    witness = witness_from_json(SPACE, doc["verdict"]["witness"])
    assert witness.replay(HYBRID)


def test_cli_check_pass_exit_code():
    proc = run_cli("check", "--oracle", "eu", "--utility", "0,1,2",
                   "--axiom", "ip", "--grid", "4")
    assert proc.returncode == 0
    header, doc = split_output(proc.stdout)
    assert header == "axiom = ip\nverdict = no-violation-found\n"
    assert doc["verdict"]["found"]["points"] == [["0", "1", "0"], ["1/2", "0", "1/2"]]


def test_cli_output_is_deterministic():
    first = run_cli("check", "--oracle", "hybrid", "--axiom", "mixture",
                    "--grid", "4")
    second = run_cli("check", "--oracle", "hybrid", "--axiom", "mixture",
                     "--grid", "4")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 1


def test_cli_out_mirrors_stdout(tmp_path, scenario_file):
    out = tmp_path / "result.json"
    proc = run_cli("elicit", "--scenario", scenario_file, "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text(encoding="utf-8") == proc.stdout


def test_cli_input_errors_exit_two(tmp_path):
    proc = run_cli("elicit")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ValueError")

    floaty = tmp_path / "bad.json"
    floaty.write_text('{"version": 1, "outcomes": 3, "utility": [0.5, 1, 2]}')
    proc = run_cli("generate", "--scenario", str(floaty))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ValueError")

    unoriented = tmp_path / "unoriented.json"
    block = {k: v for k, v in SCENARIO.items() if k != "strict"}
    unoriented.write_text(json.dumps(block))
    proc = run_cli("classify", "--scenario", str(unoriented),
                   "--reference", "uniform", "--query", "0,0,1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: UnorientedRepresentation")


def test_cli_zero_grid_or_depth_exits_two(tmp_path):
    # 0 is a given value, not a missing one: it must reach the checker
    # and fail there rather than run with the default.
    for flags in (("--axiom", "weak-order", "--grid", "0"),
                  ("--axiom", "grid-openness", "--depth", "0")):
        proc = run_cli("check", "--oracle", "eu", "--utility", "0,1,2", *flags)
        assert proc.returncode == 2, flags
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ValueError")
    scenario = tmp_path / "zero.json"
    scenario.write_text(json.dumps({
        "version": 1, "outcomes": 3, "utility": ["0", "1", "2"],
        "check": {"axiom": "weak-order", "grid": 0}}))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ValueError")


# (check flags, the check key the error must name)
UNREAD_CHECK_KEYS = [
    (("--axiom", "ip", "--variant", "betweenness", "--depth", "-5", "--grid", "2"),
     "variant"),
    (("--axiom", "betweenness", "--variant", "independence"), "variant"),
    (("--axiom", "ip", "--depth", "-5", "--grid", "2"), "depth"),
    (("--axiom", "weak-order", "--depth", "0"), "depth"),
]


@pytest.mark.parametrize("flags,key", UNREAD_CHECK_KEYS,
                         ids=[" ".join(flags) for flags, _ in UNREAD_CHECK_KEYS])
def test_cli_check_block_fails_at_load(flags, key, capsys):
    # A variant only independence reads, or a depth below 1, once ran
    # silently: the first as another axiom, the second ignored.
    code = cli.main(["check", "--oracle", "eu", "--utility", "0,1,2", *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: ValueError: check {key} ")


@pytest.mark.parametrize("axiom", ["archimedean", "mixture", "grid-openness"])
def test_cli_wide_payoff_span_passes_the_probe_kinds(axiom, capsys):
    # Thresholds within 2^-24 of a candidate once read as violations at
    # the default depth; the probes now run at the separation depth.
    code = cli.main(["check", "--oracle", "eu", "--utility", "0,1,10000000",
                     "--axiom", axiom, "--grid", "3"])
    header, doc = split_output(capsys.readouterr().out)
    assert code == 0
    assert header == f"axiom = {axiom}\nverdict = no-violation-found\n"
    assert doc["verdict"]["budget"]["depth"] == 30


def test_cli_unconfirmed_hit_exits_two(monkeypatch, capsys):
    # A scan hit the oracle does not confirm is a fault, not a verdict:
    # exit 1 would read as "violated".
    monkeypatch.setattr(kernels, "scan_openness", lambda *args: (0, 0, 0))
    code = cli.main(["check", "--oracle", "eu", "--utility", "0,3,7",
                     "--axiom", "grid-openness", "--grid", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        "error: UnconfirmedHit: scan backend and oracle disagree")


def test_cli_zero_outcomes_exits_two():
    # --outcomes 0 is given, not missing: it must not run on 3 outcomes.
    proc = run_cli("check", "--oracle", "hybrid", "--outcomes", "0",
                   "--axiom", "ip", "--grid", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: EmptyInput")


EU_SCENARIO = {"version": 1, "outcomes": 3, "utility": ["0", "1", "2"]}
# (key the error must name, keys written over EU_SCENARIO)
MALFORMED = [
    ("outcomes", {"outcomes": [3]}),
    ("outcomes", {"outcomes": "3"}),
    ("queries", {"queries": None}),
    ("queries", {"queries": 5}),
    ("indifferent", {"indifferent": 5}),
    ("priority", {"oracle": {"kind": "lexicographic", "priority": 5}}),
    ("grid", {"check": {"axiom": "ip", "grid": [2]}}),
    ("grid", {"check": {"axiom": "ip", "grid": True}}),
    ("depth", {"check": {"axiom": "mixture", "depth": [6]}}),
    ("depth", {"check": {"axiom": "mixture", "depth": "6"}}),
    ("depth", {"check": {"axiom": "ip", "depth": -5}}),
    ("variant", {"check": {"axiom": "ip", "variant": "betweenness"}}),
]


def write_scenario(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("key,overrides", MALFORMED,
                         ids=[json.dumps(o) for _, o in MALFORMED])
def test_cli_malformed_scenario_value_exits_two(tmp_path, capsys, key, overrides):
    path = write_scenario(tmp_path, {**EU_SCENARIO, **overrides})
    code = cli.main(["check", "--scenario", path, "--axiom", "ip"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ValueError") and key in err


def cli_document(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return split_output(out)[1]


def test_cli_construct_flags_replace_single_keys(tmp_path, capsys):
    path = write_scenario(tmp_path, {**EU_SCENARIO, "construct": {
        "p": "0,0,1", "q": "1/2,1/2,0", "r": "1,0,0"}})
    doc = cli_document(capsys, ["construct-ip", "--scenario", path,
                                "--p", "0,1,0"])
    points = construct_ip_via_solvability(
        EU, lot(0, 1, 0), lot("1/2", "1/2", 0), lot(1, 0, 0))
    assert doc["points"] == [lottery_to_json(p) for p in points]

    path = write_scenario(tmp_path, {**EU_SCENARIO, "construct": {
        "p": "0,0,1", "q": "uniform"}})
    doc = cli_document(capsys, ["construct-ip", "--scenario", path,
                                "--r", "1,0,0"])
    points = construct_ip_via_solvability(
        EU, lot(0, 0, 1), uniform(SPACE), lot(1, 0, 0))
    assert doc["points"] == [lottery_to_json(p) for p in points]


def test_cli_grid_flag_keeps_the_check_block_axiom(tmp_path, capsys):
    path = write_scenario(tmp_path, {**EU_SCENARIO,
                                     "check": {"axiom": "ip", "grid": 4}})
    doc = cli_document(capsys, ["check", "--scenario", path, "--grid", "2"])
    assert doc["verdict"] == verdict_to_json(check_ip(EU, GridSpec(SPACE, 2)))


def test_cli_utility_without_oracle_is_expected_utility(capsys):
    doc = cli_document(capsys, ["check", "--utility", "0,1,2",
                                "--axiom", "ip", "--grid", "2"])
    assert doc["oracle"] == oracle_to_json(EU)
    assert doc["verdict"] == verdict_to_json(check_ip(EU, GridSpec(SPACE, 2)))
    doc = cli_document(capsys, ["construct-ip", "--utility", "0,1,2",
                                "--p", "0,0,1", "--q", "uniform", "--r", "1,0,0"])
    assert doc["oracle"] == oracle_to_json(EU)


# Every --axiom choice with an oracle that violates it where a built-in
# one does, and the direct API call the CLI must reproduce.
LEX = LexicographicOracle(SPACE)
MAJORITY = MajorityOracle(SPACE)
CLI_CHECKS = {
    "weak-order": ("majority", lambda g: check_weak_order(MAJORITY, g)),
    "independence": ("hybrid", lambda g: check_independence(HYBRID, g)),
    "betweenness": ("hybrid",
                    lambda g: check_independence(HYBRID, g, "betweenness")),
    "ip": ("lexicographic", lambda g: check_ip(LEX, g)),
    "grid-openness": ("hybrid",
                      lambda g: check_continuity(HYBRID, "grid-openness", g, 8)),
    "mixture": ("hybrid", lambda g: check_continuity(HYBRID, "mixture", g, 8)),
    "archimedean": ("lexicographic",
                    lambda g: check_continuity(LEX, "archimedean", g, 8)),
    "solvability": ("majority",
                    lambda g: check_continuity(MAJORITY, "solvability", g, 8)),
    "convexity": ("majority", lambda g: check_convexity(MAJORITY, g)),
    "translation": ("hybrid", lambda g: check_translation(HYBRID, g)),
    "line-order": ("hybrid", lambda g: check_line_order(HYBRID, g)),
}
# (--axiom, extra flags, CLI_CHECKS entry the run must match)
CLI_CASES = [(axiom, (), axiom) for axiom in CLI_CHECKS] + [
    ("independence", ("--variant", "betweenness"), "betweenness")]


def test_cli_check_covers_every_axiom():
    assert list(CLI_CHECKS) == list(cli.AXIOM_CHECKS)


@pytest.mark.parametrize("axiom,extra,expected", CLI_CASES,
                         ids=[" ".join((a,) + e) for a, e, _ in CLI_CASES])
def test_cli_check_matches_api(axiom, extra, expected, capsys):
    oracle, direct = CLI_CHECKS[expected]
    code = cli.main(["check", "--oracle", oracle, "--axiom", axiom,
                     "--grid", "3", "--depth", "8", *extra])
    verdict = direct(GridSpec(SPACE, 3))
    header, doc = split_output(capsys.readouterr().out)
    assert code == (1 if verdict.violated else 0)
    assert doc["verdict"] == verdict_to_json(verdict)


def test_cli_oracle_flags_reach_the_oracle(capsys):
    # --utility and --priority become fields of the oracle block.
    cases = [
        (["--oracle", "lexicographic", "--priority", "2,0,1"],
         LexicographicOracle(SPACE, (2, 0, 1))),
        (["--oracle", "eu", "--utility", "2, -1,0"],
         ExpectedUtilityOracle(UtilityFunction.of(SPACE, [2, -1, 0]))),
    ]
    for flags, oracle in cases:
        code = cli.main(["check", *flags, "--axiom", "ip", "--grid", "3"])
        verdict = check_ip(oracle, GridSpec(SPACE, 3))
        _, doc = split_output(capsys.readouterr().out)
        assert code == (1 if verdict.violated else 0)
        assert doc["oracle"] == oracle_to_json(oracle)
        assert doc["verdict"] == verdict_to_json(verdict)


def test_cli_rejects_unknown_axiom():
    proc = run_cli("check", "--oracle", "hybrid", "--axiom", "continuity")
    assert proc.returncode == 2
    assert proc.stdout == ""
