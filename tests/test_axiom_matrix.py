"""The paper's separations as a pinned matrix: every built-in oracle
against every --axiom name on 3 outcomes at grid 6, through the API and
through ``lotpref check`` in-process.  Hybrid keeps IP and betweenness
but no continuity kind, lexicographic keeps independence but not IP,
and majority keeps IP and independence but not weak order; expected
utility violates nothing."""

import json

import pytest

from lotpref import cli
from lotpref.axioms import (
    check_continuity,
    check_convexity,
    check_independence,
    check_ip,
    check_line_order,
    check_translation,
    check_weak_order,
)
from lotpref.grids import GridSpec
from lotpref.lotteries import OutcomeSpace
from lotpref.oracles import (
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    UtilityFunction,
)
from lotpref.scenario import verdict_to_json

SPACE = OutcomeSpace.of_size(3)
GRID = GridSpec(SPACE, 6)

# --oracle flags -> the oracle they build.
ORACLES = {
    ("eu", "--utility", "0,1,3"):
        ExpectedUtilityOracle(UtilityFunction.of(SPACE, [0, 1, 3])),
    ("lexicographic",): LexicographicOracle(SPACE),
    ("hybrid",): HybridExampleOracle(SPACE),
    ("majority",): MajorityOracle(SPACE),
}

# --axiom name -> the API call it stands for.
CHECKS = {
    "weak-order": lambda o: check_weak_order(o, GRID),
    "independence": lambda o: check_independence(o, GRID),
    "betweenness": lambda o: check_independence(o, GRID, "betweenness"),
    "ip": lambda o: check_ip(o, GRID),
    "grid-openness": lambda o: check_continuity(o, "grid-openness", GRID),
    "mixture": lambda o: check_continuity(o, "mixture", GRID),
    "archimedean": lambda o: check_continuity(o, "archimedean", GRID),
    "solvability": lambda o: check_continuity(o, "solvability", GRID),
    "convexity": lambda o: check_convexity(o, GRID),
    "translation": lambda o: check_translation(o, GRID),
    "line-order": lambda o: check_line_order(o, GRID),
}

# Oracle kind -> the axioms it violates; every other cell is clean.
VIOLATED = {
    "eu": set(),
    "lexicographic": {"ip", "grid-openness", "mixture", "archimedean",
                      "solvability"},
    "hybrid": {"independence", "grid-openness", "mixture", "archimedean",
               "solvability", "translation"},
    "majority": {"weak-order", "solvability", "convexity"},
}


def test_matrix_covers_every_axiom_name():
    assert list(CHECKS) == list(cli.AXIOM_CHECKS)


@pytest.mark.parametrize("flags", list(ORACLES), ids=[f[0] for f in ORACLES])
@pytest.mark.parametrize("axiom", list(CHECKS))
def test_axiom_matrix(flags, axiom, capsys):
    verdict = CHECKS[axiom](ORACLES[flags])
    assert verdict.axiom == axiom
    assert verdict.violated == (axiom in VIOLATED[flags[0]])
    code = cli.main(["check", "--oracle", *flags, "--axiom", axiom,
                     "--grid", "6"])
    out = capsys.readouterr().out
    assert code == verdict.violated
    doc = json.loads(out[out.index("{"):])
    assert doc["verdict"] == verdict_to_json(verdict)
