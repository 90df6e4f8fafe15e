"""The compiled, level and pure scan paths must agree hit for hit.

Every scan is run on the same encoded grid through the dispatcher with
the compiled extension loaded (built by the ``compiled`` fixture in
conftest.py) and directly against the pure kernels.  The rows in
``levels.PROVEN`` take the level path even with the extension loaded;
the other lex, hybrid and majority rows take the compiled path.  The
compiled mixture scan, which no route reaches any more, is held to the
pure one directly.  First hits are compared exactly, None included.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from lotpref import _kernels as kernels
from lotpref._kernels import levels, pure
from lotpref.grids import GridSpec, dyadic_alphas, enumerate_grid, rationals_between
from lotpref.lotteries import OutcomeSpace

F = Fraction
SPACE = OutcomeSpace.of_size(3)

SPECS = [
    ("eu", (0, 1, 2)),
    ("eu", (3, -1, 0)),
    ("lex", (0, 1, 2)),
    ("lex", (2, 0, 1)),
    ("hybrid", ()),
    ("majority", ()),
]

def encoded(bound):
    grid = enumerate_grid(GridSpec(SPACE, bound))
    nums, den = kernels.encode_lotteries(grid)
    return nums, den


def pairs(fracs):
    return [(a.numerator, a.denominator) for a in fracs]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s[0]}{s[1]}")
@pytest.mark.parametrize("bound", [2, 3])
def test_triple_scans_agree(compiled, spec, bound):
    nums, den = encoded(bound)
    path = "level" if spec[0] == "eu" else "compiled"
    assert kernels.backend_name(spec, "archimedean", den) == path
    alphas = pairs(dyadic_alphas(bound))
    candidates = pairs(rationals_between(F(0), F(1), bound))
    cases = [
        ("transitivity", (nums, den)),
        ("independence", (nums, den, alphas)),
        ("betweenness", (nums, den, alphas)),
        ("convexity", (nums, den, candidates)),
        ("translation", (nums, den)),
        ("line_order", (nums, den, bound)),
        ("mixture", (nums, den, candidates, 8)),
        ("archimedean", (nums, den, 8)),
        ("solvability_scan", (nums, den, candidates)),
        ("openness", (nums, den, 8)),
    ]
    for name, args in cases:
        hit = getattr(kernels, f"scan_{name}")(spec, *args)
        pure_hit = getattr(pure, f"scan_{name}")(spec, *args)
        path = kernels.backend_name(spec, name, den)
        assert hit == pure_hit, f"{path} {name} diverged on {spec}"
    if spec[0] != "eu":
        fast_hit = compiled._fast.scan_mixture(
            kernels._KIND_CODES[spec[0]], list(spec[1]), kernels._flat(nums),
            len(nums), len(nums[0]), den, kernels._flat(candidates), 8)
        assert fast_hit == pure.scan_mixture(spec, nums, den, candidates, 8), \
            f"compiled mixture diverged on {spec}"


@pytest.mark.parametrize("utility", [(0, 1, 2), (5, 5, 5), (-2, 7, 1)])
def test_solvability_solve_agrees(compiled, utility):
    nums, den = encoded(3)
    assert kernels.backend_name(("eu", utility), "solvability_solve", den) \
        == "level"
    assert kernels.scan_solvability_solve is levels.scan_solvability_solve
    # A linear payoff always solves, so the honest answer is no hit.
    assert kernels.scan_solvability_solve(list(utility), nums, den) is None


def test_callback_spec_runs_pure():
    # An unencodable oracle arrives as a comparison callback; the
    # dispatcher must route it to the pure backend and still match the
    # integer recipe for the same ranking.
    nums, den = encoded(2)
    utility = (0, 1, 2)

    def cmp(pn, pd, qn, qd):
        dp = sum(u * a for u, a in zip(utility, pn)) * qd
        dq = sum(u * a for u, a in zip(utility, qn)) * pd
        return (dp > dq) - (dp < dq)

    callback_spec = ("callback", (cmp,))
    assert kernels.backend_name(callback_spec, "transitivity", den) == "pure"
    eu_spec = ("eu", utility)
    alphas = pairs(dyadic_alphas(2))
    assert (kernels.scan_independence(callback_spec, nums, den, alphas)
            == pure.scan_independence(eu_spec, nums, den, alphas))
    assert (kernels.scan_transitivity(callback_spec, nums, den)
            == pure.scan_transitivity(eu_spec, nums, den))


def test_force_pure_toggle(compiled):
    nums, den = encoded(2)
    spec = ("hybrid", ())
    assert kernels.backend_name(spec, "archimedean", den) == "compiled"
    kernels.set_force_pure(True)
    try:
        assert kernels.backend_name(spec, "archimedean", den) == "pure"
        assert kernels.backend_name(("eu", (0, 1, 2)), "archimedean", den) \
            == "level"
        alphas = pairs(dyadic_alphas(2))
        forced = kernels.scan_independence(spec, nums, den, alphas)
    finally:
        kernels.set_force_pure(False)
    assert forced == kernels.scan_independence(spec, nums, den, alphas)


def test_oversized_payoffs_fall_back_to_pure():
    # Payoffs beyond 64 bits must not reach the C kernels; like every
    # eu spec, the level kernels, pure Python over unbounded ints, take
    # them.
    nums, den = encoded(2)
    big = ("eu", (0, 1 << 63, 1 << 64))
    assert kernels.backend_name(big, "transitivity", den) == "level"
    small = ("eu", (0, 1, 2))
    assert kernels.scan_transitivity(big, nums, den) \
        == kernels.scan_transitivity(small, nums, den)


@pytest.mark.parametrize("extension", [False, True], ids=["absent", "built"])
def test_backend_name_names_each_path(request, monkeypatch, extension):
    # level for every eu spec, compiled for the other recipes' computed
    # rows where the envelope allows it, else pure; the benchmark counts
    # only "compiled".
    fast = request.getfixturevalue("fastscan") if extension else None
    monkeypatch.setattr(kernels, "_fast", fast)
    nums, den = encoded(2)
    small, big = ("eu", (0, 1, 2)), ("eu", (0, 1, 1 << 125))
    expected = {
        small: "level",
        big: "level",
        ("lex", (0, 1, 2)): "compiled" if extension else "pure",
        ("callback", (None,)): "pure",
    }
    for spec, name in expected.items():
        assert kernels.backend_name(spec, "archimedean", den) == name, spec
        assert kernels.backend_name(spec, "archimedean", den, max_alpha_den=4,
                                    depth=8) == name, spec


PROVEN_ROWS = [(kind, scan) for scan, kinds in levels.PROVEN.items()
               for kind in sorted(kinds)]
KIND_SPECS = {"eu": ("eu", (0, 1, 2)), "lex": ("lex", (2, 0, 1)),
              "hybrid": ("hybrid", ()), "majority": ("majority", ())}


@pytest.mark.parametrize("mode", ["absent", "built", "forced"])
@pytest.mark.parametrize("kind,scan", PROVEN_ROWS,
                         ids=[f"{kind}-{scan}" for kind, scan in PROVEN_ROWS])
def test_proven_rows_take_the_level_path(request, monkeypatch, kind, scan, mode):
    # A proven row answers by its identity whatever the extension and
    # the force-pure toggle say.
    fast = None if mode == "absent" else request.getfixturevalue("fastscan")
    monkeypatch.setattr(kernels, "_fast", fast)
    monkeypatch.setattr(kernels, "_force_pure", False)  # restored afterwards
    kernels.set_force_pure(mode == "forced")
    _, den = encoded(2)
    assert kernels.backend_name(KIND_SPECS[kind], scan, den) == "level"


def test_generated_c_is_in_sync_with_pyx():
    # setup.py compiles the committed _fastscan.c when Cython is
    # missing, so it must be generated from the current .pyx.  Cython
    # quotes the source line behind each block of C it emits: a header
    # naming the .pyx line number, then the line itself marked
    # "# <<<<<<<<<<<<<<".  Every quote must match that .pyx line, and
    # every Python-visible function of the .pyx must be quoted.
    here = Path(kernels.__file__).parent
    pyx = (here / "_fastscan.pyx").read_text(encoding="utf-8").splitlines()
    header = re.compile(r'/\* "lotpref/_kernels/_fastscan\.pyx":(\d+)$')
    marker = "# <<<<<<<<<<<<<<"
    line_no, quoted = None, set()
    for line in (here / "_fastscan.c").read_text(encoding="utf-8").splitlines():
        found = header.search(line)
        if found:
            line_no = int(found.group(1))
        elif line.endswith(marker):
            source = line[len(" * "):-len(marker)].rstrip()
            assert source == pyx[line_no - 1].rstrip(), f"_fastscan.pyx:{line_no}"
            quoted.add(line_no)
    functions = [n for n, text in enumerate(pyx, 1) if text.startswith("def ")]
    assert functions and set(functions) <= quoted
