"""The level and pure scan paths must agree hit for hit.

Every scan is run on the same encoded grid through the dispatcher and
directly against the pure kernels.  Every encoded spec takes the level
path, and every callback spec the pure one.  First hits are compared
exactly, None included.
"""

from fractions import Fraction

import pytest

from lotpref import _kernels as kernels
from lotpref._kernels import pure
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
def test_triple_scans_agree(spec, bound):
    nums, den = encoded(bound)
    assert kernels.backend_name(spec, "archimedean", den) == "level"
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


def solve_weight(spec, nums):
    """weight(i, j, k) for the solve contract: the closed form of an eu
    spec, which solves every triple, and 1/2 for any other kind."""
    if spec[0] != "eu":
        return lambda i, j, k: (1, 2)
    levels_of = [sum(u * a for u, a in zip(spec[1], p)) for p in nums]

    def weight(i, j, k):
        span = levels_of[i] - levels_of[k]
        alpha = F(levels_of[j] - levels_of[k], span) if span else F(1)
        return alpha.numerator, alpha.denominator

    return weight


@pytest.mark.parametrize("utility", [(0, 1, 2), (5, 5, 5), (-2, 7, 1)])
def test_solvability_solve_agrees(utility):
    nums, den = encoded(3)
    spec = ("eu", utility)
    assert kernels.backend_name(spec, "solvability_solve", den) == "level"
    # A linear payoff always solves, so the honest answer is no hit,
    # and the pure walk with the same weights agrees.
    weight = solve_weight(spec, nums)
    assert kernels.scan_solvability_solve(spec, nums, den, weight) is None
    assert pure.scan_solvability_solve(spec, nums, den, weight) is None


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


def test_oversized_payoffs_take_the_level_path():
    # Payoffs beyond 64 bits take the level kernels, like every eu
    # spec: they compare over unbounded ints, so nothing overflows.
    nums, den = encoded(2)
    big = ("eu", (0, 1 << 63, 1 << 64))
    assert kernels.backend_name(big, "transitivity", den) == "level"
    small = ("eu", (0, 1, 2))
    assert kernels.scan_transitivity(big, nums, den) \
        == kernels.scan_transitivity(small, nums, den)


SCANS = [name[len("scan_"):] for name in kernels.__all__ if name.startswith("scan_")]
KIND_SPECS = {"eu": ("eu", (0, 1, 2)), "lex": ("lex", (2, 0, 1)),
              "hybrid": ("hybrid", ()), "majority": ("majority", ()),
              "callback": ("callback", (None,))}
CELLS = [(kind, scan) for scan in SCANS for kind in KIND_SPECS]


@pytest.mark.parametrize("kind,scan", CELLS,
                         ids=[f"{kind}-{scan}" for kind, scan in CELLS])
def test_every_cell_routes_by_kind(kind, scan):
    # A callback spec takes the pure path and every encoded spec the
    # level path, on every scan; the payoffs and the limits the
    # benchmark passes change nothing, and no path is compiled.
    _, den = encoded(2)
    path = "pure" if kind == "callback" else "level"
    assert kernels.backend_name(KIND_SPECS[kind], scan, den) == path
    assert kernels.backend_name(KIND_SPECS[kind], scan, den, max_alpha_den=4,
                                depth=8) == path
    if kind == "eu":
        assert kernels.backend_name(("eu", (0, 1, 1 << 125)), scan, den) == path
    assert not kernels.have_compiled()


# Every (kind, scan) cell of an encoded oracle.
ENCODED_CELLS = [(kind, scan) for kind, scan in CELLS if kind != "callback"]


FOUR = OutcomeSpace.of_size(4)
FOUR_SPECS = {"eu": ("eu", (0, 1, 1, 3)), "lex": ("lex", (3, 0, 2, 1)),
              "hybrid": ("hybrid", ()), "majority": ("majority", ())}


@pytest.mark.parametrize("kind,scan", ENCODED_CELLS,
                         ids=[f"{kind}-{scan}" for kind, scan in ENCODED_CELLS])
def test_encoded_cells_agree_with_pure_on_four_outcomes(kind, scan):
    # Each encoded cell, routed through the dispatcher on the 4-outcome
    # grid 3, must give pure's first hit; the probe scans run at the
    # separation depth of their candidates, as the checker runs them.
    bound = 3
    nums, den = kernels.encode_lotteries(enumerate_grid(GridSpec(FOUR, bound)))
    spec = FOUR_SPECS[kind]
    assert kernels.backend_name(spec, scan, den) == "level"
    max_b = 2 * bound if scan == "mixture" else 1
    depth = max(8, kernels.separation_depth(spec, den, max_b))
    alphas = pairs(dyadic_alphas(bound))
    candidates = pairs(rationals_between(F(0), F(1), bound))
    args = {
        "independence": (alphas,),
        "betweenness": (alphas,),
        "convexity": (candidates,),
        "line_order": (bound,),
        "mixture": (candidates, depth),
        "archimedean": (depth,),
        "solvability_scan": (candidates,),
        "solvability_solve": (solve_weight(spec, nums),),
        "openness": (depth,),
    }.get(scan, ())
    hit = getattr(kernels, f"scan_{scan}")(spec, nums, den, *args)
    assert hit == getattr(pure, f"scan_{scan}")(spec, nums, den, *args)
