"""The integer elimination core against elimination over Fractions.

``ref_rref`` is Gauss-Jordan elimination on Fraction rows, pivoting on
the first nonzero entry of each column; the other references are the
kernel, rank, affine-coefficient and hyperplane constructions built on
it.  ``lotpref.geometry`` must return exactly what they return, on
drawn matrices with zero rows and columns, rank deficiency, negative
entries and large denominators, and on the sparse rows its integer core
holds: matrices with at most three nonzeros per row, and generated
indifferent points over 24-48 outcomes.  ``dense_eliminate`` is the
fraction-free reduction on dense integer lists; the sparse core must
leave the same integers in every row.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotpref.errors import NotInAffineHull, RankDeficient
from lotpref.geometry import (
    AffineBasis,
    _eliminate,
    affine_coefficients,
    affine_rank,
    hyperplane_from_points,
    kernel_basis,
)
from lotpref.lotteries import OutcomeSpace, degenerate, embed
from lotpref.oracles import UtilityFunction
from lotpref.representation import generate_indifferent_points

F = Fraction


# ---- references over Fractions -----------------------------------------------


def ref_rref(matrix):
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def dense_eliminate(rows):
    """The fraction-free Gauss-Jordan reduction on dense integer lists
    that the sparse core replaces: same pivots, same updates."""
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pv = rows[r][c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                new = [pv * x - row[c] * y for x, y in zip(row, rows[r])]
                rows[i] = [x // (gcd(*new) or 1) for x in new]
        pivots.append(c)
        r += 1
    return pivots


def ref_kernel(matrix, ncols):
    reduced, pivots = ref_rref(matrix)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def differences(points):
    return [[x - y for x, y in zip(p, points[0])] for p in points[1:]]


def ref_affine_rank(points):
    return len(ref_rref(differences(points))[1])


def ref_affine_coefficients(target, points):
    m = len(points)
    aug = [[p[i] for p in points] + [target[i]] for i in range(len(target))]
    aug.append([Fraction(1)] * (m + 1))
    reduced, pivots = ref_rref(aug)
    if m in pivots:
        raise NotInAffineHull("inconsistent")
    coeffs = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        coeffs[c] = reduced[r][m]
    return tuple(coeffs)


def ref_hyperplane_normal(points):
    normals = ref_kernel(differences(points), len(points[0]))
    if len(normals) != 1:
        raise RankDeficient("not a hyperplane")
    v = normals[0]
    mult = lcm(*(x.denominator for x in v))
    ints = [int(x * mult) for x in v]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def outcome(fn, *args):
    """fn's result, or the class of the library error it raised."""
    try:
        return fn(*args)
    except (NotInAffineHull, RankDeficient) as exc:
        return type(exc)


# ---- drawn inputs --------------------------------------------------------------

ENTRIES = (
    st.just(F(0))
    | st.builds(F, st.integers(-9, 9), st.integers(1, 9))
    | st.builds(F, st.integers(-2**40, 2**40), st.integers(1, 2**40)))


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Rows mixing a few drawn rows with small integer combinations of
    them (so rank is often deficient, and some rows vanish), with some
    columns zeroed."""
    nrows = draw(st.integers(1, 8)) if nrows is None else nrows
    ncols = draw(st.integers(1, 9)) if ncols is None else ncols
    rank = draw(st.integers(0, nrows))
    basis = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(rank)]
    rows = list(basis)
    for _ in range(nrows - rank):
        coeffs = [draw(st.integers(-2, 2)) for _ in basis]
        rows.append([sum((k * b[c] for k, b in zip(coeffs, basis)), F(0))
                     for c in range(ncols)])
    order = draw(st.permutations(range(nrows)))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [tuple(F(0) if c in zero_cols else rows[i][c] for c in range(ncols))
            for i in order]


@st.composite
def sparse_matrices(draw, nrows=None, ncols=None):
    """Integer rows with at most three nonzeros each: zero rows, scaled
    copies of earlier rows (rank deficiency) and columns outside a drawn
    subset left zero."""
    nrows = draw(st.integers(1, 10)) if nrows is None else nrows
    ncols = draw(st.integers(1, 12)) if ncols is None else ncols
    used = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "copy"]))
        if kind == "copy" and rows:
            k = draw(st.sampled_from([-3, -1, 2, 5]))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
            continue
        row = [0] * ncols
        if kind != "zero":
            for c in draw(st.lists(st.sampled_from(used), max_size=3, unique=True)):
                row[c] = draw(st.integers(-9, 9).filter(bool)
                              | st.integers(-2**40, 2**40).filter(bool))
        rows.append(row)
    return [tuple(F(x) for x in row) for row in rows]


# The integer core holds each row as a {column: nonzero int} map and
# touches only the nonzeros; every property also runs on sparse rows.
ANY_MATRICES = matrices() | sparse_matrices()


# ---- properties ----------------------------------------------------------------


@given(ANY_MATRICES)
def test_kernel_and_rank_match_reference(matrix):
    assert kernel_basis(matrix) == ref_kernel(matrix, len(matrix[0]))
    assert affine_rank(matrix) == ref_affine_rank(matrix)


@given(ANY_MATRICES, st.data())
def test_affine_coefficients_match_reference(points, data):
    dim = len(points[0])
    if data.draw(st.booleans()):
        # In the hull: an affine combination of the points.
        raw = [data.draw(st.integers(-3, 3)) for _ in points]
        raw[0] += 1 - sum(raw)
        target = tuple(sum((k * p[i] for k, p in zip(raw, points)), F(0))
                       for i in range(dim))
    else:
        target = tuple(data.draw(ENTRIES) for _ in range(dim))
    got = outcome(affine_coefficients, target, points)
    assert got == outcome(ref_affine_coefficients, target, points)


@given(st.integers(1, 8).flatmap(
    lambda d: matrices(nrows=d, ncols=d) | sparse_matrices(nrows=d, ncols=d)))
def test_hyperplane_from_points_matches_reference(points):
    got = outcome(hyperplane_from_points, points)
    want = outcome(ref_hyperplane_normal, points)
    if want is RankDeficient:
        assert got is RankDeficient
    else:
        assert got.normal == want
        assert got.base == points[0]


@given(sparse_matrices())
def test_sparse_rows_hold_the_dense_integers(matrix):
    # Not only the same kernel: every reduced row holds the integers,
    # signs included, that the dense reduction holds.
    dense = [[int(x) for x in row] for row in matrix]
    dense = [[x // (gcd(*row) or 1) for x in row] for row in dense]
    sparse = [{c: x for c, x in enumerate(row) if x} for row in dense]
    assert _eliminate(sparse) == dense_eliminate(dense)
    assert sparse == [{c: x for c, x in enumerate(row) if x} for row in dense]


@given(matrices(), st.data())
def test_affine_basis_tracks_affine_rank(points, data):
    hull = AffineBasis(points[0])
    probes = [tuple(data.draw(ENTRIES) for _ in points[0]), *points]
    rank = 0
    for k in range(1, len(points)):
        # add says whether the rank grew, so the running count is the rank.
        rank += hull.add(points[k])
        assert rank == affine_rank(points[:k + 1])
        for x in probes:
            assert hull.contains(x) == (affine_rank([*points[:k + 1], x]) == rank)
        # Affine combinations with denominators of their own stay inside.
        for a in (F(2), F(1, 3), F(-5, 7)):
            assert hull.contains(tuple(
                a * x + (1 - a) * y for x, y in zip(points[k], points[0])))


# ---- the elimination on differences ---------------------------------------------
#
# affine_coefficients solves on the differences from the first point, not
# on the homogenised system the reference solves; the two agree exactly,
# on independent and dependent point sets alike.


def combination(points, coeffs):
    return tuple(sum((c * p[i] for c, p in zip(coeffs, points)), F(0))
                 for i in range(len(points[0])))


@pytest.mark.parametrize("size", [8, 16, 32])
def test_affine_coefficients_on_generated_points(size):
    rng = random.Random(size)
    space = OutcomeSpace.of_size(size)
    # The last outcome pays most, so its vertex lies off the level set.
    values = [rng.randint(-9, 9) for _ in range(size - 1)] + [10]
    points, _ = generate_indifferent_points(UtilityFunction.of(space, values))
    emb = [embed(p).coords for p in points]
    weights = [rng.randint(1, 4) for _ in emb]
    convex = combination(emb, [F(w, sum(weights)) for w in weights])
    negative = combination(emb, [F(3, 2), F(-1, 2)] + [F(0)] * (len(emb) - 2))
    outside = embed(degenerate(space, size - 1)).coords
    want = [ref_affine_coefficients(t, emb) for t in (convex, negative)]
    assert min(want[0]) > 0 and min(want[1]) < 0
    for target, coeffs in zip((convex, negative), want):
        assert affine_coefficients(target, emb) == coeffs
    assert outcome(affine_coefficients, outside, emb) is NotInAffineHull
    assert outcome(ref_affine_coefficients, outside, emb) is NotInAffineHull


@pytest.mark.parametrize("target,points,want", [
    # A zero-dimensional space: every weight but the first is free.
    ((), [()], (1,)),
    ((), [(), ()], (1, 0)),
    # A repeated first point: its copy is a free weight, fixed at 0.
    ((F(1, 2), F(1, 2)), [(1, 0), (1, 0), (0, 1)], (F(1, 2), 0, F(1, 2))),
    ((1, 0), [(1, 0), (1, 0), (0, 1)], (1, 0, 0)),
    ((3, 0), [(0, 0), (0, 0), (1, 0), (2, 0)], (-2, 0, 3, 0)),
    ((0, 1), [(0, 0), (0, 0), (1, 0), (2, 0)], NotInAffineHull),
    # A later point repeating an earlier one: the later copy is free.
    ((2, -1), [(0, 0), (1, 0), (0, 1), (1, 0)], (0, 2, -1, 0)),
    ((F(1, 3), F(1, 3)), [(0, 0), (1, 0), (0, 1), (1, 0)],
     (F(1, 3), F(1, 3), F(1, 3), 0)),
], ids=["zero-dim-one", "zero-dim-two", "repeated-first", "repeated-first-at-it",
        "repeated-first-on-a-line", "repeated-first-off-the-line",
        "repeated-later", "repeated-later-convex"])
def test_affine_coefficients_on_dependent_points(target, points, want):
    assert outcome(affine_coefficients, target, points) == want
    assert outcome(ref_affine_coefficients, target, points) == want


# Generated points at 24-48 outcomes: dense points whose differences
# from the first hold about two nonzeros each.


@settings(max_examples=10, deadline=None)
@given(st.integers(24, 48).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)), st.data())
def test_generated_points_match_reference(values, data):
    space = OutcomeSpace.of_size(len(values))
    points, construction = generate_indifferent_points(UtilityFunction.of(space, values))
    emb = [embed(p).coords for p in points]
    assert (kernel_basis(construction.matrix)
            == ref_kernel(construction.matrix, space.size))
    assert affine_rank(emb) == ref_affine_rank(emb)
    got = outcome(hyperplane_from_points, emb)
    want = outcome(ref_hyperplane_normal, emb)
    assert (got if want is RankDeficient else got.normal) == want
    weights = [data.draw(st.integers(-2, 3)) for _ in emb]
    weights[0] += 1 - sum(weights)
    target = combination(emb, weights)
    assert affine_coefficients(target, emb) == ref_affine_coefficients(target, emb)
