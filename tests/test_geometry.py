from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lotpref.errors import (
    DimensionMismatch,
    EmptyInput,
    NotInAffineHull,
    RankDeficient,
    WrongCount,
)
from lotpref.geometry import (
    Hyperplane,
    affine_coefficients,
    affine_rank,
    dot,
    hyperplane_from_points,
    kernel_basis,
    vec_sub,
)

F = Fraction


@st.composite
def fraction_vectors(draw, length):
    nums = draw(st.lists(st.integers(-6, 6), min_size=length, max_size=length))
    den = draw(st.integers(1, 5))
    return tuple(F(n, den) for n in nums)


@st.composite
def small_matrices(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 4))
    return [draw(fraction_vectors(ncols)) for _ in range(nrows)]


def test_vector_helpers():
    a = (F(1, 2), F(1, 3))
    b = (F(1, 6), F(2, 3))
    assert vec_sub(a, b) == (F(1, 3), F(-1, 3))
    assert dot(a, b) == F(1, 12) + F(2, 9)
    with pytest.raises(DimensionMismatch):
        dot(a, (F(1),))
    with pytest.raises(DimensionMismatch):
        vec_sub(a, (F(1),))


def test_kernel_basis_ragged_matrix_rejected():
    with pytest.raises(DimensionMismatch):
        kernel_basis([[1, 2], [1]])


def test_kernel_basis_frozen_cases():
    # Utility row over ones row: the classic one-dimensional kernel.
    assert kernel_basis([[0, 1, 2], [1, 1, 1]]) == ((F(1), F(-2), F(1)),)
    # Constant utility leaves a two-dimensional kernel.
    assert kernel_basis([[0, 0, 0], [1, 1, 1]]) == (
        (F(-1), F(1), F(0)),
        (F(-1), F(0), F(1)),
    )
    # Full-rank square matrix has a trivial kernel.
    assert kernel_basis([[0, 1], [1, 1]]) == ()


def test_kernel_basis_empty_matrix():
    with pytest.raises(EmptyInput):
        kernel_basis([])
    assert kernel_basis([], width=2) == ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(DimensionMismatch):
        kernel_basis([[1, 2]], width=3)


@given(small_matrices())
def test_kernel_vectors_annihilate_rows(matrix):
    basis = kernel_basis(matrix)
    ncols = len(matrix[0])
    # The rank of the rows is the affine rank of the origin and the rows.
    assert len(basis) == ncols - affine_rank([(0,) * ncols, *matrix])
    for vec in basis:
        for row in matrix:
            assert dot(row, vec) == 0


def test_affine_rank():
    assert affine_rank([(F(1, 2), F(1, 2))]) == 0
    # Three collinear points still span a line.
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    with pytest.raises(EmptyInput):
        affine_rank([])


def test_affine_coefficients_frozen():
    coeffs = affine_coefficients(
        (F(0), F(1, 2)),
        [(F(1, 3), F(1, 3)), (F(1, 6), F(5, 12))],
    )
    assert coeffs == (F(-1), F(2))
    assert sum(coeffs) == 1


def test_affine_coefficients_rejections():
    with pytest.raises(NotInAffineHull):
        affine_coefficients((0, 1), [(0, 0), (1, 0)])
    with pytest.raises(EmptyInput):
        affine_coefficients((0, 1), [])
    with pytest.raises(DimensionMismatch):
        affine_coefficients((0, 1), [(0, 0, 0)])


@given(st.data())
def test_affine_coefficients_reconstruct(data):
    dim = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 4))
    points = [data.draw(fraction_vectors(dim)) for _ in range(count)]
    raw = data.draw(
        st.lists(st.integers(-3, 3), min_size=count, max_size=count).filter(
            lambda ws: sum(ws) != 0
        )
    )
    total = sum(raw)
    weights = [F(w, total) for w in raw]
    target = tuple(
        sum((w * p[i] for w, p in zip(weights, points)), F(0)) for i in range(dim)
    )
    coeffs = affine_coefficients(target, points)
    assert sum(coeffs) == 1
    rebuilt = tuple(
        sum((c * p[i] for c, p in zip(coeffs, points)), F(0)) for i in range(dim)
    )
    assert rebuilt == target


def test_hyperplane_levels_and_sides():
    plane = Hyperplane((F(1), F(2)), (F(1, 3), F(1, 3)))
    assert plane.level((F(1, 3), F(1, 3))) == 0
    assert plane.side((F(1, 3), F(1, 3))) == 0
    assert plane.level((F(0), F(1))) == 1
    assert plane.side((F(0), F(1))) == 1
    assert plane.level((F(0), F(0))) == -1
    assert plane.side((F(0), F(0))) == -1


def test_hyperplane_validation():
    with pytest.raises(RankDeficient):
        Hyperplane((F(0), F(0)), (F(1), F(1)))
    with pytest.raises(DimensionMismatch):
        Hyperplane((F(1),), (F(1), F(1)))


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_hyperplane_refuses_inexact_entries(bad):
    with pytest.raises(ValueError, match=f"not an exact rational: {bad!r}"):
        Hyperplane((bad, F(2)), (F(0), F(0)))
    with pytest.raises(ValueError, match=f"not an exact rational: {bad!r}"):
        Hyperplane((F(1), F(2)), (F(0), bad))


def test_hyperplane_stores_fractions():
    # Int entries were kept as ints, which the JSON form wrote as JSON
    # numbers its own loader refused.
    plane = Hyperplane((1, F(2)), [0, F(1, 3)])
    assert plane.normal == (F(1), F(2)) and plane.base == (F(0), F(1, 3))
    assert all(type(x) is F for x in plane.normal + plane.base)


def test_hyperplane_from_points_frozen():
    plane = hyperplane_from_points([(F(1, 3), F(1, 3)), (F(1, 6), F(5, 12))])
    assert plane.normal == (F(1), F(2))
    assert plane.base == (F(1, 3), F(1, 3))
    # Both defining points sit on the plane.
    assert plane.side((F(1, 6), F(5, 12))) == 0


def test_hyperplane_from_points_one_dimensional():
    plane = hyperplane_from_points([(F(1, 2),)])
    assert plane.normal == (F(1),)
    assert plane.base == (F(1, 2),)


def test_hyperplane_from_points_rejections():
    with pytest.raises(EmptyInput):
        hyperplane_from_points([])
    with pytest.raises(WrongCount):
        hyperplane_from_points([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(RankDeficient):
        hyperplane_from_points([(F(1, 3), F(1, 3)), (F(1, 3), F(1, 3))])
    with pytest.raises(DimensionMismatch):
        hyperplane_from_points([(0, 0), (1, 0, 0)])


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_geometry_refuses_inexact_entries(bad):
    # A float was read through Fraction(), so hyperplane_from_points on
    # (0.1, 0.2), (0.3, 0.5) returned the normal
    # (10808639105689190, -7205759403792793); a string or bool was read
    # as the rational it spells.
    refused = pytest.raises(ValueError, match=f"not an exact rational: {bad!r}")
    with refused:
        kernel_basis([(bad, 1, 1)])
    with refused:
        affine_rank([(F(1, 3), F(1, 3)), (F(0), bad)])
    with refused:
        affine_coefficients((bad, F(0)), [(0, 0), (1, 0)])
    with refused:
        affine_coefficients((F(1, 2), 0), [(0, 0), (bad, 0)])
    with refused:
        hyperplane_from_points([(bad, F(1, 3)), (F(1, 6), F(5, 12))])
    with refused:
        hyperplane_from_points([(F(1, 3), F(1, 3)), (F(1, 6), bad)])
    with refused:
        Hyperplane((F(1), F(2)), (F(0), F(0))).side((F(0), bad))


def test_geometry_reads_ints_and_fractions_alike():
    assert kernel_basis([(1, 2, 3)]) == kernel_basis([(F(1), F(2), F(3))]) \
        == ((F(-2), F(1), F(0)), (F(-3), F(0), F(1)))
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) \
        == affine_rank([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]) == 1
    assert affine_coefficients((F(1, 2), 0), [(0, 0), (1, 0)]) \
        == affine_coefficients((F(1, 2), F(0)), [(F(0), F(0)), (F(1), F(0))]) \
        == (F(1, 2), F(1, 2))
    plane = hyperplane_from_points([(0, 1), (1, 0)])
    assert plane == hyperplane_from_points([(F(0), F(1)), (F(1), F(0))])
    assert plane.normal == (F(1), F(1)) and plane.base == (F(0), F(1))


@given(st.data())
def test_hyperplane_normal_is_primitive(data):
    dim = data.draw(st.integers(2, 3))
    pts = [data.draw(fraction_vectors(dim)) for _ in range(dim)]
    assume(len(set(pts)) == dim)
    try:
        plane = hyperplane_from_points(pts)
    except RankDeficient:
        return
    ints = [x for x in plane.normal]
    assert all(x.denominator == 1 for x in ints)
    lead = next(x for x in ints if x != 0)
    assert lead > 0
    for p in pts:
        assert plane.side(p) == 0


@pytest.mark.parametrize("width", [True, -1])
def test_kernel_basis_refuses_a_width_that_is_not_a_count(width):
    # True once read as width 1, and -1 returned ().
    with pytest.raises(ValueError, match="width"):
        kernel_basis([], width=width)
