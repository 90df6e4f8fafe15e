"""Exact affine geometry over Fraction vectors.

Everything here is deterministic: row reduction always picks the first
row with a nonzero entry as pivot, free variables are numbered in
ascending column order, and kernel/coefficient vectors come out in one
canonical form.  Two runs on the same input produce identical objects,
which the rest of the package relies on for replayable witnesses.

Vectors are plain tuples of Fraction; matrices are sequences of such
rows.  Callers that hold embedded lottery points pass their ``coords``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionMismatch,
    EmptyInput,
    NotInAffineHull,
    RankDeficient,
    WrongCount,
)

__all__ = [
    "dot",
    "vec_sub",
    "vec_add",
    "vec_scale",
    "rref",
    "kernel_basis",
    "affine_rank",
    "affine_coefficients",
    "Hyperplane",
    "hyperplane_from_points",
]

Vector = tuple[Fraction, ...]


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vec_sub(a, b) -> Vector:
    if len(a) != len(b):
        raise DimensionMismatch(f"difference of lengths {len(a)} and {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_add(a, b) -> Vector:
    if len(a) != len(b):
        raise DimensionMismatch(f"sum of lengths {len(a)} and {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c, a) -> Vector:
    c = Fraction(c)
    return tuple(c * x for x in a)


def _as_rows(matrix) -> list[list[Fraction]]:
    rows = [list(map(Fraction, row)) for row in matrix]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise DimensionMismatch(f"ragged matrix with row lengths {sorted(widths)}")
    return rows


def rref(matrix) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form with deterministic pivoting.

    Scans columns left to right; the pivot for a column is the first
    not-yet-used row with a nonzero entry there.  Returns the reduced
    rows and the tuple of pivot column indices.
    """
    rows = _as_rows(matrix)
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
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


def kernel_basis(matrix, width: int | None = None) -> tuple[Vector, ...]:
    """Canonical basis of the right null space.

    One basis vector per free column, in ascending column order; each
    has a 1 in its own free position and 0 in every other free position,
    so the result is unique given the pivoting rule of ``rref``.
    """
    rows = _as_rows(matrix)
    if not rows:
        if width is None:
            raise EmptyInput("kernel of an empty matrix needs an explicit width")
        ncols = width
        reduced, pivots = (), ()
    else:
        ncols = len(rows[0])
        if width is not None and width != ncols:
            raise DimensionMismatch(f"width {width} but rows have {ncols} columns")
        reduced, pivots = rref(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def affine_rank(points) -> int:
    """Dimension of the affine hull of the points.

    A single point has rank 0; a segment rank 1; and so on.
    """
    pts = [tuple(map(Fraction, p)) for p in points]
    if not pts:
        raise EmptyInput("affine rank of no points")
    base = pts[0]
    diffs = [vec_sub(p, base) for p in pts[1:]]
    if not diffs:
        return 0
    _, pivots = rref(diffs)
    return len(pivots)


def affine_coefficients(target, points) -> tuple[Fraction, ...]:
    """Weights summing to 1 that combine ``points`` into ``target``.

    Solves the linear system column-by-column with the affine constraint
    appended; free weights are fixed at 0, so the answer is canonical.
    Raises NotInAffineHull when the system is inconsistent.
    """
    pts = [tuple(map(Fraction, p)) for p in points]
    if not pts:
        raise EmptyInput("no points to combine")
    tgt = tuple(map(Fraction, target))
    dim = len(tgt)
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatch(
                f"point of length {len(p)} against target of length {dim}")
    m = len(pts)
    # Rows: one per coordinate plus the sum-to-one row; last column is
    # the augment.
    aug = [[pts[j][i] for j in range(m)] + [tgt[i]] for i in range(dim)]
    aug.append([Fraction(1)] * m + [Fraction(1)])
    reduced, pivots = rref(aug)
    if m in pivots:
        raise NotInAffineHull(f"{tgt} is not an affine combination of the points")
    coeffs = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        coeffs[c] = reduced[r][m]
    return tuple(coeffs)


@dataclass(frozen=True)
class Hyperplane:
    """An affine hyperplane given by a base point and a normal vector."""

    normal: Vector
    base: Vector

    def __post_init__(self):
        if len(self.normal) != len(self.base):
            raise DimensionMismatch(
                f"normal of length {len(self.normal)}, base of length {len(self.base)}")
        if all(c == 0 for c in self.normal):
            raise RankDeficient("hyperplane normal must be nonzero")

    def level(self, point) -> Fraction:
        """Signed offset of ``point`` along the normal, zero on the plane."""
        return dot(vec_sub(tuple(point), self.base), self.normal)

    def side(self, point) -> int:
        """-1, 0, or +1 according to the sign of ``level``."""
        lv = self.level(point)
        return (lv > 0) - (lv < 0)


def _primitive(v: Vector) -> Vector:
    """Scale to coprime integers with a positive leading entry."""
    mult = 1
    for x in v:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    ints = [int(x * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def hyperplane_from_points(points) -> Hyperplane:
    """The unique hyperplane through ``dim`` affinely independent points.

    In an ambient space of dimension d the input must be exactly d
    points of affine rank d-1.  The normal comes out primitive (coprime
    integer entries, first nonzero positive) and the base point is the
    first input point, so equal inputs give equal hyperplanes.
    """
    pts = [tuple(map(Fraction, p)) for p in points]
    if not pts:
        raise EmptyInput("no points given")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatch("points of unequal length")
    if len(pts) != dim:
        raise WrongCount(f"need exactly {dim} points, got {len(pts)}")
    base = pts[0]
    # dim - 1 difference rows in dim columns: one normal exactly when
    # their rank, the points' affine rank, is dim - 1.
    normals = kernel_basis([vec_sub(p, base) for p in pts[1:]], width=dim)
    if len(normals) != 1:
        raise RankDeficient(
            f"points span affine dimension {dim - len(normals)}, need {dim - 1}")
    return Hyperplane(_primitive(normals[0]), base)
