"""Exact affine geometry over rational vectors.

Inputs and results are Fractions (ints and anything ``Fraction`` accepts
are read as rationals), but the elimination runs on Python ints: each
row is scaled to integers by its denominators' lcm, reduced
fraction-free (cross-multiply, then divide the row by its gcd), and
Fractions are built only for the entries returned.  The reduced row
echelon form of a matrix is unique, so this gives exactly what
elimination over Fractions gives.

Everything here is deterministic: row reduction always picks the first
row with a nonzero entry as pivot, free variables are numbered in
ascending column order, and kernel/coefficient vectors come out in one
canonical form.  Two runs on the same input produce identical objects,
which the rest of the package relies on for replayable witnesses.

Vectors are plain tuples of Fraction; matrices are sequences of such
rows.  Callers that hold embedded lottery points pass their ``coords``.
``AffineBasis`` keeps a growing affine hull as an integer echelon basis,
for callers that add points one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
    "common_denominator",
    "AffineBasis",
    "Hyperplane",
    "hyperplane_from_points",
]

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)


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


# ---- the integer core ---------------------------------------------------------


def _rationals(values) -> list:
    """The values as ints and Fractions; anything else goes through
    ``Fraction`` once."""
    return [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]


def _fractions(values) -> Vector:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in values)


def _primitive(ints: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def common_denominator(values) -> tuple[list[int], int]:
    """(nums, den): rationals as integers over their least common
    denominator, so that values[i] == nums[i] / den."""
    dens = [x.denominator for x in values]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(values, dens)], den


def _int_points(points) -> list[list[int]]:
    """Points scaled by one common denominator, so that differences of
    rows are differences of points; ragged input is rejected."""
    rows = [common_denominator(_rationals(p)) for p in points]
    if len({len(nums) for nums, _ in rows}) > 1:
        raise DimensionMismatch("points of unequal length")
    den = lcm(*(d for _, d in rows))
    return [[x * (den // d) for x in nums] for nums, d in rows]


def _differences(rows: list[list[int]]) -> list[list[int]]:
    base = rows[0]
    return [_primitive([x - y for x, y in zip(row, base)]) for row in rows[1:]]


def _eliminate(rows: list[list[int]], full: bool = True) -> list[int]:
    """Fraction-free row reduction of integer rows, in place.

    Scans columns left to right; the pivot for a column is the first
    not-yet-used row with a nonzero entry there, swapped up to its
    place.  Each row that needs it is replaced by pivot·row − entry·pivot
    row and divided by its gcd, so every row stays a primitive integer
    multiple of the row elimination over Fractions would hold.  With
    ``full`` the pivot column is cleared in every other row (Gauss-
    Jordan), otherwise only below the pivot.  Returns the pivot columns;
    row r holds pivot r and the rows after the last pivot are zero.
    """
    pivots: list[int] = []
    if not rows:
        return pivots
    nrows = len(rows)
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(0 if full else r + 1, nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([pv * x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _int_matrix(matrix) -> list[list[int]]:
    """Each row as the primitive integer row spanning the same line."""
    rows = [_primitive(common_denominator(_rationals(row))[0]) for row in matrix]
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
    rows = _int_matrix(matrix)
    if not rows:
        return (), ()
    pivots = _eliminate(rows)
    reduced = [tuple(ZERO if not x else Fraction(x, row[c]) for x in row)
               for row, c in zip(rows, pivots)]
    reduced += [(ZERO,) * len(rows[0])] * (len(rows) - len(pivots))
    return tuple(reduced), tuple(pivots)


def _kernel_ints(rows, pivots, ncols) -> tuple[list[list[int]], int]:
    """One integer kernel vector per free column of Gauss-Jordan reduced
    rows, and the scale: each vector is the canonical Fraction basis
    vector times that scale, the lcm of the pivot entries."""
    scale = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = scale
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f] * (scale // rows[r][c])
        out.append(v)
    return out, scale


def kernel_basis(matrix, width: int | None = None) -> tuple[Vector, ...]:
    """Canonical basis of the right null space.

    One basis vector per free column, in ascending column order; each
    has a 1 in its own free position and 0 in every other free position,
    so the result is unique given the pivoting rule of ``rref``.
    """
    rows = _int_matrix(matrix)
    if not rows:
        if width is None:
            raise EmptyInput("kernel of an empty matrix needs an explicit width")
        ncols = width
    else:
        ncols = len(rows[0])
        if width is not None and width != ncols:
            raise DimensionMismatch(f"width {width} but rows have {ncols} columns")
    vectors, scale = _kernel_ints(rows, _eliminate(rows), ncols)
    return tuple(tuple(ZERO if not x else Fraction(x, scale) for x in v)
                 for v in vectors)


def affine_rank(points) -> int:
    """Dimension of the affine hull of the points.

    A single point has rank 0; a segment rank 1; and so on.
    """
    rows = _int_points(points)
    if not rows:
        raise EmptyInput("affine rank of no points")
    return len(_eliminate(_differences(rows), full=False))


def affine_coefficients(target, points) -> tuple[Fraction, ...]:
    """Weights summing to 1 that combine ``points`` into ``target``.

    Solves the linear system column-by-column with the affine constraint
    appended; free weights are fixed at 0, so the answer is canonical.
    Raises NotInAffineHull when the system is inconsistent.
    """
    points = list(points)
    if not points:
        raise EmptyInput("no points to combine")
    tgt = _rationals(target)
    dim = len(tgt)
    for p in points:
        if len(p) != dim:
            raise DimensionMismatch(
                f"point of length {len(p)} against target of length {dim}")
    *pts, tgt_ints = _int_points(points + [tgt])
    m = len(pts)
    # Rows: one per coordinate plus the sum-to-one row; last column is
    # the augment.
    aug = [_primitive([p[i] for p in pts] + [tgt_ints[i]]) for i in range(dim)]
    aug.append([1] * (m + 1))
    pivots = _eliminate(aug)
    if m in pivots:
        raise NotInAffineHull(
            f"{_fractions(tgt)} is not an affine combination "
            "of the points")
    coeffs = [ZERO] * m
    for r, c in enumerate(pivots):
        if aug[r][m]:
            coeffs[c] = Fraction(aug[r][m], aug[r][c])
    return tuple(coeffs)


class AffineBasis:
    """The affine hull of an origin and the points added to it, kept as
    an integer echelon basis of their differences from the origin.

    ``add`` and ``contains`` reduce one difference against the basis
    rows, O(rank · width) integer operations, where recomputing
    ``affine_rank`` of every point costs a full elimination.  Row k's
    pivot is its first nonzero column, and every later row is zero
    there, so a difference reduces to zero exactly when it lies in the
    span.
    """

    def __init__(self, origin):
        self._origin, self._den = common_denominator(_rationals(origin))
        self._rows: list[tuple[int, list[int]]] = []

    def _reduce(self, point) -> list[int]:
        nums, d = common_denominator(_rationals(point))
        if len(nums) != len(self._origin):
            raise DimensionMismatch(
                f"point of length {len(nums)} against origin of length "
                f"{len(self._origin)}")
        den = lcm(self._den, d)
        kp, ko = den // d, den // self._den
        v = [kp * x - ko * o for x, o in zip(nums, self._origin)]
        for c, row in self._rows:
            f = v[c]
            if f:
                pv = row[c]
                v = _primitive([pv * x - f * y for x, y in zip(v, row)])
        return v

    def contains(self, point) -> bool:
        """Whether the point lies in the hull."""
        return not any(self._reduce(point))

    def add(self, point) -> bool:
        """Grow the hull by the point; True when its dimension grew."""
        v = self._reduce(point)
        for c, x in enumerate(v):
            if x:
                self._rows.append((c, _primitive(v)))
                return True
        return False


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


def hyperplane_from_points(points) -> Hyperplane:
    """The unique hyperplane through ``dim`` affinely independent points.

    In an ambient space of dimension d the input must be exactly d
    points of affine rank d-1.  The normal comes out primitive (coprime
    integer entries, first nonzero positive) and the base point is the
    first input point, so equal inputs give equal hyperplanes.
    """
    pts = [_rationals(p) for p in points]
    if not pts:
        raise EmptyInput("no points given")
    dim = len(pts[0])
    rows = _int_points(pts)
    if len(pts) != dim:
        raise WrongCount(f"need exactly {dim} points, got {len(pts)}")
    # dim - 1 difference rows in dim columns: one normal exactly when
    # their rank, the points' affine rank, is dim - 1.
    diffs = _differences(rows)
    normals, _ = _kernel_ints(diffs, _eliminate(diffs), dim)
    if len(normals) != 1:
        raise RankDeficient(
            f"points span affine dimension {dim - len(normals)}, need {dim - 1}")
    normal = _primitive(normals[0])
    if next(x for x in normal if x) < 0:
        normal = [-x for x in normal]
    return Hyperplane(tuple(Fraction(x) for x in normal), _fractions(pts[0]))
