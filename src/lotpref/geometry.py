"""Exact affine geometry over rational vectors.

Inputs are ints and Fractions (a float, string or bool is refused with
``ValueError``) and results are Fractions, but the elimination runs on
Python ints: each row is scaled to integers by its denominators' lcm,
held sparse as a {column: nonzero int} map, so that no zero is stored
or multiplied, and reduced fraction-free (cross-multiply, then divide
the row by its gcd); Fractions are built only for the entries returned.
The reduced row echelon form of a matrix is unique, so this gives
exactly what elimination over Fractions gives.

Everything here is deterministic: row reduction always picks the first
row with a nonzero entry as pivot, free variables are numbered in
ascending column order, and kernel/coefficient vectors come out in one
canonical form.  Two runs on the same input produce identical objects,
which the rest of the package relies on for replayable witnesses.

Vectors are plain tuples of Fraction; matrices are sequences of such
rows.  Callers that hold embedded lottery points pass their ``coords``.
Affine questions (rank, coefficients, hyperplanes) eliminate on the
points' differences from the first point, not on the points with a row
of ones appended, which would fill every row it is eliminated against.
``AffineBasis`` keeps a growing affine hull as an integer echelon basis,
for callers that add points one at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._record import Record
from .errors import (
    DimensionMismatch,
    EmptyInput,
    NotInAffineHull,
    RankDeficient,
    WrongCount,
)
from .rationals import require_exact

__all__ = [
    "kernel_basis",
    "affine_rank",
    "affine_coefficients",
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


# ---- the integer core ---------------------------------------------------------


def _rationals(values) -> list:
    """The values as a list, each checked to be an int or a Fraction."""
    values = list(values)
    require_exact(values)
    return values


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


def _sparse(ints: list[int]) -> dict[int, int]:
    """The primitive row as a sparse row: its nonzero entries by column."""
    return {c: x for c, x in enumerate(_primitive(ints)) if x}


def _combine(a: int, row: dict[int, int], b: int, other: dict[int, int]) -> dict[int, int]:
    """a·row − b·other of sparse rows, zeros dropped, divided by its gcd;
    the loop runs over the shorter row."""
    if len(row) < len(other):
        a, row, b, other = -b, other, -a, row
    out = {c: a * x for c, x in row.items()}
    for c, y in other.items():
        if x := out.get(c, 0) - b * y:
            out[c] = x
        else:  # out held c, since b·y is nonzero
            del out[c]
    g = gcd(*out.values())
    return {c: x // g for c, x in out.items()} if g > 1 else out


def _int_points(points) -> list[list[int]]:
    """Points scaled by one common denominator, so that differences of
    rows are differences of points; ragged input is rejected."""
    rows = [common_denominator(_rationals(p)) for p in points]
    if len({len(nums) for nums, _ in rows}) > 1:
        raise DimensionMismatch("points of unequal length")
    den = lcm(*(d for _, d in rows))
    return [[x * (den // d) for x in nums] for nums, d in rows]


def _differences(rows: list[list[int]]) -> list[dict[int, int]]:
    return [_sparse([x - y for x, y in zip(row, rows[0])]) for row in rows[1:]]


def _eliminate(rows: list[dict[int, int]], full: bool = True) -> list[int]:
    """Fraction-free row reduction of sparse integer rows, in place.

    Scans left to right the columns some row holds, the only ones an
    update can fill; the pivot for a column is the first not-yet-used
    row with a nonzero entry there, swapped up to its place.  Each row
    that needs it is replaced by pivot·row − entry·pivot row and divided
    by its gcd, so every row stays a primitive integer multiple of the
    row elimination over Fractions would hold.  With ``full`` the pivot
    column is cleared in every other row (Gauss-Jordan), otherwise only
    below the pivot.  Returns the pivot columns; row r holds pivot r and
    the rows after the last pivot are empty.
    """
    pivots: list[int] = []
    nrows = len(rows)
    r = 0
    for c in sorted(set().union(*rows)):
        for i in range(r, nrows):
            if c in rows[i]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(0 if full else r + 1, nrows):
            if i != r and (f := rows[i].get(c)):
                rows[i] = _combine(pv, rows[i], f, prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


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
            v[c] = -rows[r].get(f, 0) * (scale // rows[r][c])
        out.append(v)
    return out, scale


def kernel_basis(matrix, width: int | None = None) -> tuple[Vector, ...]:
    """Canonical basis of the right null space.

    One basis vector per free column, in ascending column order; each
    has a 1 in its own free position and 0 in every other free position,
    so the result is unique given the deterministic pivoting of the
    elimination: the first unused row with a nonzero entry.
    """
    if width is not None and (type(width) is not int or width < 0):
        raise ValueError(f"kernel width must be a nonnegative int, got {width!r}")
    ints = [common_denominator(_rationals(row))[0] for row in matrix]
    widths = {len(r) for r in ints} or {width}
    if len(widths) > 1:
        raise DimensionMismatch(f"ragged matrix with row lengths {sorted(widths)}")
    (ncols,) = widths
    if ncols is None:
        raise EmptyInput("kernel of an empty matrix needs an explicit width")
    if width not in (None, ncols):
        raise DimensionMismatch(f"width {width} but rows have {ncols} columns")
    rows = [_sparse(r) for r in ints]
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

    Solves for weights 1..m-1 on the differences from the first point,
    sum w_j·(p_j − p_0) = target − p_0, and sets weight 0 to one minus
    their sum; free weights are fixed at 0, so the answer is canonical.
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
    base = pts[0]
    m = len(pts)
    # Rows: one per coordinate of the differences from the first point;
    # last column is the augment.  This gives exactly the weights of the
    # system with the sum-to-one row appended, [P; 1 | t; 1]: its column
    # 0 is always a pivot, and column j > 0 is one exactly when p_j − p_0
    # leaves the span of the earlier pivot differences, so its pivot set
    # is {0} ∪ (1 + the pivots here), and with the free weights at 0 the
    # solution on those columns is unique.
    aug = [_sparse([p[i] - b for p in pts[1:]] + [tgt_ints[i] - b])
           for i, b in enumerate(base)]
    pivots = _eliminate(aug)
    if m - 1 in pivots:
        raise NotInAffineHull(
            f"{_fractions(tgt)} is not an affine combination "
            "of the points")
    coeffs = [ZERO] * m
    for r, c in enumerate(pivots):
        if x := aug[r].get(m - 1):
            coeffs[c + 1] = Fraction(x, aug[r][c])
    coeffs[0] = 1 - sum(coeffs, ZERO)
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


class Hyperplane(Record):
    """An affine hyperplane given by a base point and a normal vector.

    Every entry must be an int or a Fraction (not a bool), and each is
    stored as a Fraction, so the JSON form writes rational strings."""

    normal: Vector
    base: Vector

    def __post_init__(self):
        if len(self.normal) != len(self.base):
            raise DimensionMismatch(
                f"normal of length {len(self.normal)}, base of length {len(self.base)}")
        for name in ("normal", "base"):
            values = getattr(self, name)
            require_exact(values)
            object.__setattr__(self, name, _fractions(values))
        if all(c == 0 for c in self.normal):
            raise RankDeficient("hyperplane normal must be nonzero")

    def gauge(self, orientation: int) -> Vector:
        """The utility (0, orientation·normal) that ranks lotteries as the
        plane's oriented offset does, up to a constant: embedding drops
        outcome 0, so u(x0) = 0."""
        return (ZERO,) + tuple(orientation * c for c in self.normal)

    def level(self, point) -> Fraction:
        """Signed offset of ``point`` along the normal, zero on the plane."""
        return dot(vec_sub(_rationals(point), self.base), self.normal)

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
    pts = [tuple(p) for p in points]
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
    return Hyperplane(tuple(normal), _fractions(pts[0]))
