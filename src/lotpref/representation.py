"""Linear representations of lottery preferences, constructively.

Four directions of traffic between utilities and indifference data:

* ``elicit`` turns n mutually indifferent lotteries (plus an optional
  strict pair for the direction) into a canonical utility;
* ``generate_indifferent_points`` turns a utility into n indifferent
  lotteries spanning a hyperplane, via the kernel of a 2 x (n+1)
  system;
* ``construct_ip_via_solvability`` builds such a spanning set from an
  oracle that can solve mixture equations, without seeing a utility;
* ``indifference_certificate`` proves that a target in the affine hull
  of indifferent points is itself indifferent, as replayable steps.

Everything is exact; the only randomness anywhere is in callers' choice
of inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._kernels.encoding import encode_lotteries
from ._record import Record
from .errors import (
    EmptyInput,
    InconsistentStrictPair,
    NoSolveCapability,
    NotInAffineHull,
    PreconditionViolated,
    RankDeficient,
    SpaceMismatch,
    UnorientedRepresentation,
    WrongCount,
)
from .geometry import (
    AffineBasis,
    Hyperplane,
    affine_coefficients,
    affine_rank,
    common_denominator,
    hyperplane_from_points,
    kernel_basis,
)
from .lotteries import (
    Lottery,
    OutcomeSpace,
    _reduced,
    degenerate,
    embed,
    mix,
    uniform,
)
from .oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    PreferenceOracle,
    UtilityFunction,
)

__all__ = [
    "ElicitationInput",
    "Representation",
    "KernelConstruction",
    "IndifferenceCertificate",
    "MixStep",
    "CertificateReplay",
    "elicit",
    "generate_indifferent_points",
    "construct_ip_via_solvability",
    "indifference_certificate",
    "replay_certificate",
    "classify",
]


class ElicitationInput(Record):
    """n lotteries claimed mutually indifferent, plus an optional
    (better, worse) pair fixing which side of their hyperplane wins."""

    indifferent: tuple[Lottery, ...]
    strict: tuple[Lottery, Lottery] | None = None

    def __post_init__(self):
        if type(self.indifferent) is not tuple:
            raise ValueError(f"indifferent lotteries must be a tuple, "
                             f"got {self.indifferent!r}")
        if not self.indifferent:
            raise EmptyInput("no indifference data")
        space = self.indifferent[0].space
        for p in self.indifferent:
            if p.space != space:
                raise SpaceMismatch("indifferent lotteries over different spaces")
        if self.strict is not None:
            for p in self.strict:
                if p.space != space:
                    raise SpaceMismatch("strict pair over a different space")

    @property
    def space(self) -> OutcomeSpace:
        return self.indifferent[0].space


class Representation(Record):
    """A hyperplane through the indifference data plus a direction.

    The utility is pinned to the gauge u(x0) = 0 with primitive integer
    values, so positively affinely equivalent preferences produce the
    identical object.  When ``oriented`` is false the direction was not
    determined by the data; the stored utility uses orientation +1 but
    both signs are admissible, and ``classify`` refuses to guess.
    """

    space: OutcomeSpace
    utility: UtilityFunction
    hyperplane: Hyperplane
    orientation: int
    oriented: bool

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise UnorientedRepresentation(
                f"orientation must be +1 or -1, got {self.orientation!r}")
        if self.utility.space != self.space:
            raise SpaceMismatch("utility over a different space")
        if self.utility.values != self.hyperplane.gauge(self.orientation):
            raise ValueError("utility does not match orientation x normal gauge")


class KernelConstruction(Record):
    """Work record of generate_indifferent_points.

    matrix is the 2 x (n+1) system (utility row, ones row); base is the
    uniform lottery, a particular solution at level mean_utility; basis
    spans the directions that keep both equations unchanged; step is
    how far along each basis vector the construction walked.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    mean_utility: Fraction
    base: Lottery
    basis: tuple[tuple[Fraction, ...], ...]
    step: Fraction


class MixStep(Record):
    """One recorded binary mixture: result = alpha*left + (1-alpha)*right."""

    left: Lottery
    right: Lottery
    alpha: Fraction
    result: Lottery


class IndifferenceCertificate(Record):
    """Replayable evidence that target is indifferent to the points.

    branch "convex": target is a convex combination, and ``steps`` s a
    chain of pairwise mixtures staying inside the indifference class.
    branch "reduction": some coefficient is negative; the certificate
    walks the mean/pullback construction that reduces the target to a
    convex combination of one point fewer, with the final independence
    step recorded as ``ia_rhs``.
    """

    target: Lottery
    points: tuple[Lottery, ...]
    coefficients: tuple[Fraction, ...]
    branch: str  # "convex" | "reduction"
    steps: tuple[MixStep, ...] = ()
    k_star: int | None = None
    lambda_star: Fraction | None = None
    mean: Lottery | None = None
    alpha_star: Fraction | None = None
    reduced: Lottery | None = None
    reduced_coefficients: tuple[Fraction, ...] | None = None
    ia_rhs: Lottery | None = None


class CertificateReplay(Record):
    """Outcome of re-checking a certificate against an oracle."""

    ok: bool
    checks: tuple[tuple[str, bool], ...]

    def failures(self) -> tuple[str, ...]:
        return tuple(label for label, good in self.checks if not good)


# ---- elicitation ----------------------------------------------------------


def _rows(lots) -> list[tuple[int, ...]]:
    """The embedded coordinates of the lotteries as integer rows: their
    integer forms over one common denominator, coordinate 0 dropped.
    Affine rank, affine coefficients and the primitive normal of a
    hyperplane do not change when every point is scaled by the same
    positive factor, so geometry answers on these rows what it answers
    on ``embed(p).coords``, without building a Fraction."""
    return [row[1:] for row in encode_lotteries(lots)[0]]


def elicit(data: ElicitationInput) -> Representation:
    """Fit the hyperplane through the indifference data and orient it.

    Needs exactly n points of embedded affine rank n-1.  With a strict
    (better, worse) pair the orientation is the sign of better against
    worse under the +1 gauge's expected utility; a pair that ties the
    indifference data, or ties itself, contradicts it and is rejected.
    """
    space = data.space
    n = space.n
    if n == 0:
        raise EmptyInput("a one-outcome space has nothing to orient")
    if len(data.indifferent) != n:
        raise WrongCount(
            f"need exactly {n} indifferent lotteries, got {len(data.indifferent)}")
    # The normal through the integer rows is the normal through the
    # points; the base is the first point's own coordinates.
    plane = Hyperplane(
        hyperplane_from_points(_rows(data.indifferent)).normal,
        embed(data.indifferent[0]).coords)

    if data.strict is None:
        orientation, oriented = 1, False
    else:
        better, worse = data.strict
        compare = ExpectedUtilityOracle(
            UtilityFunction(space, plane.gauge(1))).compare
        # The plane's base is the first indifferent lottery.
        base, tie = data.indifferent[0], ComparisonResult.INDIFFERENT
        if compare(better, base) is tie or compare(worse, base) is tie:
            raise InconsistentStrictPair(
                "a strict endpoint lies on the indifference hyperplane")
        orientation = compare(better, worse).sign
        if not orientation:
            raise InconsistentStrictPair(
                "strict endpoints sit at the same offset; no direction fits")
        oriented = True

    return Representation(
        space=space,
        utility=UtilityFunction(space, plane.gauge(orientation)),
        hyperplane=plane,
        orientation=orientation,
        oriented=oriented,
    )


def classify(rep: Representation, reference: Lottery, query: Lottery) -> ComparisonResult:
    """How the query ranks against the reference under the representation:
    by the expected utility of ``rep.utility``, the rule its
    ``ExpectedUtilityOracle`` compares with.
    """
    if not rep.oriented:
        raise UnorientedRepresentation(
            "no strict pair was given; both directions are admissible")
    return ExpectedUtilityOracle(rep.utility).compare(query, reference)


# ---- generation from a utility --------------------------------------------


def generate_indifferent_points(
        u: UtilityFunction) -> tuple[tuple[Lottery, ...], KernelConstruction]:
    """n mutually indifferent lotteries spanning a hyperplane.

    Solves the two-equation system (expected utility = mean utility,
    weights sum to one); the uniform lottery is a particular solution
    and each kernel direction, scaled to stay inside the simplex, gives
    one more point.  Works for any utility; a constant one just has a
    larger kernel, of which only the first n-1 directions are used.
    """
    space = u.space
    n = space.n
    mean = sum(u.values, Fraction(0)) / space.size
    base = uniform(space)
    matrix = (tuple(u.values), (Fraction(1),) * space.size)
    basis = kernel_basis(matrix)[: max(n - 1, 0)]

    size = space.size
    forms = [common_denominator(vec) for vec in basis]
    if forms:
        # Each direction sums to zero, so it has a negative entry; 1/size
        # over the largest -v_i is the longest step that keeps every
        # weight nonnegative, and the walk takes half of it.
        step = Fraction(1, size) / (
            2 * max(Fraction(-min(nums), den) for nums, den in forms))
    else:
        step = Fraction(0)

    # Weight i is 1/size + step·v_i, summed in ints over one denominator.
    points = [base]
    sn, sd = step.numerator, step.denominator
    for nums, den in forms:
        points.append(Lottery.from_integers(
            space, [sd * den + size * sn * x for x in nums], size * sd * den))
    construction = KernelConstruction(
        matrix=matrix,
        mean_utility=mean,
        base=base,
        basis=tuple(basis),
        step=step,
    )
    return tuple(points), construction


# ---- construction via solvability ------------------------------------------


def _on_segment(q: Lottery, p: Lottery, r: Lottery) -> bool:
    """Exact test for q in the closed segment [p, r]."""
    qrow, *prows = _rows((q, p, r))
    try:
        a, _ = affine_coefficients(qrow, prows)
    except NotInAffineHull:
        return False
    # The combination must be convex, and it must reproduce q.
    return 0 <= a <= 1 and mix(p, r, a) == q


def construct_ip_via_solvability(
        oracle: PreferenceOracle, p: Lottery, q: Lottery, r: Lottery) -> tuple[Lottery, ...]:
    """Build n indifferent lotteries spanning a hyperplane, using only
    comparisons and mixture solving.

    Start from a copy of q moved onto the segment [p, r]; then repeat:
    take the first simplex vertex outside the affine hull of what we
    have (together with p and r), and pull it onto q's indifference
    level by solving against r or p as its comparison demands.  Each
    round raises the affine rank by one and provably keeps p and r out
    of the hull.
    """
    if not oracle.has_solve:
        raise NoSolveCapability(f"{oracle.kind} oracle cannot solve")
    space = oracle.space
    if p.space != space or q.space != space or r.space != space:
        raise SpaceMismatch("lottery from a different outcome space")
    if oracle.compare(p, q) is not ComparisonResult.STRICTLY_BETTER:
        raise PreconditionViolated("need p strictly better than q")
    if oracle.compare(q, r) is not ComparisonResult.STRICTLY_BETTER:
        raise PreconditionViolated("need q strictly better than r")

    n = space.n
    if _on_segment(q, p, r):
        anchor = q
    else:
        anchor = mix(p, r, oracle.solve(p, q, r))
    points = [anchor]
    hull = AffineBasis(embed(p).coords)
    for x in (r, anchor):
        hull.add(embed(x).coords)

    # A vertex inside the hull stays inside as the hull grows, so each
    # search for the first vertex outside resumes where the last stopped.
    # A vertex's integer form has denominator 1, so its numerators after
    # coordinate 0 are its embedded coordinates.
    vertex = 0
    while len(points) < n:
        while vertex < space.size and hull.contains(
                degenerate(space, vertex).integer_form[0][1:]):
            vertex += 1
        if vertex == space.size:
            # The hull of k < n points plus the p-r line has affine
            # dimension at most k, so it cannot hold every vertex.
            raise RankDeficient("no vertex found outside the affine hull")
        candidate = degenerate(space, vertex)
        side = oracle.compare(candidate, anchor)
        if side is ComparisonResult.INDIFFERENT:
            new_point = candidate
        elif side is ComparisonResult.STRICTLY_BETTER:
            new_point = mix(candidate, r, oracle.solve(candidate, anchor, r))
        else:
            new_point = mix(p, candidate, oracle.solve(p, anchor, candidate))
        points.append(new_point)
        hull.add(embed(new_point).coords)

    *embedded, prow, rrow = _rows((*points, p, r))
    if affine_rank(embedded) != n - 1:
        raise RankDeficient("construction lost affine independence")
    for excluded in (prow, rrow):
        try:
            affine_coefficients(excluded, embedded)
        except NotInAffineHull:
            continue
        raise RankDeficient("an endpoint landed inside the constructed hull")
    return tuple(points)


# ---- certificates -----------------------------------------------------------


def indifference_certificate(
        target: Lottery, points) -> IndifferenceCertificate:
    """Certify that a point of aff(points) within the simplex belongs to
    the same indifference class as the points.

    All-nonnegative coefficients give the convex branch: a chain of
    pairwise mixtures accumulating the combination left to right.  A
    negative coefficient triggers the reduction branch: mix the target
    toward the equal-weight mean just far enough that the most negative
    coefficient vanishes; the result is a convex combination of the
    other points, and one recorded independence step ties it back.
    """
    points = tuple(points)
    if not points:
        raise EmptyInput("no points to certify against")
    space = target.space
    for pt in points:
        if pt.space != space:
            raise SpaceMismatch("points over a different outcome space")
    trow, *prows = _rows((target, *points))
    try:
        coeffs = affine_coefficients(trow, prows)
    except NotInAffineHull:
        # Name the target's coordinates, not its scaled row.
        raise NotInAffineHull(f"{embed(target).coords} is not an affine "
                              "combination of the points") from None

    if all(c >= 0 for c in coeffs):
        steps = []
        acc = None
        acc_weight = Fraction(0)
        for pt, c in zip(points, coeffs):
            if c == 0:
                continue
            if acc is None:
                acc, acc_weight = pt, c
                continue
            new_weight = acc_weight + c
            alpha = acc_weight / new_weight
            result = mix(acc, pt, alpha)
            steps.append(MixStep(left=acc, right=pt, alpha=alpha, result=result))
            acc, acc_weight = result, new_weight
        assert acc == target
        return IndifferenceCertificate(
            target=target,
            points=points,
            coefficients=coeffs,
            branch="convex",
            steps=tuple(steps),
        )

    m = len(points)
    lambda_star = -min(coeffs)
    k_star = min(i for i, c in enumerate(coeffs) if -c == lambda_star)
    alpha_star = (m * lambda_star) / (1 + m * lambda_star)
    inv_m = Fraction(1, m)
    mean = Lottery.from_integers(
        space, *_affine_combination(points, (inv_m,) * m, space))
    reduced = mix(mean, target, alpha_star)
    reduced_coeffs = tuple(
        alpha_star * inv_m + (1 - alpha_star) * c for c in coeffs)
    assert reduced_coeffs[k_star] == 0
    assert all(c >= 0 for c in reduced_coeffs)
    ia_rhs = mix(reduced, target, alpha_star)
    return IndifferenceCertificate(
        target=target,
        points=points,
        coefficients=coeffs,
        branch="reduction",
        k_star=k_star,
        lambda_star=lambda_star,
        mean=mean,
        alpha_star=alpha_star,
        reduced=reduced,
        reduced_coefficients=reduced_coeffs,
        ia_rhs=ia_rhs,
    )


def _affine_combination(points, coeffs, space) -> tuple[tuple[int, ...], int]:
    """The weights of sum c·point, summed in ints over one denominator
    and reduced, so it equals a lottery's ``integer_form`` exactly when
    it spells that lottery's weights."""
    cnums, cden = common_denominator(coeffs)
    rows = [pt.integer_form for pt in points]
    den = lcm(*(d for _, d in rows))
    total = [0] * space.size
    for c, (nums, d) in zip(cnums, rows):
        k = c * (den // d)
        if k:
            total = [t + k * x for t, x in zip(total, nums)]
    return _reduced(total, cden * den)


def _mixes_to(left, right, alpha, result) -> bool:
    """mix(left, right, alpha) == result; False when a part is missing
    or alpha leaves [0, 1], where no mixture is defined."""
    if left is None or right is None or result is None or alpha is None:
        return False
    return 0 <= alpha <= 1 and mix(left, right, alpha) == result


def replay_certificate(
        cert: IndifferenceCertificate, oracle: PreferenceOracle) -> CertificateReplay:
    """Re-check every arithmetic identity and oracle comparison.

    The certificate is the proof; replay trusts nothing else.  Returns
    per-check outcomes so a failure names the step that broke.
    """
    checks: list[tuple[str, bool]] = []
    space = cert.target.space
    pts = cert.points

    checks.append(("coefficients sum to 1",
                   sum(cert.coefficients, Fraction(0)) == 1))
    checks.append(("coefficients combine to the target",
                   _affine_combination(pts, cert.coefficients, space)
                   == cert.target.integer_form))
    if not pts:
        # Every later check compares against the class's first point.
        checks.append(("certificate lists the indifferent points", False))
        return CertificateReplay(ok=False, checks=tuple(checks))
    indiff = ComparisonResult.INDIFFERENT
    pairwise = all(
        oracle.compare(pts[i], pts[j]) is indiff
        for i in range(len(pts)) for j in range(i + 1, len(pts)))
    checks.append(("points pairwise indifferent", pairwise))

    if cert.branch == "convex":
        chain_ok = all(
            _mixes_to(step.left, step.right, step.alpha, step.result)
            and oracle.compare(step.result, pts[0]) is indiff
            for step in cert.steps)
        checks.append(("mixture chain stays indifferent", chain_ok))
        if cert.steps:
            checks.append(("chain ends at the target",
                           cert.steps[-1].result == cert.target))
    elif cert.branch == "reduction":
        # Every reduction field is optional on the wire, so a decoded
        # certificate may lack one: each check that needs it fails.
        m = len(pts)
        inv_m = Fraction(1, m)
        low = min(cert.coefficients)
        reduced, rc = cert.reduced, cert.reduced_coefficients
        checks.append(("most negative coefficient drives the reduction",
                       low < 0
                       and cert.lambda_star == -low
                       and cert.k_star == cert.coefficients.index(low)))
        checks.append(("mean is the equal-weight average",
                       cert.mean is not None and cert.mean.integer_form
                       == _affine_combination(pts, (inv_m,) * m, space)))
        ok_alpha = (
            cert.lambda_star is not None and cert.lambda_star > 0
            and cert.alpha_star == (m * cert.lambda_star) / (1 + m * cert.lambda_star)
            and 0 < cert.alpha_star < 1)
        checks.append(("pullback weight from the most negative coefficient",
                       ok_alpha))
        checks.append(("reduced point is the recorded mixture",
                       _mixes_to(cert.mean, cert.target, cert.alpha_star, reduced)))
        rc_ok = (
            rc is not None and reduced is not None
            and cert.k_star in range(len(rc))
            and rc[cert.k_star] == 0
            and all(c >= 0 for c in rc)
            and _affine_combination(pts, rc, space) == reduced.integer_form)
        checks.append(("reduced coefficients convex with a zero at k*", rc_ok))
        checks.append(("reduced point indifferent to the class",
                       reduced is not None
                       and oracle.compare(reduced, pts[0]) is indiff))
        ia_ok = (
            _mixes_to(reduced, cert.target, cert.alpha_star, cert.ia_rhs)
            and oracle.compare(reduced, cert.ia_rhs) is indiff)
        checks.append(("independence step holds", ia_ok))
    else:
        checks.append((f"unknown branch {cert.branch!r}", False))

    checks.append(("target indifferent to the class",
                   oracle.compare(cert.target, pts[0]) is indiff))
    return CertificateReplay(ok=all(ok for _, ok in checks), checks=tuple(checks))
