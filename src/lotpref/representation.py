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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
    dot,
    hyperplane_from_points,
    kernel_basis,
    vec_sub,
)
from .lotteries import (
    Lottery,
    OutcomeSpace,
    degenerate,
    embed,
    mix,
    uniform,
)
from .oracles import ComparisonResult, PreferenceOracle, UtilityFunction

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


@dataclass(frozen=True)
class ElicitationInput:
    """n lotteries claimed mutually indifferent, plus an optional
    (better, worse) pair fixing which side of their hyperplane wins."""

    indifferent: tuple[Lottery, ...]
    strict: tuple[Lottery, Lottery] | None = None

    def __post_init__(self):
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


@dataclass(frozen=True)
class Representation:
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
        expected = (Fraction(0),) + tuple(
            self.orientation * c for c in self.hyperplane.normal)
        if self.utility.values != expected:
            raise ValueError("utility does not match orientation x normal gauge")


@dataclass(frozen=True)
class KernelConstruction:
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


@dataclass(frozen=True)
class MixStep:
    """One recorded binary mixture: result = alpha*left + (1-alpha)*right."""

    left: Lottery
    right: Lottery
    alpha: Fraction
    result: Lottery


@dataclass(frozen=True)
class IndifferenceCertificate:
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


@dataclass(frozen=True)
class CertificateReplay:
    """Outcome of re-checking a certificate against an oracle."""

    ok: bool
    checks: tuple[tuple[str, bool], ...]

    def failures(self) -> tuple[str, ...]:
        return tuple(label for label, good in self.checks if not good)


# ---- elicitation ----------------------------------------------------------


def elicit(data: ElicitationInput) -> Representation:
    """Fit the hyperplane through the indifference data and orient it.

    Needs exactly n points of embedded affine rank n-1.  With a strict
    (better, worse) pair the orientation is chosen so that better wins;
    a pair that touches the hyperplane, or sits at one common offset
    from it, contradicts the indifference data and is rejected.
    """
    space = data.space
    n = space.n
    if n == 0:
        raise EmptyInput("a one-outcome space has nothing to orient")
    if len(data.indifferent) != n:
        raise WrongCount(
            f"need exactly {n} indifferent lotteries, got {len(data.indifferent)}")
    plane = hyperplane_from_points([embed(p).coords for p in data.indifferent])

    if data.strict is None:
        orientation, oriented = 1, False
    else:
        better, worse = data.strict
        lv_better = plane.level(embed(better).coords)
        lv_worse = plane.level(embed(worse).coords)
        if lv_better == 0 or lv_worse == 0:
            raise InconsistentStrictPair(
                "a strict endpoint lies on the indifference hyperplane")
        if lv_better == lv_worse:
            raise InconsistentStrictPair(
                "strict endpoints sit at the same offset; no direction fits")
        orientation = 1 if lv_better > lv_worse else -1
        oriented = True

    values = (Fraction(0),) + tuple(orientation * c for c in plane.normal)
    return Representation(
        space=space,
        utility=UtilityFunction(space, values),
        hyperplane=plane,
        orientation=orientation,
        oriented=oriented,
    )


def classify(rep: Representation, reference: Lottery, query: Lottery) -> ComparisonResult:
    """How the query ranks against the reference under the representation.

    Slides the elicited hyperplane to pass through the reference and
    reads off which side the query falls on, times the orientation.
    """
    if not rep.oriented:
        raise UnorientedRepresentation(
            "no strict pair was given; both directions are admissible")
    if reference.space != rep.space or query.space != rep.space:
        raise SpaceMismatch("lottery from a different outcome space")
    offset = dot(
        vec_sub(embed(query).coords, embed(reference).coords),
        rep.hyperplane.normal)
    sign = rep.orientation * ((offset > 0) - (offset < 0))
    return ComparisonResult.from_sign(sign)


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

    if basis:
        base_w = Fraction(1, space.size)
        limits = [
            base_w / -b
            for vec in basis
            for b in vec
            if b < 0
        ]
        step = min(limits) / 2
    else:
        step = Fraction(0)

    points = [base]
    for vec in basis:
        points.append(Lottery(space, tuple(
            w + step * b for w, b in zip(base.weights, vec))))
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
    try:
        a, b = affine_coefficients(
            embed(q).coords, [embed(p).coords, embed(r).coords])
    except NotInAffineHull:
        return False
    # a + b = 1 is guaranteed; the combination must also reproduce q,
    # which affine_coefficients only promises when the system was
    # consistent, and it must be convex.
    if not (0 <= a <= 1):
        return False
    combo = tuple(a * pw + b * rw for pw, rw in zip(p.weights, r.weights))
    return combo == q.weights


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
    vertex = 0
    while len(points) < n:
        while vertex < space.size and hull.contains(
                embed(degenerate(space, vertex)).coords):
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

    embedded = [embed(x).coords for x in points]
    if affine_rank(embedded) != n - 1:
        raise RankDeficient("construction lost affine independence")
    for excluded in (p, r):
        try:
            affine_coefficients(embed(excluded).coords, embedded)
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
    coeffs = affine_coefficients(
        embed(target).coords, [embed(pt).coords for pt in points])

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
    mean = Lottery(space, tuple(
        sum((pt.weights[i] for pt in points), Fraction(0)) * inv_m
        for i in range(space.size)))
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


def _affine_combination(points, coeffs, space) -> tuple[Fraction, ...]:
    """The weights of sum c·point, summed in ints over one denominator."""
    cnums, cden = common_denominator(coeffs)
    rows = [common_denominator(pt.weights) for pt in points]
    den = lcm(*(d for _, d in rows))
    total = [0] * space.size
    for c, (nums, d) in zip(cnums, rows):
        k = c * (den // d)
        if k:
            total = [t + k * x for t, x in zip(total, nums)]
    return tuple(Fraction(t, cden * den) for t in total)


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
                   == cert.target.weights))
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
                       cert.mean is not None and cert.mean.weights
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
            and _affine_combination(pts, rc, space) == reduced.weights)
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
