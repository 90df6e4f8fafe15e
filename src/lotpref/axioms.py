"""Axiom falsifiers over finite lottery grids.

Every checker scans a deterministic grid for a counterexample and
returns an AxiomVerdict: Violated with a witness, or NoViolationFound
with the exhausted budget.  A non-finding is evidence at that budget,
never proof; the verdict says which budget it means.

Witness integrity is double-route: the scans run on an integer-encoded
copy of the grid (compiled kernels when available), and every hit is
then re-evaluated through the oracle's own exact Fraction path before
it is returned.  A witness object can always replay itself against the
oracle that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _kernels as kernels
from ._kernels import pure
from .geometry import AffineBasis, affine_rank
from .grids import GridSpec, dyadic_alphas, enumerate_grid, rationals_between
from .lotteries import Lottery, embed, mix, unit_weight
from .oracles import ComparisonResult, PreferenceOracle

__all__ = [
    "DEFAULT_DEPTH",
    "Budget",
    "AxiomVerdict",
    "CycleWitness",
    "IndependenceWitness",
    "BetweennessWitness",
    "ConvexityWitness",
    "TranslationWitness",
    "LineOrderWitness",
    "MixtureWitness",
    "ArchimedeanWitness",
    "SolvabilityScanWitness",
    "SolveContractWitness",
    "OpennessWitness",
    "IPFound",
    "IPExhausted",
    "WITNESS_TYPES",
    "check_weak_order",
    "check_independence",
    "check_ip",
    "check_continuity",
    "check_convexity",
    "check_translation",
    "check_line_order",
    "CONTINUITY_KINDS",
]

# Dyadic refinement budget for the continuity probes.  A mixture,
# archimedean or grid-openness violation means only that every probe
# down to 2^-depth agrees: a boundary closer than that still reads as
# a violation, as for expected utility with u = (0, 1, 10^7) on grid
# bound 3 at this depth (ROADMAP item 1).
DEFAULT_DEPTH = 24

CONTINUITY_KINDS = ("grid-openness", "mixture", "archimedean", "solvability")

INDIFF = ComparisonResult.INDIFFERENT
BETTER = ComparisonResult.STRICTLY_BETTER


@dataclass(frozen=True)
class Budget:
    """What the scan exhausted: the grid, and where applicable the
    candidate-weight denominator bound and the dyadic probe depth."""

    grid: GridSpec
    candidate_bound: int | None = None
    depth: int | None = None


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    violated: bool
    budget: Budget
    witness: object | None = None
    found: "IPFound | None" = None
    route: str | None = None

    @property
    def no_violation_found(self) -> bool:
        return not self.violated


# ---- witnesses --------------------------------------------------------------


@dataclass(frozen=True)
class CycleWitness:
    """Transitivity failure: p >= q and q >= r but p < r."""

    kind = "weak-order"
    p: Lottery
    q: Lottery
    r: Lottery
    pq: ComparisonResult
    qr: ComparisonResult
    pr: ComparisonResult

    def replay(self, oracle: PreferenceOracle) -> bool:
        return (oracle.compare(self.p, self.q) is self.pq
                and oracle.compare(self.q, self.r) is self.qr
                and oracle.compare(self.p, self.r) is self.pr
                and self.pq.weakly_better
                and self.qr.weakly_better
                and not self.pr.weakly_better)


@dataclass(frozen=True)
class IndependenceWitness:
    """Common mixing with r at weight alpha changes how p ranks vs q."""

    kind = "independence"
    p: Lottery
    q: Lottery
    r: Lottery
    alpha: Fraction
    before: ComparisonResult
    after: ComparisonResult

    def replay(self, oracle: PreferenceOracle) -> bool:
        mp = mix(self.p, self.r, self.alpha)
        mq = mix(self.q, self.r, self.alpha)
        return (oracle.compare(self.p, self.q) is self.before
                and oracle.compare(mp, mq) is self.after
                and self.before is not self.after)


@dataclass(frozen=True)
class BetweennessWitness:
    """p >= q, yet their mixture escapes the preference interval."""

    kind = "betweenness"
    p: Lottery
    q: Lottery
    alpha: Fraction
    pq: ComparisonResult
    upper: ComparisonResult
    lower: ComparisonResult

    def replay(self, oracle: PreferenceOracle) -> bool:
        m = mix(self.p, self.q, self.alpha)
        return (oracle.compare(self.p, self.q) is self.pq
                and oracle.compare(self.p, m) is self.upper
                and oracle.compare(m, self.q) is self.lower
                and self.pq.weakly_better
                and not (self.upper.weakly_better and self.lower.weakly_better))


@dataclass(frozen=True)
class ConvexityWitness:
    """Two members of an indifference class mix to a non-member."""

    kind = "convexity"
    p: Lottery
    q1: Lottery
    q2: Lottery
    alpha: Fraction
    observed: ComparisonResult

    def replay(self, oracle: PreferenceOracle) -> bool:
        m = mix(self.q1, self.q2, self.alpha)
        return (oracle.compare(self.q1, self.p) is INDIFF
                and oracle.compare(self.q2, self.p) is INDIFF
                and oracle.compare(m, self.p) is self.observed
                and self.observed is not INDIFF)


@dataclass(frozen=True)
class TranslationWitness:
    """r ~ p, but shifting r by (q - p) leaves q's indifference class."""

    kind = "translation"
    p: Lottery
    q: Lottery
    r: Lottery
    translated: Lottery
    observed: ComparisonResult

    def replay(self, oracle: PreferenceOracle) -> bool:
        shifted = tuple(
            rw + qw - pw for rw, qw, pw in
            zip(self.r.weights, self.q.weights, self.p.weights))
        return (oracle.compare(self.r, self.p) is INDIFF
                and shifted == self.translated.weights
                and oracle.compare(self.translated, self.q) is self.observed
                and self.observed is not INDIFF)


_LINE_RELATIONS = {
    kernels.LINE_Q_BEATS_POINT: "q-vs-point",
    kernels.LINE_P_BEATS_POINT: "p-vs-point",
    kernels.LINE_POINT_BEATS_Q: "point-vs-q",
    kernels.LINE_POINT_BEATS_P: "point-vs-p",
}


def _line_pair(relation, p, q, point):
    """(first, second) of the strict comparison a line-order relation
    names."""
    return {"q-vs-point": (q, point), "p-vs-point": (p, point),
            "point-vs-q": (point, q), "point-vs-p": (point, p)}[relation]


@dataclass(frozen=True)
class LineOrderWitness:
    """A point on the line through p > q compares the wrong way.

    relation names which of the expected strict comparisons failed;
    every expectation in the case table is strictly-better, so observed
    is anything else.
    """

    kind = "line-order"
    p: Lottery
    q: Lottery
    t: Fraction
    point: Lottery
    relation: str
    observed: ComparisonResult

    def __post_init__(self):
        if self.relation not in _LINE_RELATIONS.values():
            raise ValueError(f"unknown line-order relation {self.relation!r}")

    def replay(self, oracle: PreferenceOracle) -> bool:
        along = tuple(
            qw + self.t * (pw - qw)
            for pw, qw in zip(self.p.weights, self.q.weights))
        first, second = _line_pair(self.relation, self.p, self.q, self.point)
        return (oracle.compare(self.p, self.q) is BETTER
                and along == self.point.weights
                and oracle.compare(first, second) is self.observed
                and self.observed is not BETTER)


def _check_side(kind: str, side: int):
    if side not in (-1, 1):
        raise ValueError(f"{kind} side must be -1 or 1, got {side!r}")


@dataclass(frozen=True)
class MixtureWitness:
    """The weak upper set {alpha : mix(p, r, alpha) >= q} excludes
    alpha_star although every dyadic probe on one side belongs to it."""

    kind = "mixture"
    p: Lottery
    q: Lottery
    r: Lottery
    alpha_star: Fraction
    side: int  # +1: probes above alpha_star; -1: below
    boundary: ComparisonResult
    depth: int

    def __post_init__(self):
        _check_side("mixture", self.side)

    def replay(self, oracle: PreferenceOracle) -> bool:
        at_star = oracle.compare(mix(self.p, self.r, self.alpha_star), self.q)
        if at_star is not self.boundary or at_star.weakly_better:
            return False
        checked = False
        step = Fraction(1)
        for _ in range(self.depth):
            step = step / 2
            alpha = self.alpha_star + self.side * step
            if not 0 <= alpha <= 1:
                continue
            if not oracle.compare(mix(self.p, self.r, alpha), self.q).weakly_better:
                return False
            checked = True
        return checked


@dataclass(frozen=True)
class ArchimedeanWitness:
    """p > q > r, but no probed interior weight works on one side."""

    kind = "archimedean"
    p: Lottery
    q: Lottery
    r: Lottery
    side: str  # "beta": no small weight keeps q above the mixture
    depth: int

    def __post_init__(self):
        if self.side not in ("alpha", "beta"):
            raise ValueError(f"unknown archimedean side {self.side!r}")

    def replay(self, oracle: PreferenceOracle) -> bool:
        if self.depth < 1:
            return False
        if oracle.compare(self.p, self.q) is not BETTER:
            return False
        if oracle.compare(self.q, self.r) is not BETTER:
            return False
        step = Fraction(1)
        for _ in range(self.depth):
            step = step / 2
            if self.side == "beta":
                if oracle.compare(self.q, mix(self.p, self.r, step)) is BETTER:
                    return False
            else:
                if oracle.compare(mix(self.p, self.r, 1 - step), self.q) is BETTER:
                    return False
        return True


@dataclass(frozen=True)
class SolvabilityScanWitness:
    """p >= q >= r, and no candidate weight up to the bound solves."""

    kind = "solvability"
    route = "alpha-scan"
    p: Lottery
    q: Lottery
    r: Lottery
    candidate_bound: int

    def replay(self, oracle: PreferenceOracle) -> bool:
        if not oracle.compare(self.p, self.q).weakly_better:
            return False
        if not oracle.compare(self.q, self.r).weakly_better:
            return False
        for alpha in rationals_between(Fraction(0), Fraction(1), self.candidate_bound):
            if oracle.compare(mix(self.p, self.r, alpha), self.q) is INDIFF:
                return False
        return True


@dataclass(frozen=True)
class SolveContractWitness:
    """The oracle's own solve() returned a weight that does not solve."""

    kind = "solvability"
    route = "solve-contract"
    p: Lottery
    q: Lottery
    r: Lottery
    alpha: Fraction
    observed: ComparisonResult

    def replay(self, oracle: PreferenceOracle) -> bool:
        if oracle.solve(self.p, self.q, self.r) != self.alpha:
            return False
        result = oracle.compare(mix(self.p, self.r, self.alpha), self.q)
        return result is self.observed and result is not INDIFF


@dataclass(frozen=True)
class OpennessWitness:
    """q compares strictly against p, yet every dyadic step from q
    toward w (which sits strictly on the other side) stays on w's side:
    the strict set containing q is not open at q along this segment."""

    kind = "grid-openness"
    p: Lottery
    q: Lottery
    w: Lottery
    side: int  # sign of q against p
    depth: int

    def __post_init__(self):
        _check_side("grid-openness", self.side)

    def replay(self, oracle: PreferenceOracle) -> bool:
        if self.depth < 1:
            return False
        if oracle.compare(self.q, self.p).sign != self.side:
            return False
        if oracle.compare(self.w, self.p).sign != -self.side:
            return False
        step = Fraction(1)
        for _ in range(self.depth):
            step = step / 2
            probe = mix(self.w, self.q, step)
            if oracle.compare(probe, self.p).sign != -self.side:
                return False
        return True


@dataclass(frozen=True)
class IPFound:
    """A spanning indifferent set: n points of embedded affine rank n-1."""

    points: tuple[Lottery, ...]
    rank: int


@dataclass(frozen=True)
class IPExhausted:
    """The grid holds no spanning indifferent set; search evidence."""

    kind = "ip-exhausted"
    grid_size: int
    classes: int
    best_size: int

    def replay(self, oracle: PreferenceOracle) -> bool:
        return True  # nothing recorded beyond the exhausted search


# Every witness class, in declaration order.  Each carries its JSON
# "kind" (and "route" where one kind has two) as class attributes; its
# fields and their declared types are its whole JSON form.
WITNESS_TYPES = (
    CycleWitness, IndependenceWitness, BetweennessWitness, ConvexityWitness,
    TranslationWitness, LineOrderWitness, MixtureWitness, ArchimedeanWitness,
    SolvabilityScanWitness, SolveContractWitness, OpennessWitness,
    IPExhausted,
)


# ---- shared plumbing --------------------------------------------------------


@lru_cache(maxsize=8)
def _grid(grid: GridSpec):
    """(lots, nums, den) of a grid: enumerated and encoded once, since a
    caller typically checks several axioms on the same grid."""
    lots = enumerate_grid(grid)
    nums, den = kernels.encode_lotteries(lots)
    return lots, tuple(nums), den


def _encoded(oracle: PreferenceOracle, grid: GridSpec):
    lots, nums, den = _grid(grid)
    spec = kernels.encode_oracle(oracle)
    if spec is None:
        space = oracle.space

        def callback(pn, pd, qn, qd):
            p = Lottery(space, tuple(Fraction(a, pd) for a in pn))
            q = Lottery(space, tuple(Fraction(a, qd) for a in qn))
            return oracle.compare(p, q).sign

        spec = ("callback", (callback,))
    return lots, nums, den, spec


def _confirm(witness, oracle) -> object:
    if not witness.replay(oracle):
        raise RuntimeError(
            "scan backend and oracle disagree on a witness; "
            f"refusing to report it: {witness!r}")
    return witness


def _verdict(axiom, oracle, budget, hit, witness_of, route=None) -> AxiomVerdict:
    """NoViolationFound when the scan found no hit; otherwise Violated
    with the witness built from the hit and replayed against the oracle."""
    if hit is None:
        return AxiomVerdict(axiom, False, budget, route=route)
    return AxiomVerdict(axiom, True, budget, route=route,
                        witness=_confirm(witness_of(*hit), oracle))


def _pairs(alphas) -> list[tuple[int, int]]:
    return [(a.numerator, a.denominator) for a in alphas]


# ---- checkers ---------------------------------------------------------------


def check_weak_order(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Scan all grid triples for a transitivity failure.

    Completeness needs no scan: compare is total by contract.
    """
    lots, nums, den, spec = _encoded(oracle, grid)

    def witness(i, j, k):
        p, q, r = lots[i], lots[j], lots[k]
        return CycleWitness(p=p, q=q, r=r, pq=oracle.compare(p, q),
                            qr=oracle.compare(q, r), pr=oracle.compare(p, r))

    return _verdict("weak-order", oracle, Budget(grid=grid),
                    kernels.scan_transitivity(spec, nums, den), witness)


def check_independence(oracle: PreferenceOracle, grid: GridSpec,
                       variant: str = "independence") -> AxiomVerdict:
    """Falsify mixture independence, or its betweenness weakening.

    independence: mixing p and q with a common r at any dyadic weight
    must not change their ranking.  betweenness: a mixture of p >= q
    must stay weakly between them.
    """
    lots, nums, den, spec = _encoded(oracle, grid)
    budget = Budget(grid=grid, candidate_bound=grid.denominator_bound)
    if variant == "independence":
        alphas = dyadic_alphas(grid.denominator_bound)

        def witness(i, j, k, ai):
            p, q, r, alpha = lots[i], lots[j], lots[k], alphas[ai]
            return IndependenceWitness(
                p=p, q=q, r=r, alpha=alpha, before=oracle.compare(p, q),
                after=oracle.compare(mix(p, r, alpha), mix(q, r, alpha)))

        hit = kernels.scan_independence(spec, nums, den, _pairs(alphas))
        return _verdict("independence", oracle, budget, hit, witness)
    if variant == "betweenness":
        alphas = dyadic_alphas(grid.denominator_bound, interior_only=True)

        def witness(i, j, ai):
            p, q, alpha = lots[i], lots[j], alphas[ai]
            m = mix(p, q, alpha)
            return BetweennessWitness(
                p=p, q=q, alpha=alpha, pq=oracle.compare(p, q),
                upper=oracle.compare(p, m), lower=oracle.compare(m, q))

        hit = kernels.scan_betweenness(spec, nums, den, _pairs(alphas))
        return _verdict("betweenness", oracle, budget, hit, witness)
    raise ValueError(f"unknown independence variant {variant!r}")


def check_ip(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Search the grid for n mutually indifferent lotteries spanning a
    hyperplane (embedded affine rank n-1).

    Found means NoViolationFound carrying the points; an exhausted grid
    is reported as Violated in the falsifier sense.  Classes grow
    greedily in enumeration order; a found set is re-verified pairwise
    against the oracle, independently of the greedy bookkeeping.
    """
    lots = _grid(grid)[0]
    n = grid.space.n
    budget = Budget(grid=grid)
    if n == 0:
        return AxiomVerdict("ip", False, budget, found=IPFound((), -1))

    # Each class is its span: affinely independent members, the first
    # one its representative, so its affine rank is len(span) - 1.  A
    # class gets the echelon basis of its hull when a second member
    # arrives; singleton classes never need one.
    classes: list[list[Lottery]] = []
    hulls: dict[int, AffineBasis] = {}
    best_size = 0
    for lot in lots:
        for k, span in enumerate(classes):
            if oracle.compare(lot, span[0]) is INDIFF:
                if k not in hulls:
                    hulls[k] = AffineBasis(embed(span[0]).coords)
                if hulls[k].add(embed(lot).coords):
                    span.append(lot)
                break
        else:
            span = [lot]
            classes.append(span)
        best_size = max(best_size, len(span))
        if len(span) == n:
            points = tuple(span)
            pairwise = all(
                oracle.compare(points[a], points[b]) is INDIFF
                for a in range(n) for b in range(a + 1, n))
            if pairwise and affine_rank([embed(x).coords for x in points]) == n - 1:
                return AxiomVerdict(
                    "ip", False, budget, found=IPFound(points, n - 1))
            # An intransitive oracle can assemble a pseudo-class that
            # fails the honest re-check; keep scanning other classes.
    witness = IPExhausted(
        grid_size=len(lots), classes=len(classes), best_size=best_size)
    return AxiomVerdict("ip", True, budget, witness=witness)


def check_continuity(oracle: PreferenceOracle, kind: str, grid: GridSpec,
                     depth: int = DEFAULT_DEPTH) -> AxiomVerdict:
    """Falsify one member of the continuity family.

    grid-openness: a strict set with a segment of the opposite strict
    set converging into one of its points.  mixture: a boundary weight
    excluded from a weak upper set its neighbors belong to.
    archimedean: a strict sandwich with one side immune to every probed
    interior weight.  solvability: a weak sandwich nothing solves; for
    oracles with the solve capability this verifies the capability's
    answers instead of scanning (an exact weight need not sit on the
    candidate grid).  depth is the number of dyadic probes and must be
    at least 1: with none, an empty probe loop vouches for anything.
    """
    if depth < 1:
        raise ValueError(f"probe depth must be at least 1, got {depth}")
    lots, nums, den, spec = _encoded(oracle, grid)
    d = grid.denominator_bound

    if kind == "grid-openness":
        def witness(i, j, k):
            p, q, w = lots[i], lots[j], lots[k]
            return OpennessWitness(p=p, q=q, w=w, side=oracle.compare(q, p).sign,
                                   depth=depth)

        return _verdict(kind, oracle, Budget(grid=grid, depth=depth),
                        kernels.scan_openness(spec, nums, den, depth), witness)

    if kind == "mixture":
        stars = rationals_between(Fraction(0), Fraction(1), 2 * d)

        def witness(i, j, k, si, side):
            p, q, r, alpha_star = lots[i], lots[j], lots[k], stars[si]
            return MixtureWitness(
                p=p, q=q, r=r, alpha_star=alpha_star, side=side,
                boundary=oracle.compare(mix(p, r, alpha_star), q), depth=depth)

        hit = kernels.scan_mixture(spec, nums, den, _pairs(stars), depth)
        return _verdict(kind, oracle,
                        Budget(grid=grid, candidate_bound=2 * d, depth=depth),
                        hit, witness)

    if kind == "archimedean":
        def witness(i, j, k, side_code):
            side = "beta" if side_code == kernels.ARCH_SIDE_BETA else "alpha"
            return ArchimedeanWitness(p=lots[i], q=lots[j], r=lots[k],
                                      side=side, depth=depth)

        return _verdict(kind, oracle, Budget(grid=grid, depth=depth),
                        kernels.scan_archimedean(spec, nums, den, depth), witness)

    if kind == "solvability":
        if oracle.has_solve:
            if spec[0] == "eu":
                hit = kernels.scan_solvability_solve(list(spec[1]), nums, den)
            else:
                def weight(i, j, k):
                    alpha = unit_weight(oracle.solve(lots[i], lots[j], lots[k]))
                    return alpha.numerator, alpha.denominator

                hit = pure.scan_solve_contract(spec, nums, den, weight)

            def contract_witness(i, j, k, a, b):
                p, q, r, alpha = lots[i], lots[j], lots[k], Fraction(a, b)
                return SolveContractWitness(
                    p=p, q=q, r=r, alpha=alpha,
                    observed=oracle.compare(mix(p, r, alpha), q))

            return _verdict(kind, oracle, Budget(grid=grid), hit,
                            contract_witness, route=SolveContractWitness.route)

        alphas = rationals_between(Fraction(0), Fraction(1), d)

        def witness(i, j, k):
            return SolvabilityScanWitness(p=lots[i], q=lots[j], r=lots[k],
                                          candidate_bound=d)

        hit = kernels.scan_solvability_scan(spec, nums, den, _pairs(alphas))
        return _verdict(kind, oracle, Budget(grid=grid, candidate_bound=d), hit,
                        witness, route=SolvabilityScanWitness.route)

    raise ValueError(f"unknown continuity kind {kind!r}; "
                     f"expected one of {CONTINUITY_KINDS}")


def check_convexity(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Indifference classes must be closed under mixing."""
    lots, nums, den, spec = _encoded(oracle, grid)
    d = grid.denominator_bound
    alphas = rationals_between(Fraction(0), Fraction(1), d)

    def witness(i, j, k, ai):
        p, q1, q2, alpha = lots[i], lots[j], lots[k], alphas[ai]
        return ConvexityWitness(p=p, q1=q1, q2=q2, alpha=alpha,
                                observed=oracle.compare(mix(q1, q2, alpha), p))

    hit = kernels.scan_convexity(spec, nums, den, _pairs(alphas))
    return _verdict("convexity", oracle, Budget(grid=grid, candidate_bound=d),
                    hit, witness)


def check_translation(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Indifference must survive translation: r ~ p implies
    r + (q - p) ~ q whenever the shift stays inside the simplex."""
    lots, nums, den, spec = _encoded(oracle, grid)

    def witness(i, j, k):
        p, q, r = lots[i], lots[j], lots[k]
        translated = Lottery(p.space, tuple(
            rw + qw - pw for rw, qw, pw in zip(r.weights, q.weights, p.weights)))
        return TranslationWitness(p=p, q=q, r=r, translated=translated,
                                  observed=oracle.compare(translated, q))

    return _verdict("translation", oracle, Budget(grid=grid),
                    kernels.scan_translation(spec, nums, den), witness)


def check_line_order(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """For p > q, points along their line must rank by the case table:
    behind q they lose to q, between they sit strictly between, and
    beyond p they beat p."""
    lots, nums, den, spec = _encoded(oracle, grid)
    d = grid.denominator_bound

    def witness(i, j, a, b, rel_code):
        p, q, t = lots[i], lots[j], Fraction(a, b)
        point = Lottery(p.space, tuple(
            qw + t * (pw - qw) for pw, qw in zip(p.weights, q.weights)))
        relation = _LINE_RELATIONS[rel_code]
        return LineOrderWitness(
            p=p, q=q, t=t, point=point, relation=relation,
            observed=oracle.compare(*_line_pair(relation, p, q, point)))

    return _verdict("line-order", oracle, Budget(grid=grid, candidate_bound=d),
                    kernels.scan_line_order(spec, nums, den, d), witness)
