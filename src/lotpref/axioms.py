"""Axiom falsifiers over finite lottery grids.

Every checker scans a deterministic grid for a counterexample and
returns an AxiomVerdict: Violated with a witness, or NoViolationFound
with the exhausted budget.  A non-finding is evidence at that budget,
never proof; the verdict says which budget it means.

Witness integrity is double-route: the scans run on an integer-encoded
copy of the grid (level kernels for built-in oracles, pure ones for
callbacks) and only find a hit.  The witness class's ``observe`` then
confirms the hit by asking ``oracle.compare`` every question the
witness records, on Lottery objects built by ``mix`` and the other
public constructors rather than on the scan's encoded rows; a built-in
oracle answers from the lotteries' ``integer_form``, any other oracle
by its own code.  ``observe`` on the witness's own inputs is also its
``replay``: each violation is defined once.  A hit the oracle does not
confirm is refused with UnconfirmedHit, a RuntimeError.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from functools import lru_cache

from . import _kernels as kernels
from ._kernels import pure
from ._record import Record
from .errors import AlphaOutOfRange, PreconditionViolated, SpaceMismatch, UnconfirmedHit
from .geometry import AffineBasis, affine_rank
from .grids import GridSpec, dyadic_alphas, enumerate_grid, rationals_between
from .lotteries import Lottery, mix, unit_weight
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
    "check_weak_order",
    "check_independence",
    "check_ip",
    "check_continuity",
    "check_convexity",
    "check_translation",
    "check_line_order",
    "CONTINUITY_KINDS",
]

# Dyadic refinement budget for the continuity probes, a floor: for a
# built-in oracle check_continuity raises it to the separation depth
# (kernels.separation_depth), where every probe is exact.  A callback
# oracle's mixture, archimedean or grid-openness hit means only that
# every probe down to 2^-depth agrees.
DEFAULT_DEPTH = 24

CONTINUITY_KINDS = ("grid-openness", "mixture", "archimedean", "solvability")
_PROBE_KINDS = ("grid-openness", "mixture", "archimedean")

INDIFF = ComparisonResult.INDIFFERENT
BETTER = ComparisonResult.STRICTLY_BETTER


class Budget(Record):
    """What the scan exhausted: the grid, and where applicable the
    candidate-weight denominator bound and the dyadic probe depth."""

    grid: GridSpec
    candidate_bound: int | None = None
    depth: int | None = None


class AxiomVerdict(Record):
    """One checker's answer: the axiom, whether it was violated, and the
    budget scanned; a violation carries its witness, an IP check that
    passed its spanning set as ``found``, and ``route`` names how a
    solvability check was decided."""

    axiom: str
    violated: bool
    budget: Budget
    route: str | None = None
    witness: object | None = None
    found: "IPFound | None" = None

    @property
    def no_violation_found(self) -> bool:
        return not self.violated


# ---- witnesses --------------------------------------------------------------


class _ScanWitness:
    """Base of the scan witnesses.  ``observe(oracle, *inputs)`` asks the
    oracle every question the witness records and returns the witness
    only when the answers make a violation, else None.  Replay is the
    same observation on the witness's own inputs, the parameters of
    ``observe`` after the oracle, and must give the witness back.
    ``_choices`` maps each field that names a case to the values it may
    take."""

    _choices = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._inputs = tuple(inspect.signature(cls.observe).parameters)[1:]

    def __post_init__(self):
        # A weight outside [0, 1] mixes to no lottery, a candidate bound
        # below 1 names no candidate and a depth below 1 no probe: refuse
        # them when the witness is built, so a decoded document fails
        # there and not in replay.  A solve contract's alpha may be None.
        fields = self.__dataclass_fields__
        for name in ("alpha", "alpha_star"):
            value = getattr(self, name) if name in fields else None
            if value is not None and not 0 <= value <= 1:
                raise ValueError(f"{self.kind} {name} must lie in [0, 1], got {value}")
        for name in ("candidate_bound", "depth"):
            value = getattr(self, name) if name in fields else 1
            if type(value) is not int or value < 1:
                raise ValueError(f"{self.kind} {name} must be an int of at least 1, "
                                 f"got {value!r}")
        for name, allowed in self._choices.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{self.kind} {name} must be one of {allowed}, "
                                 f"got {getattr(self, name)!r}")

    def replay(self, oracle: PreferenceOracle) -> bool:
        inputs = (getattr(self, name) for name in self._inputs)
        return self.observe(oracle, *inputs) == self


def _simplex_point(space, weights) -> Lottery | None:
    """The lottery with these weights, which sum to one, or None when
    one of them is negative."""
    return None if min(weights) < 0 else Lottery(space, weights)


@lru_cache(maxsize=64, typed=True)
def _dyadic_steps(depth: int) -> tuple[Fraction, ...]:
    """The probe steps 1/2, 1/4, ..., 2^-depth, built once per depth."""
    return tuple([Fraction(1, 2 ** e) for e in range(1, depth + 1)])


class CycleWitness(_ScanWitness, Record):
    """Transitivity failure: p >= q and q >= r but p < r."""

    kind = "weak-order"
    p: Lottery
    q: Lottery
    r: Lottery
    pq: ComparisonResult
    qr: ComparisonResult
    pr: ComparisonResult

    @classmethod
    def observe(cls, oracle, p, q, r):
        pq, qr, pr = oracle.compare(p, q), oracle.compare(q, r), oracle.compare(p, r)
        if pq.weakly_better and qr.weakly_better and not pr.weakly_better:
            return cls(p=p, q=q, r=r, pq=pq, qr=qr, pr=pr)
        return None


class IndependenceWitness(_ScanWitness, Record):
    """Common mixing with r at weight alpha changes how p ranks vs q."""

    kind = "independence"
    p: Lottery
    q: Lottery
    r: Lottery
    alpha: Fraction
    before: ComparisonResult
    after: ComparisonResult

    @classmethod
    def observe(cls, oracle, p, q, r, alpha):
        before = oracle.compare(p, q)
        after = oracle.compare(mix(p, r, alpha), mix(q, r, alpha))
        if before is not after:
            return cls(p=p, q=q, r=r, alpha=alpha, before=before, after=after)
        return None


class BetweennessWitness(_ScanWitness, Record):
    """p >= q, yet their mixture escapes the preference interval."""

    kind = "betweenness"
    p: Lottery
    q: Lottery
    alpha: Fraction
    pq: ComparisonResult
    upper: ComparisonResult
    lower: ComparisonResult

    @classmethod
    def observe(cls, oracle, p, q, alpha):
        m = mix(p, q, alpha)
        pq, upper, lower = (oracle.compare(p, q), oracle.compare(p, m),
                            oracle.compare(m, q))
        if pq.weakly_better and not (upper.weakly_better and lower.weakly_better):
            return cls(p=p, q=q, alpha=alpha, pq=pq, upper=upper, lower=lower)
        return None


class ConvexityWitness(_ScanWitness, Record):
    """Two members of an indifference class mix to a non-member."""

    kind = "convexity"
    p: Lottery
    q1: Lottery
    q2: Lottery
    alpha: Fraction
    observed: ComparisonResult

    @classmethod
    def observe(cls, oracle, p, q1, q2, alpha):
        if oracle.compare(q1, p) is not INDIFF or oracle.compare(q2, p) is not INDIFF:
            return None
        observed = oracle.compare(mix(q1, q2, alpha), p)
        if observed is not INDIFF:
            return cls(p=p, q1=q1, q2=q2, alpha=alpha, observed=observed)
        return None


class TranslationWitness(_ScanWitness, Record):
    """r ~ p, but shifting r by (q - p) leaves q's indifference class."""

    kind = "translation"
    p: Lottery
    q: Lottery
    r: Lottery
    translated: Lottery
    observed: ComparisonResult

    @classmethod
    def observe(cls, oracle, p, q, r):
        if oracle.compare(r, p) is not INDIFF:
            return None
        translated = _simplex_point(p.space, tuple(
            rw + qw - pw for rw, qw, pw in zip(r.weights, q.weights, p.weights)))
        if translated is None:
            return None
        observed = oracle.compare(translated, q)
        if observed is not INDIFF:
            return cls(p=p, q=q, r=r, translated=translated, observed=observed)
        return None


class LineOrderWitness(_ScanWitness, Record):
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
    _choices = {"relation": ("q-vs-point", "p-vs-point", "point-vs-q",
                             "point-vs-p")}

    @classmethod
    def observe(cls, oracle, p, q, t, relation):
        if oracle.compare(p, q) is not BETTER:
            return None
        point = _simplex_point(p.space, tuple(
            qw + t * (pw - qw) for pw, qw in zip(p.weights, q.weights)))
        if point is None:
            return None
        first, second = {"q-vs-point": (q, point), "p-vs-point": (p, point),
                         "point-vs-q": (point, q), "point-vs-p": (point, p)}[relation]
        observed = oracle.compare(first, second)
        if observed is not BETTER:
            return cls(p=p, q=q, t=t, point=point, relation=relation,
                       observed=observed)
        return None


class MixtureWitness(_ScanWitness, Record):
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
    _choices = {"side": (-1, 1)}

    @classmethod
    def observe(cls, oracle, p, q, r, alpha_star, side, depth):
        boundary = oracle.compare(mix(p, r, alpha_star), q)
        if boundary.weakly_better:
            return None
        probes = [alpha for step in _dyadic_steps(depth)
                  if 0 <= (alpha := alpha_star + side * step) <= 1]
        if probes and all(oracle.compare(mix(p, r, alpha), q).weakly_better
                          for alpha in probes):
            return cls(p=p, q=q, r=r, alpha_star=alpha_star, side=side,
                       boundary=boundary, depth=depth)
        return None


class ArchimedeanWitness(_ScanWitness, Record):
    """p > q > r, but no probed interior weight works on one side."""

    kind = "archimedean"
    p: Lottery
    q: Lottery
    r: Lottery
    side: str  # "beta": no small weight keeps q above the mixture
    depth: int
    _choices = {"side": ("beta", "alpha")}

    @classmethod
    def observe(cls, oracle, p, q, r, side, depth):
        if (depth < 1 or oracle.compare(p, q) is not BETTER
                or oracle.compare(q, r) is not BETTER):
            return None
        for step in _dyadic_steps(depth):
            if side == "beta":
                works = oracle.compare(q, mix(p, r, step))
            else:
                works = oracle.compare(mix(p, r, 1 - step), q)
            if works is BETTER:
                return None
        return cls(p=p, q=q, r=r, side=side, depth=depth)


class SolvabilityScanWitness(_ScanWitness, Record):
    """p >= q >= r, and no candidate weight up to the bound solves."""

    kind = "solvability"
    route = "alpha-scan"
    p: Lottery
    q: Lottery
    r: Lottery
    candidate_bound: int

    @classmethod
    def observe(cls, oracle, p, q, r, candidate_bound):
        if not (oracle.compare(p, q).weakly_better
                and oracle.compare(q, r).weakly_better):
            return None
        candidates = rationals_between(Fraction(0), Fraction(1), candidate_bound)
        if any(oracle.compare(mix(p, r, alpha), q) is INDIFF for alpha in candidates):
            return None
        return cls(p=p, q=q, r=r, candidate_bound=candidate_bound)


def _solved(oracle, p, q, r) -> Fraction | None:
    """The weight oracle.solve gives the triple, or None where solve
    refuses the premise or gives no weight in [0, 1]: a broken solve
    contract when compare ranks the triple p >= q >= r."""
    try:
        return unit_weight(oracle.solve(p, q, r))
    except (PreconditionViolated, AlphaOutOfRange):
        return None


class SolveContractWitness(_ScanWitness, Record):
    """The oracle's own solve() returned a weight that does not solve;
    alpha and observed are None where, on a triple its compare ranks
    p >= q >= r, solve() refused the premise or gave no weight in
    [0, 1]."""

    kind = "solvability"
    route = "solve-contract"
    p: Lottery
    q: Lottery
    r: Lottery
    alpha: Fraction | None = None
    observed: ComparisonResult | None = None

    @classmethod
    def observe(cls, oracle, p, q, r):
        # solve() owes an answer only under its premise p >= q >= r.
        if not (oracle.compare(p, q).weakly_better
                and oracle.compare(q, r).weakly_better):
            return None
        alpha = _solved(oracle, p, q, r)
        if alpha is None:
            return cls(p=p, q=q, r=r)
        observed = oracle.compare(mix(p, r, alpha), q)
        if observed is not INDIFF:
            return cls(p=p, q=q, r=r, alpha=alpha, observed=observed)
        return None


class OpennessWitness(_ScanWitness, Record):
    """q compares strictly against p, yet every dyadic step from q
    toward w (which sits strictly on the other side) stays on w's side:
    the strict set containing q is not open at q along this segment."""

    kind = "grid-openness"
    p: Lottery
    q: Lottery
    w: Lottery
    side: int  # sign of q against p
    depth: int
    _choices = {"side": (-1, 1)}

    @classmethod
    def observe(cls, oracle, p, q, w, depth):
        side = oracle.compare(q, p).sign
        if depth < 1 or side == 0 or oracle.compare(w, p).sign != -side:
            return None
        if any(oracle.compare(mix(w, q, step), p).sign != -side
               for step in _dyadic_steps(depth)):
            return None
        return cls(p=p, q=q, w=w, side=side, depth=depth)


class IPFound(Record):
    """A spanning indifferent set: n points of embedded affine rank n-1."""

    points: tuple[Lottery, ...]
    rank: int


class IPExhausted(Record):
    """The grid holds no spanning indifferent set; search evidence."""

    kind = "ip-exhausted"
    grid_size: int
    classes: int
    best_size: int

    def __post_init__(self):
        # The classes partition the grid: each holds a point, and none
        # more than the other classes leave.
        for name in ("grid_size", "classes", "best_size"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{self.kind} {name} must be an int, "
                                 f"got {getattr(self, name)!r}")
        if self.grid_size < 1:
            raise ValueError(f"{self.kind} grid_size must be at least 1, "
                             f"got {self.grid_size}")
        for name, high in (("classes", self.grid_size),
                           ("best_size", self.grid_size - self.classes + 1)):
            if not 1 <= getattr(self, name) <= high:
                raise ValueError(f"{self.kind} {name} must lie in 1..{high}, "
                                 f"got {getattr(self, name)}")

    def replay(self, oracle: PreferenceOracle) -> bool:
        return True  # nothing recorded beyond the exhausted search


# Every witness class, in declaration order: __subclasses__ lists the
# scan witnesses as they were defined.  Each carries its JSON "kind"
# (and "route" where one kind has two) as class attributes; its fields
# and their declared types are its whole JSON form.
WITNESS_TYPES = (*_ScanWitness.__subclasses__(), IPExhausted)


# ---- shared plumbing --------------------------------------------------------


@lru_cache(maxsize=8)
def _grid(grid: GridSpec):
    """(lots, nums, den) of a grid: enumerated and encoded once, since a
    caller typically checks several axioms on the same grid."""
    lots = enumerate_grid(grid)
    nums, den = kernels.encode_lotteries(lots)
    return lots, tuple(nums), den


# How many off-grid lotteries (mixtures, translates, probes, line
# points) one callback check keeps built, and how many answers it keeps.
_INTERNED = 1 << 12


def _interned(space, lots, nums, den):
    """lottery(xn, xd): the Lottery with weights xn[c]/xd, keyed by the
    integers that spell it, as the answer memo keys its questions.  A
    grid point spelled over den is the grid's own lot.  Any other
    spelling is built through the validating constructor and then
    reused while it stays among the _INTERNED most recently used."""
    on_grid = dict(zip(nums, lots))

    @lru_cache(maxsize=_INTERNED)
    def build(xn, xd):
        return Lottery.from_integers(space, xn, xd)

    def lottery(xn, xd):
        lot = on_grid.get(xn) if xd == den else None
        return build(xn, xd) if lot is None else lot

    return lottery


def _encoded(oracle: PreferenceOracle, grid: GridSpec):
    """(lots, nums, den, spec) for one check, once the oracle and the
    grid share an outcome space.  An oracle the encoder refuses gets a
    ("callback", ...) spec whose closure asks ``oracle.compare`` on
    interned lotteries (``_interned``).  The closure keeps the answers
    to its _INTERNED most recent distinct questions, keyed by their
    integer arguments, so the oracle is asked each of those once; the
    memo is built here and lives for one check.  Witness confirmation
    asks the oracle itself, never the memo."""
    if oracle.space is not grid.space and oracle.space != grid.space:
        raise SpaceMismatch(f"oracle over {oracle.space.size} outcomes, "
                            f"grid over {grid.space.size}")
    lots, nums, den = _grid(grid)
    spec = kernels.encode_oracle(oracle)
    if spec is None:
        lottery = _interned(oracle.space, lots, nums, den)

        @lru_cache(maxsize=_INTERNED)
        def callback(pn, pd, qn, qd):
            return oracle.compare(lottery(pn, pd), lottery(qn, qd)).sign

        spec = ("callback", (callback,))
    return lots, nums, den, spec


def _verdict(cls, oracle, budget, hit, inputs_of) -> AxiomVerdict:
    """NoViolationFound when the scan found no hit; otherwise Violated
    with the witness ``cls.observe`` builds from the hit's inputs, once
    it also replays.  A hit the oracle does not confirm, or a witness
    its answers no longer reproduce, is refused."""
    route = getattr(cls, "route", None)
    if hit is None:
        return AxiomVerdict(cls.kind, False, budget, route=route)
    witness = cls.observe(oracle, *inputs_of(*hit))
    if witness is None or not witness.replay(oracle):
        raise UnconfirmedHit(
            f"scan backend and oracle disagree on the {cls.kind} hit "
            f"{hit!r}; refusing to report it: {witness!r}")
    return AxiomVerdict(cls.kind, True, budget, witness=witness, route=route)


def _pairs(alphas) -> list[tuple[int, int]]:
    return [(a.numerator, a.denominator) for a in alphas]


# ---- checkers ---------------------------------------------------------------


def check_weak_order(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Scan all grid triples for a transitivity failure.

    Completeness needs no scan: compare is total by contract.
    """
    lots, nums, den, spec = _encoded(oracle, grid)
    return _verdict(CycleWitness, oracle, Budget(grid=grid),
                    kernels.scan_transitivity(spec, nums, den),
                    lambda i, j, k: (lots[i], lots[j], lots[k]))


def check_independence(oracle: PreferenceOracle, grid: GridSpec,
                       variant: str = "independence") -> AxiomVerdict:
    """Falsify mixture independence, or its betweenness weakening.

    independence: mixing p and q with a common r at any dyadic weight
    must not change their ranking.  betweenness: a mixture of p >= q
    must stay weakly between them.
    """
    if variant not in ("independence", "betweenness"):
        raise ValueError(f"unknown independence variant {variant!r}")
    lots, nums, den, spec = _encoded(oracle, grid)
    budget = Budget(grid=grid, candidate_bound=grid.denominator_bound)
    if variant == "independence":
        alphas = dyadic_alphas(grid.denominator_bound)
        return _verdict(IndependenceWitness, oracle, budget,
                        kernels.scan_independence(spec, nums, den, _pairs(alphas)),
                        lambda i, j, k, ai: (lots[i], lots[j], lots[k], alphas[ai]))
    alphas = dyadic_alphas(grid.denominator_bound, interior_only=True)
    return _verdict(BetweennessWitness, oracle, budget,
                    kernels.scan_betweenness(spec, nums, den, _pairs(alphas)),
                    lambda i, j, ai: (lots[i], lots[j], alphas[ai]))


def _greedy_classes(nums, den, spec):
    """Each grid point's class index, in grid order: the first class
    whose representative, its first member, the point is indifferent
    to, or a new class.

    Lex ties only equal weight vectors, and the grid lists each lottery
    once, so under lex every class is a singleton: point i is class i,
    read with no sign table.  Any other encoded oracle reads
    indifference off the sign table's eq bits, with no comparison: each
    new representative claims, in one bitset operation, every later
    unclaimed point indifferent to it, which is the point's first such
    representative.  A callback spec's closure is asked lazily instead,
    one point at a time, as a scan asks it, so an early exit saves the
    comparisons of the points after it.
    """
    if spec[0] == "callback":
        cmp = pure.make_compare(spec)
        reps: list[tuple[int, ...]] = []
        for p in nums:
            k = next((k for k, rep in enumerate(reps)
                      if cmp(p, den, rep, den) == 0), len(reps))
            if k == len(reps):
                reps.append(p)
            yield k
        return
    if spec[0] == "lex":
        yield from range(len(nums))
        return
    signs = pure._SignTable(spec, nums, den)
    owner: list[int | None] = [None] * len(nums)
    unclaimed = (1 << len(nums)) - 1
    founded = 0
    for i in range(len(nums)):
        if owner[i] is None:
            owner[i] = founded
            unclaimed ^= 1 << i
            claimed = signs.col(i)[1] & unclaimed
            unclaimed ^= claimed
            for m in pure._bits(claimed):
                owner[m] = founded
            founded += 1
        yield owner[i]


def check_ip(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Search the grid for n mutually indifferent lotteries spanning a
    hyperplane (embedded affine rank n-1).

    Found means NoViolationFound carrying the points; an exhausted grid
    is reported as Violated in the falsifier sense.  Classes grow
    greedily in enumeration order (``_greedy_classes``); a found set is
    re-verified pairwise against the oracle, independently of the
    greedy bookkeeping.
    """
    lots, nums, den, spec = _encoded(oracle, grid)
    n = grid.space.n
    budget = Budget(grid=grid)
    if n == 0:
        return AxiomVerdict("ip", False, budget, found=IPFound((), -1))

    # Each class is its span: the grid indices of affinely independent
    # members, the first one its representative, so its affine rank is
    # len(span) - 1.  A class gets the echelon basis of its hull when a
    # second member arrives; singleton classes never need one.  The
    # geometry reads the grid rows, which share the denominator den,
    # with coordinate 0 dropped: the embedded points scaled by den.
    classes: list[list[int]] = []
    hulls: dict[int, AffineBasis] = {}
    best_size = 0
    for i, k in enumerate(_greedy_classes(nums, den, spec)):
        if k == len(classes):
            span = [i]
            classes.append(span)
        else:
            span = classes[k]
            if k not in hulls:
                hulls[k] = AffineBasis(nums[span[0]][1:])
            if hulls[k].add(nums[i][1:]):
                span.append(i)
        best_size = max(best_size, len(span))
        if len(span) == n:
            points = tuple(lots[j] for j in span)
            pairwise = all(
                oracle.compare(points[a], points[b]) is INDIFF
                for a in range(n) for b in range(a + 1, n))
            if pairwise and affine_rank([nums[j][1:] for j in span]) == n - 1:
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
    It is a floor: for a built-in oracle the probe kinds raise it to the
    separation depth (candidate bound 2d), from which a hit is a real
    failure along its segment, and the budget and witness record it.  A
    callback oracle keeps it; its hit says only that every probe agrees.
    """
    if type(depth) is not int:
        raise ValueError(f"probe depth must be an int, got {depth!r}")
    if depth < 1:
        raise ValueError(f"probe depth must be at least 1, got {depth}")
    if kind not in CONTINUITY_KINDS:
        raise ValueError(f"unknown continuity kind {kind!r}; "
                         f"expected one of {CONTINUITY_KINDS}")
    lots, nums, den, spec = _encoded(oracle, grid)
    d = grid.denominator_bound
    if kind in _PROBE_KINDS and spec[0] != "callback":
        depth = max(depth, kernels.separation_depth(spec, den, 2 * d))

    if kind == "grid-openness":
        return _verdict(OpennessWitness, oracle, Budget(grid=grid, depth=depth),
                        kernels.scan_openness(spec, nums, den, depth),
                        lambda i, j, k: (lots[i], lots[j], lots[k], depth))

    if kind == "mixture":
        stars = rationals_between(Fraction(0), Fraction(1), 2 * d)
        return _verdict(MixtureWitness, oracle,
                        Budget(grid=grid, candidate_bound=2 * d, depth=depth),
                        kernels.scan_mixture(spec, nums, den, _pairs(stars), depth),
                        lambda i, j, k, si, side: (
                            lots[i], lots[j], lots[k], stars[si], side, depth))

    if kind == "archimedean":
        return _verdict(ArchimedeanWitness, oracle, Budget(grid=grid, depth=depth),
                        kernels.scan_archimedean(spec, nums, den, depth),
                        lambda i, j, k, side: (lots[i], lots[j], lots[k], side, depth))

    # The one kind left: solvability.
    if oracle.has_solve:
        def weight(i, j, k):
            alpha = _solved(oracle, lots[i], lots[j], lots[k])
            return None if alpha is None else (alpha.numerator, alpha.denominator)

        # observe asks solve() itself; the hit's weight a/b only led
        # the scan to the triple.
        return _verdict(SolveContractWitness, oracle, Budget(grid=grid),
                        kernels.scan_solvability_solve(spec, nums, den, weight),
                        lambda i, j, k, a, b: (lots[i], lots[j], lots[k]))

    alphas = rationals_between(Fraction(0), Fraction(1), d)
    return _verdict(SolvabilityScanWitness, oracle,
                    Budget(grid=grid, candidate_bound=d),
                    kernels.scan_solvability_scan(spec, nums, den, _pairs(alphas)),
                    lambda i, j, k: (lots[i], lots[j], lots[k], d))


def check_convexity(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Indifference classes must be closed under mixing."""
    lots, nums, den, spec = _encoded(oracle, grid)
    d = grid.denominator_bound
    alphas = rationals_between(Fraction(0), Fraction(1), d)
    return _verdict(ConvexityWitness, oracle, Budget(grid=grid, candidate_bound=d),
                    kernels.scan_convexity(spec, nums, den, _pairs(alphas)),
                    lambda i, j, k, ai: (lots[i], lots[j], lots[k], alphas[ai]))


def check_translation(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """Indifference must survive translation: r ~ p implies
    r + (q - p) ~ q whenever the shift stays inside the simplex."""
    lots, nums, den, spec = _encoded(oracle, grid)
    return _verdict(TranslationWitness, oracle, Budget(grid=grid),
                    kernels.scan_translation(spec, nums, den),
                    lambda i, j, k: (lots[i], lots[j], lots[k]))


def check_line_order(oracle: PreferenceOracle, grid: GridSpec) -> AxiomVerdict:
    """For p > q, points along their line must rank by the case table:
    behind q they lose to q, between they sit strictly between, and
    beyond p they beat p."""
    lots, nums, den, spec = _encoded(oracle, grid)
    d = grid.denominator_bound
    return _verdict(LineOrderWitness, oracle, Budget(grid=grid, candidate_bound=d),
                    kernels.scan_line_order(spec, nums, den, d),
                    lambda i, j, a, b, relation: (
                        lots[i], lots[j], Fraction(a, b), relation))
