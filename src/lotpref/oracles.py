"""Preference oracles over lotteries.

An oracle answers pairwise queries with strictly-better / indifferent /
strictly-worse and may optionally support ``solve``: given p at least
as good as q at least as good as r, produce an exact alpha with
mix(p, r, alpha) indifferent to q.  The linear oracles here can solve
in closed form; the lexicographic family cannot solve at all, which is
precisely what the continuity falsifiers are designed to expose.

Each built-in ordering is written once, as an integer rule:
``integer_rule(kind, params)`` is a closure sign(pn, pd, qn, qd) on two
lotteries pn/pd and qn/qd given as integer weights over their
denominators.  A built-in oracle builds its rule once and compares the
``integer_form`` of two lotteries with it, and the scan kernels compare
grid points with the same closure, so no Fraction is built and the two
cannot drift apart.  The linear oracles (expected utility and the
represented hyperplane) rank by one integer payoff vector, their
``gauge``, built once from the utility; their solves check their
premise and compute on it too, and build no Fraction but the solved
weight.  A fitted hyperplane ranks by the same "eu" rule, over
``Hyperplane.gauge(orientation)``.

The majority oracle is deliberately intransitive (a Condorcet-style
cycle appears already on the denominator-3 grid) and exists so the
weak-order checker has a guaranteed failure case to find.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import mul

from ._record import Record
from .errors import (
    LengthMismatch,
    NoSolveCapability,
    PreconditionViolated,
    SpaceMismatch,
    UnorientedRepresentation,
)
from .geometry import Hyperplane, common_denominator
from .lotteries import Lottery, OutcomeSpace, as_fraction
from .rationals import require_exact

__all__ = [
    "ComparisonResult",
    "UtilityFunction",
    "expected_utility",
    "PreferenceOracle",
    "ExpectedUtilityOracle",
    "RepresentedOracle",
    "LexicographicOracle",
    "HybridExampleOracle",
    "MajorityOracle",
]


class ComparisonResult(enum.Enum):
    """Outcome of comparing a first lottery against a second."""

    STRICTLY_BETTER = "strictly-better"
    INDIFFERENT = "indifferent"
    STRICTLY_WORSE = "strictly-worse"

    @property
    def sign(self) -> int:
        if self is ComparisonResult.STRICTLY_BETTER:
            return 1
        if self is ComparisonResult.STRICTLY_WORSE:
            return -1
        return 0

    @classmethod
    def from_sign(cls, sign: int) -> "ComparisonResult":
        if sign > 0:
            return cls.STRICTLY_BETTER
        if sign < 0:
            return cls.STRICTLY_WORSE
        return cls.INDIFFERENT

    @property
    def weakly_better(self) -> bool:
        return self is not ComparisonResult.STRICTLY_WORSE


class UtilityFunction(Record):
    """One exact payoff per outcome."""

    space: OutcomeSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.values) is not tuple:
            raise ValueError(f"utility values must be a tuple, got {self.values!r}")
        if len(self.values) != self.space.size:
            raise LengthMismatch(
                f"{len(self.values)} payoffs for {self.space.size} outcomes")
        require_exact(self.values)

    @classmethod
    def of(cls, space: OutcomeSpace, values) -> "UtilityFunction":
        return cls(space, tuple(as_fraction(v) for v in values))


def expected_utility(u: UtilityFunction, p: Lottery) -> Fraction:
    if u.space != p.space:
        raise SpaceMismatch("utility and lottery live on different spaces")
    return sum((w * v for w, v in zip(p.weights, u.values)), Fraction(0))


class PreferenceOracle:
    """Base class; subclasses fill in ``compare`` and maybe ``solve``."""

    kind = "abstract"
    has_solve = False

    def __init__(self, space: OutcomeSpace):
        self.space = space

    def _check_pair(self, p: Lottery, q: Lottery):
        # Identity first: a lottery almost always carries the oracle's
        # own space object, and equality compares the label tuples.
        space = self.space
        if ((p.space is not space and p.space != space)
                or (q.space is not space and q.space != space)):
            raise SpaceMismatch("lottery from a different outcome space")

    def compare(self, p: Lottery, q: Lottery) -> ComparisonResult:
        """How p ranks against q.

        compare must be a function of its two lotteries: the same pair
        gets the same answer, however often or in whatever order it is
        asked.  A witness's ``replay`` rests on this, and a check may
        ask a repeated question once and reuse the answer.
        """
        raise NotImplementedError

    def solve(self, p: Lottery, q: Lottery, r: Lottery) -> Fraction:
        """Alpha in [0, 1] with mix(p, r, alpha) indifferent to q.

        The answer is owed only for p >= q >= r: an oracle that solves
        checks that premise on its own ranking and raises
        PreconditionViolated when it fails.
        """
        raise NoSolveCapability(f"{self.kind} oracle cannot solve")


def integer_rule(kind: str, params):
    """sign(pn, pd, qn, qd) of the built-in ordering ``kind``: the sign
    of p against q for lotteries with weights pn/pd and qn/qd.

    "eu" ranks by u·p for the integer payoffs ``params``, "lex" by the
    first coordinate, in the priority order ``params``, where p and q
    differ, "hybrid" as ascending lex except that two lotteries at
    x_0 = 1/2 tie, and "majority" by coordinates won minus coordinates
    lost; hybrid and majority take params ().
    """
    if kind == "eu":
        def cmp_eu(pn, pd, qn, qd):
            diff = sum(map(mul, params, pn)) * qd - sum(map(mul, params, qn)) * pd
            return (diff > 0) - (diff < 0)

        return cmp_eu

    if kind == "lex":
        def cmp_lex(pn, pd, qn, qd):
            for i in params:
                diff = pn[i] * qd - qn[i] * pd
                if diff != 0:
                    return 1 if diff > 0 else -1
            return 0

        return cmp_lex

    if kind == "hybrid":
        def cmp_hybrid(pn, pd, qn, qd):
            if 2 * pn[0] == pd and 2 * qn[0] == qd:
                return 0
            for i in range(len(pn)):
                diff = pn[i] * qd - qn[i] * pd
                if diff != 0:
                    return 1 if diff > 0 else -1
            return 0

        return cmp_hybrid

    if kind == "majority":
        def cmp_majority(pn, pd, qn, qd):
            wins = losses = 0
            for i in range(len(pn)):
                diff = pn[i] * qd - qn[i] * pd
                if diff > 0:
                    wins += 1
                elif diff < 0:
                    losses += 1
            return (wins > losses) - (wins < losses)

        return cmp_majority

    raise ValueError(f"unknown oracle encoding {kind!r}")


class _RuleOracle(PreferenceOracle):
    """A built-in oracle: compares by one integer rule on the lotteries'
    ``integer_form``.  ``encoding`` is its (kind, params), the recipe the
    scan kernels build the same rule from."""

    def __init__(self, space: OutcomeSpace, kind: str, params):
        super().__init__(space)
        self.encoding = (kind, params)
        self._sign = integer_rule(kind, params)

    def compare(self, p: Lottery, q: Lottery) -> ComparisonResult:
        self._check_pair(p, q)
        (pn, pd), (qn, qd) = p.integer_form, q.integer_form
        return ComparisonResult.from_sign(self._sign(pn, pd, qn, qd))


class _LevelOracle(_RuleOracle):
    """Shared machinery for oracles ranked by one linear score.

    ``gauge`` holds integer payoffs whose expected value is a positive
    multiple of the score plus a constant.  A lottery's gauge level is
    the integer S over the lcm B of its denominators, read off its
    ``integer_form``, so two levels compare by the sign of
    S_p·B_q − S_q·B_p (the "eu" rule) and no Fraction is built.
    """

    has_solve = True

    def __init__(self, space: OutcomeSpace, payoffs):
        # The payoffs times their denominators' lcm: a positive
        # rescaling, so it ranks as they do and keeps every ratio of
        # differences.
        self.gauge = tuple(common_denominator(payoffs)[0])
        super().__init__(space, "eu", self.gauge)

    def _gauge_level(self, p: Lottery) -> tuple[int, int]:
        """(S, B) with the gauge level of p equal to S / B."""
        nums, den = p.integer_form
        return sum(map(mul, self.gauge, nums)), den

    def solve(self, p: Lottery, q: Lottery, r: Lottery) -> Fraction:
        self._check_pair(p, q)
        self._check_pair(q, r)
        (sp, bp), (sq, bq), (sr, br) = map(self._gauge_level, (p, q, r))
        # The premise p >= q >= r, on the levels the "eu" rule compares.
        if sp * bq < sq * bp:
            raise PreconditionViolated("p must be at least as good as q")
        if sq * br < sr * bq:
            raise PreconditionViolated("q must be at least as good as r")
        # (mid - bot) / (top - bot) over the levels S/B; the ratio does
        # not see the gauge's scale or offset.
        span = (sp * br - sr * bp) * bq
        if not span:
            # The whole segment sits on q's level; any alpha works.
            return Fraction(1)
        return Fraction((sq * br - sr * bq) * bp, span)


class ExpectedUtilityOracle(_LevelOracle):
    """Ranks lotteries by expected payoff."""

    kind = "eu"

    def __init__(self, utility: UtilityFunction):
        super().__init__(utility.space, utility.values)
        self.utility = utility


class RepresentedOracle(_LevelOracle):
    """Ranks embedded lotteries by signed offset from a hyperplane.

    orientation +1 means points on the normal side are better, -1 the
    reverse.  This is the oracle form of an elicited representation.
    Its gauge is the utility (0, orientation·normal): the offset plus
    a constant, since embedding drops outcome 0.
    """

    kind = "represented"

    def __init__(self, space: OutcomeSpace, hyperplane: Hyperplane, orientation: int):
        if type(orientation) is not int or orientation not in (-1, 1):
            raise UnorientedRepresentation(
                f"orientation must be +1 or -1, got {orientation!r}")
        if len(hyperplane.normal) != space.n:
            raise SpaceMismatch(
                f"hyperplane in dimension {len(hyperplane.normal)}, space has {space.n}")
        super().__init__(space, hyperplane.gauge(orientation))
        self.hyperplane = hyperplane
        self.orientation = orientation


class LexicographicOracle(_RuleOracle):
    """Compares outcome weights one coordinate at a time.

    priority lists outcome indices from most to least important; the
    default is ascending index order.  No continuous score represents
    this ranking, and there is no solve.
    """

    kind = "lexicographic"

    def __init__(self, space: OutcomeSpace, priority: tuple[int, ...] | None = None):
        if priority is None:
            priority = tuple(range(space.size))
        for index in priority:
            if type(index) is not int:
                raise ValueError(f"priority entries must be ints, got {index!r}")
        if sorted(priority) != list(range(space.size)):
            raise LengthMismatch(
                f"priority must permute 0..{space.size - 1}, got {priority!r}")
        self.priority = tuple(priority)
        super().__init__(space, "lex", self.priority)


class HybridExampleOracle(_RuleOracle):
    """Indifference plateau at weight 1/2 on outcome 0, lexicographic
    everywhere else.

    Any two lotteries that both put exactly 1/2 on outcome 0 are
    declared indifferent; all other pairs fall back to ascending
    lexicographic comparison.  The indifference class through the
    plateau is a full hyperplane slice of the simplex, yet the ranking
    admits no continuous representation.
    """

    kind = "hybrid"

    def __init__(self, space: OutcomeSpace):
        super().__init__(space, "hybrid", ())


class MajorityOracle(_RuleOracle):
    """Prefers the lottery that wins on more coordinates.

    Intentionally intransitive; used as the test fixture the weak-order
    checker must catch.
    """

    kind = "majority"

    def __init__(self, space: OutcomeSpace):
        super().__init__(space, "majority", ())
