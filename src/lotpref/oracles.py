"""Preference oracles over lotteries.

An oracle answers pairwise queries with strictly-better / indifferent /
strictly-worse and may optionally support ``solve``: given p at least
as good as q at least as good as r, produce an exact alpha with
mix(p, r, alpha) indifferent to q.  The linear oracles here can solve
in closed form; the lexicographic family cannot solve at all, which is
precisely what the continuity falsifiers are designed to expose.

The linear oracles (expected utility and the represented hyperplane)
keep one integer payoff vector, their ``gauge``, built once from the
utility.  Comparisons and solves compute on it in
Python ints and build no Fraction but the solved weight; ``level``
still returns the exact Fraction score.  The scan kernels encode these
oracles by the same gauge.

The majority oracle is deliberately intransitive (a Condorcet-style
cycle appears already on the denominator-3 grid) and exists so the
weak-order checker has a guaranteed failure case to find.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    LengthMismatch,
    NoSolveCapability,
    PreconditionViolated,
    SpaceMismatch,
    UnorientedRepresentation,
)
from .geometry import Hyperplane, common_denominator
from .lotteries import Lottery, OutcomeSpace, as_fraction, embed, require_exact

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


@dataclass(frozen=True)
class UtilityFunction:
    """One exact payoff per outcome."""

    space: OutcomeSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
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
        if p.space != self.space or q.space != self.space:
            raise SpaceMismatch("lottery from a different outcome space")

    def compare(self, p: Lottery, q: Lottery) -> ComparisonResult:
        raise NotImplementedError

    def solve(self, p: Lottery, q: Lottery, r: Lottery) -> Fraction:
        """Alpha in [0, 1] with mix(p, r, alpha) indifferent to q."""
        raise NoSolveCapability(f"{self.kind} oracle cannot solve")

    def _solve_precondition(self, p: Lottery, q: Lottery, r: Lottery):
        if not self.compare(p, q).weakly_better:
            raise PreconditionViolated("p must be at least as good as q")
        if not self.compare(q, r).weakly_better:
            raise PreconditionViolated("q must be at least as good as r")


class _LevelOracle(PreferenceOracle):
    """Shared machinery for oracles ranked by one linear score.

    ``level`` is that score as a Fraction.  Comparisons and solves read
    ``gauge`` instead: integer payoffs whose expected value is a
    positive multiple of ``level`` plus a constant.  A lottery's gauge
    level is the integer S over the lcm B of its denominators, so two
    levels compare by the sign of S_p·B_q − S_q·B_p and no Fraction is
    built.
    """

    has_solve = True

    def __init__(self, space: OutcomeSpace, payoffs):
        super().__init__(space)
        require_exact(payoffs)
        # The payoffs times their denominators' lcm: a positive
        # rescaling, so it ranks as they do and keeps every ratio of
        # differences.  The scan kernels encode the oracle by it too.
        self.gauge = tuple(common_denominator(payoffs)[0])

    def level(self, p: Lottery) -> Fraction:
        raise NotImplementedError

    def _gauge_level(self, p: Lottery) -> tuple[int, int]:
        """(S, B) with the gauge level of p equal to S / B."""
        nums, den = common_denominator(p.weights)
        return sum(map(mul, self.gauge, nums)), den

    def compare(self, p: Lottery, q: Lottery) -> ComparisonResult:
        self._check_pair(p, q)
        sp, bp = self._gauge_level(p)
        sq, bq = self._gauge_level(q)
        d = sp * bq - sq * bp
        return ComparisonResult.from_sign((d > 0) - (d < 0))

    def solve(self, p: Lottery, q: Lottery, r: Lottery) -> Fraction:
        self._check_pair(p, r)
        self._solve_precondition(p, q, r)
        (sp, bp), (sq, bq), (sr, br) = map(self._gauge_level, (p, q, r))
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

    def level(self, p: Lottery) -> Fraction:
        return expected_utility(self.utility, p)


class RepresentedOracle(_LevelOracle):
    """Ranks embedded lotteries by signed offset from a hyperplane.

    orientation +1 means points on the normal side are better, -1 the
    reverse.  This is the oracle form of an elicited representation.
    Its gauge is the utility (0, orientation·normal): the offset plus
    a constant, since embedding drops outcome 0.
    """

    kind = "represented"

    def __init__(self, space: OutcomeSpace, hyperplane: Hyperplane, orientation: int):
        if orientation not in (-1, 1):
            raise UnorientedRepresentation(
                f"orientation must be +1 or -1, got {orientation!r}")
        if len(hyperplane.normal) != space.n:
            raise SpaceMismatch(
                f"hyperplane in dimension {len(hyperplane.normal)}, space has {space.n}")
        super().__init__(space, (Fraction(0),) + tuple(
            orientation * c for c in hyperplane.normal))
        self.hyperplane = hyperplane
        self.orientation = orientation

    def level(self, p: Lottery) -> Fraction:
        return self.orientation * self.hyperplane.level(embed(p).coords)


class LexicographicOracle(PreferenceOracle):
    """Compares outcome weights one coordinate at a time.

    priority lists outcome indices from most to least important; the
    default is ascending index order.  No continuous score represents
    this ranking, and there is no solve.
    """

    kind = "lexicographic"

    def __init__(self, space: OutcomeSpace, priority: tuple[int, ...] | None = None):
        super().__init__(space)
        if priority is None:
            priority = tuple(range(space.size))
        if sorted(priority) != list(range(space.size)):
            raise LengthMismatch(
                f"priority must permute 0..{space.size - 1}, got {priority!r}")
        self.priority = tuple(priority)

    def compare(self, p: Lottery, q: Lottery) -> ComparisonResult:
        self._check_pair(p, q)
        for i in self.priority:
            if p.weights[i] != q.weights[i]:
                sign = 1 if p.weights[i] > q.weights[i] else -1
                return ComparisonResult.from_sign(sign)
        return ComparisonResult.INDIFFERENT


class HybridExampleOracle(PreferenceOracle):
    """Indifference plateau at weight 1/2 on outcome 0, lexicographic
    everywhere else.

    Any two lotteries that both put exactly 1/2 on outcome 0 are
    declared indifferent; all other pairs fall back to ascending
    lexicographic comparison.  The indifference class through the
    plateau is a full hyperplane slice of the simplex, yet the ranking
    admits no continuous representation.
    """

    kind = "hybrid"
    THRESHOLD = Fraction(1, 2)

    def __init__(self, space: OutcomeSpace):
        super().__init__(space)
        self._lex = LexicographicOracle(space)

    def compare(self, p: Lottery, q: Lottery) -> ComparisonResult:
        self._check_pair(p, q)
        if p.weights[0] == self.THRESHOLD and q.weights[0] == self.THRESHOLD:
            return ComparisonResult.INDIFFERENT
        return self._lex.compare(p, q)


class MajorityOracle(PreferenceOracle):
    """Prefers the lottery that wins on more coordinates.

    Intentionally intransitive; used as the test fixture the weak-order
    checker must catch.
    """

    kind = "majority"

    def compare(self, p: Lottery, q: Lottery) -> ComparisonResult:
        self._check_pair(p, q)
        wins = sum(1 for a, b in zip(p.weights, q.weights) if a > b)
        losses = sum(1 for a, b in zip(p.weights, q.weights) if a < b)
        return ComparisonResult.from_sign((wins > losses) - (wins < losses))
