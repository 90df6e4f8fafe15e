"""A callback oracle's scans ask the same questions; the oracle hears
a repeated one once while the check's memo keeps its answer.

An oracle the encoder refuses (here, subclasses of two built-in
oracles) reaches every scan through the closure of a ("callback", ...)
spec.  Within one check, ``axioms._encoded`` hands the oracle the grid's
own lotteries, builds each other spelling of a lottery once, and
answers a question its memo still holds without asking the oracle
again.  Lotteries and answers are both keyed by the integers the
question spells them with.

The questions the scans ask, their order and their number must not
depend on any of that: with the questions witness confirmation asks
the oracle directly, they are the stream whose counts and digests below
were recorded on fresh, per-call lotteries, before interning or the
memo, with the same oracles, grid and checks, less the questions an
expected-utility ``solve`` then asked to check its premise (it now reads
the premise off its gauge levels).  What reaches the oracle is that
stream through a least-recently-used memo of ``axioms._INTERNED``
answers keyed by the closure's integer arguments; the oracle-level
counts below were simulated that way from the recorded stream.
"""

import hashlib
from collections import OrderedDict
from fractions import Fraction

import pytest

from lotpref import axioms
from lotpref.errors import SumNotOne, UnconfirmedHit
from lotpref.grids import GridSpec
from lotpref.lotteries import OutcomeSpace, degenerate
from lotpref.oracles import (
    ComparisonResult,
    ExpectedUtilityOracle,
    MajorityOracle,
    UtilityFunction,
)

SPACE = OutcomeSpace.of_size(3)
GRID = GridSpec(SPACE, 4)

CHECKS = {
    "weak-order": axioms.check_weak_order,
    "translation": axioms.check_translation,
    "line-order": axioms.check_line_order,
    "grid-openness": lambda o, g: axioms.check_continuity(o, "grid-openness", g),
    "solvability": lambda o, g: axioms.check_continuity(o, "solvability", g),
    "mixture": lambda o, g: axioms.check_continuity(o, "mixture", g),
    "archimedean": lambda o, g: axioms.check_continuity(o, "archimedean", g),
    "independence": axioms.check_independence,
}

# (oracle, check) -> (questions, violated, digest of the questions in
# order): the scan's, solve's and witness confirmation's together.
PINNED = {
    ("eu", "weak-order"): (484, False, "856385568b7ff406"),
    ("eu", "translation"): (1029, False, "edc59fa6854df96c"),
    ("eu", "line-order"): (4319, False, "a14fee19ee6b4e98"),
    ("eu", "grid-openness"): (5225, False, "7261a82468fcc4e9"),
    ("eu", "solvability"): (2654, False, "e6c27c2cc5e8b1ca"),
    ("eu", "mixture"): (520500, False, "4eda7d929ec7e48a"),
    ("eu", "archimedean"): (5662, False, "90d9d9739bfbc873"),
    ("eu", "independence"): (43076, False, "937ab0b1ad866559"),
    ("majority", "weak-order"): (50, True, "1b60533680da915d"),
    ("majority", "translation"): (3158, False, "342a269377219182"),
    ("majority", "line-order"): (2119, False, "3111e281009d55cd"),
    ("majority", "grid-openness"): (2323, False, "b3d6b213541aebc8"),
    ("majority", "solvability"): (1266, True, "2f18109e52e46f7b"),
    ("majority", "mixture"): (488246, False, "e56558974726ea30"),
    ("majority", "archimedean"): (2770, False, "9a80ac80e7dacacc"),
    ("majority", "independence"): (43076, False, "937ab0b1ad866559"),
}

# Of those questions, the ones asked of the oracle itself rather than
# through the closure, as (solve's, confirmation's): a hit's observe and
# replay confirm the witness, and solve asks none, since eu's reads its
# premise off its gauge.  Every other check asks none.
DIRECT = {
    ("majority", "weak-order"): (0, 6),
    ("majority", "solvability"): (0, 18),
}

# (oracle, check) -> compare calls the oracle receives: the closure's
# questions through an LRU of _INTERNED = 4,096 answers, plus DIRECT.
ORACLE_CALLS = {
    ("eu", "weak-order"): 484,
    ("eu", "translation"): 519,
    ("eu", "line-order"): 3442,
    ("eu", "grid-openness"): 3131,
    ("eu", "solvability"): 1495,
    ("eu", "mixture"): 431042,
    ("eu", "archimedean"): 4734,
    ("eu", "independence"): 29825,
    ("majority", "weak-order"): 50,
    ("majority", "translation"): 760,
    ("majority", "line-order"): 2005,
    ("majority", "grid-openness"): 1561,
    ("majority", "solvability"): 724,
    ("majority", "mixture"): 412156,
    ("majority", "archimedean"): 2548,
    ("majority", "independence"): 29825,
}


def recording(base):
    class Recording(base):
        """Keeps the compare calls the oracle receives, ``calls``, and
        the questions in the order they are asked, ``stream``: the
        closure's, as ("closure", its integer arguments, how many
        compare calls answering it made), and each compare call not made
        through the closure, as ("direct", p, q, whether solve made
        it)."""

        def __init__(self, *args):
            super().__init__(*args)
            self.calls = []
            self.stream = []
            self.in_closure = self.solving = False

        def compare(self, p, q):
            self.calls.append((p, q, self.in_closure))
            if not self.in_closure:
                self.stream.append(("direct", p, q, self.solving))
            return super().compare(p, q)

        def solve(self, p, q, r):
            self.solving = True
            try:
                return super().solve(p, q, r)
            finally:
                self.solving = False

    return Recording


ORACLES = {
    "eu": lambda: recording(ExpectedUtilityOracle)(UtilityFunction.of(SPACE, (0, 1, 3))),
    "majority": lambda: recording(MajorityOracle)(SPACE),
}


def run_recorded(oracle, check, monkeypatch):
    """The verdict, and how many compare calls the oracle had received
    when the scan ended and the verdict began.  The closure the check's
    spec holds is wrapped, so each question it is asked enters
    ``oracle.stream``, whether or not its memo answers."""
    encoded = axioms._encoded

    def recording_encoded(*args):
        lots, nums, den, spec = encoded(*args)
        assert spec[0] == "callback"
        closure = spec[1][0]

        def callback(*key):
            asked = len(oracle.calls)
            oracle.in_closure = True
            try:
                return closure(*key)
            finally:
                oracle.in_closure = False
                oracle.stream.append(("closure", key, len(oracle.calls) - asked))

        return lots, nums, den, ("callback", (callback,))

    scan_end = []
    verdict = axioms._verdict

    def marking_verdict(*args):
        scan_end.append(len(oracle.calls))
        return verdict(*args)

    monkeypatch.setattr(axioms, "_encoded", recording_encoded)
    monkeypatch.setattr(axioms, "_verdict", marking_verdict)
    return CHECKS[check](oracle, GRID), scan_end[0]


def lru_misses(keys, size):
    """The keys, in order, that an LRU memo of size entries does not
    hold when they arrive."""
    memo = OrderedDict()
    misses = []
    for key in keys:
        if key in memo:
            memo.move_to_end(key)
            continue
        misses.append(key)
        memo[key] = None
        if len(memo) > size:
            memo.popitem(last=False)
    return misses


@pytest.mark.parametrize("label, check", sorted(PINNED))
def test_callback_questions_unchanged_by_interning(label, check, monkeypatch):
    oracle = ORACLES[label]()
    result, scan_end = run_recorded(oracle, check, monkeypatch)

    # Each lottery's weights as text once, for the digests.
    texts = {}

    def text(nums, den):
        if (nums, den) not in texts:
            texts[nums, den] = repr(tuple(Fraction(x, den) for x in nums))
        return texts[nums, den]

    def question(entry):
        if entry[0] == "closure":
            pn, pd, qn, qd = entry[1]
            return text(pn, pd), text(qn, qd)
        return tuple(text(*x.integer_form) for x in entry[1:3])

    # The questions are the ones recorded before interning, in order.
    digest = hashlib.sha256()
    for entry in oracle.stream:
        digest.update("({}, {})".format(*question(entry)).encode())
    assert (len(oracle.stream), result.violated,
            digest.hexdigest()[:16]) == PINNED[label, check]

    # The direct ones: solve's during the scan, confirmation's after it.
    direct = [n for n, (_, _, in_closure) in enumerate(oracle.calls) if not in_closure]
    solving = sum(entry[-1] for entry in oracle.stream if entry[0] == "direct")
    confirming = sum(n >= scan_end for n in direct)
    assert solving + confirming == len(direct)
    assert (solving, confirming) == DIRECT.get((label, check), (0, 0))

    # The oracle hears, in order, the closure's questions that an LRU of
    # _INTERNED answers misses, once each, and the direct ones: at the
    # default bound, the pinned count.
    closure = [entry[1:] for entry in oracle.stream if entry[0] == "closure"]
    keys = [key for key, _ in closure]
    assert {calls for _, calls in closure} <= {0, 1}
    assert [key for key, calls in closure if calls] == lru_misses(keys, axioms._INTERNED)
    assert len(lru_misses(keys, 1 << 12)) + len(direct) == ORACLE_CALLS[label, check]

    # Each lottery the closure hands the oracle is keyed by its
    # spelling: a grid point spelled over den is the grid's own lot,
    # and any other spelling is one object while an LRU of _INTERNED
    # spellings keeps it.
    lots, nums, den = axioms._grid(GRID)
    grid_lots = dict(zip(nums, lots))
    spellings = [x for key, calls in closure if calls for x in (key[:2], key[2:])]
    handed = [x for p, q, in_closure in oracle.calls if in_closure for x in (p, q)]
    assert len(spellings) == len(handed)
    kept = OrderedDict()
    for (xn, xd), lot in zip(spellings, handed):
        ln, ld = lot.integer_form
        assert [a * xd for a in ln] == [x * ld for x in xn]
        if xd == den and xn in grid_lots:
            assert lot is grid_lots[xn]
        elif (xn, xd) in kept:
            assert kept[xn, xd] is lot
            kept.move_to_end((xn, xd))
        else:
            kept[xn, xd] = lot
            if len(kept) > axioms._INTERNED:
                kept.popitem(last=False)


@pytest.mark.parametrize("label", sorted(ORACLES))
def test_no_answer_outlives_its_check(label):
    oracle = ORACLES[label]()
    asked = []
    for _ in range(2):
        del oracle.calls[:]
        assert not axioms.check_translation(oracle, GRID).violated
        asked.append([(p.weights, q.weights) for p, q, _ in oracle.calls])
    assert len(asked[0]) == ORACLE_CALLS[label, "translation"]
    assert asked[1] == asked[0]


def test_an_answer_the_oracle_takes_back_is_refused():
    # The scan keeps the first answer; observe and replay ask the
    # oracle itself, which no longer gives it, so the hit is refused.
    top, bottom = degenerate(SPACE, 2), degenerate(SPACE, 0)

    class TakesBack(ExpectedUtilityOracle):
        taken_back = False

        def compare(self, p, q):
            if (p, q) == (top, bottom) and not self.taken_back:
                self.taken_back = True
                return ComparisonResult.STRICTLY_WORSE
            return super().compare(p, q)

    oracle = TakesBack(UtilityFunction.of(SPACE, (0, 1, 3)))
    with pytest.raises(UnconfirmedHit, match="weak-order"):
        axioms.check_weak_order(oracle, GRID)
    assert oracle.taken_back


def test_interned_lottery_keys_each_spelling_once(monkeypatch):
    lots, nums, den = axioms._grid(GRID)
    monkeypatch.setattr(axioms, "_INTERNED", 3)
    lottery = axioms._interned(SPACE, lots, nums, den)
    # A grid point spelled over den is the grid's own lot.
    assert all(lottery(x, den) is lot for x, lot in zip(nums, lots))
    # Any other spelling is built once and kept: a grid point over a
    # multiple of den, an off-grid point on den's lattice, one off it.
    spellings = [(tuple(6 * x for x in nums[5]), 6 * den),
                 ((1, 1, den - 2), den), ((1, 2, 2), 5)]
    built = [lottery(*x) for x in spellings]
    assert built[0] == lots[5] and built[0] is not lots[5]
    assert built[1].weights == (Fraction(1, den), Fraction(1, den),
                                Fraction(den - 2, den))
    assert built[2].weights == (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
    assert [lottery(*x) for x in spellings] == built
    assert all(lottery(*x) is lot for x, lot in zip(spellings, built))
    # Another spelling of the same weights is another object; it is the
    # fourth kept, so the least recently used, the first, is rebuilt.
    again = lottery((3, 6, 6), 15)
    assert again == built[2] and again is not built[2]
    assert lottery(*spellings[0]) is not built[0]
    assert lottery(*spellings[2]) is built[2]
    # Every spelling off the grid is validated.
    with pytest.raises(SumNotOne):
        lottery((1, 1, 1), 2)
