"""A callback oracle is asked the same questions on interned lotteries.

An oracle the encoder refuses (here, subclasses of two built-in
oracles) reaches every scan through ``oracle.compare``.  Within one
check, ``axioms._encoded`` hands it the grid's own lotteries and builds
each other lottery once.  The questions, their order and their number
must not depend on that: the counts and the digests of the ordered
questions below were recorded on fresh, per-call lotteries, before
interning, with the same oracles, grid and checks.
"""

import hashlib

import pytest

from lotpref import axioms
from lotpref.grids import GridSpec
from lotpref.lotteries import OutcomeSpace
from lotpref.oracles import ExpectedUtilityOracle, MajorityOracle, UtilityFunction

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

# (oracle, check) -> (compare calls, violated, digest of the questions).
PINNED = {
    ("eu", "weak-order"): (484, False, "856385568b7ff406"),
    ("eu", "translation"): (1029, False, "edc59fa6854df96c"),
    ("eu", "line-order"): (4319, False, "a14fee19ee6b4e98"),
    ("eu", "grid-openness"): (5225, False, "7261a82468fcc4e9"),
    ("eu", "solvability"): (6994, False, "5ee96c119fc9cf24"),
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


def recording(base):
    class Recording(base):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = []

        def compare(self, p, q):
            self.calls.append((p, q))
            return super().compare(p, q)

    return Recording


ORACLES = {
    "eu": lambda: recording(ExpectedUtilityOracle)(UtilityFunction.of(SPACE, (0, 1, 3))),
    "majority": lambda: recording(MajorityOracle)(SPACE),
}


@pytest.mark.parametrize("label, check", sorted(PINNED))
def test_callback_questions_unchanged_by_interning(label, check, monkeypatch):
    oracle = ORACLES[label]()
    # The scan ends where the verdict starts: witness confirmation builds
    # its own lotteries with mix, outside the check's interning.
    scan_end = []
    verdict = axioms._verdict

    def marking_verdict(*args):
        scan_end.append(len(oracle.calls))
        return verdict(*args)

    monkeypatch.setattr(axioms, "_verdict", marking_verdict)
    if check == "mixture":
        # About 12,000 distinct off-grid lotteries at depth 24, more than
        # the default bound keeps; with room for all, none is rebuilt.
        monkeypatch.setattr(axioms, "_INTERNED", 1 << 14)
    result = CHECKS[check](oracle, GRID)

    # Each lottery object once: its weights' repr for the digest, and
    # the identity checks while the scan runs.
    texts = {}
    grid_lots = {lot.weights: lot for lot in axioms._grid(GRID)[0]}
    first = {}
    for n, (p, q) in enumerate(oracle.calls):
        for x in (p, q):
            if id(x) not in texts:
                texts[id(x)] = repr(x.weights)
                if n < scan_end[0]:
                    assert first.setdefault(x.weights, x) is x
                    assert grid_lots.get(x.weights, x) is x
    digest = hashlib.sha256()
    for p, q in oracle.calls:
        digest.update(f"({texts[id(p)]}, {texts[id(q)]})".encode())
    assert (len(oracle.calls), result.violated,
            digest.hexdigest()[:16]) == PINNED[label, check]


def test_interned_lottery_keys_equal_weights_once():
    lots, nums, den = axioms._grid(GRID)
    lottery = axioms._interned(SPACE, lots, nums, den)
    weights = {lot.weights: lot for lot in lots}
    # A grid point over den, over a multiple of den, and over a
    # denominator that den is a multiple of.
    assert lottery(nums[5], den) is lots[5]
    assert lottery(tuple(6 * x for x in nums[5]), 6 * den) is lots[5]
    third = lottery((1, 1, 1), 3)
    assert third is weights[third.weights]
    # Off-grid points on den's lattice and off it, each over two
    # denominators.
    fine = lottery((1, 1, den - 2), den)
    assert fine.weights not in weights
    assert lottery((2, 2, 2 * den - 4), 2 * den) is fine
    off = lottery((1, 2, 2), 5)
    assert off.weights not in weights
    assert lottery((3, 6, 6), 15) is off
    assert lottery((1, 2, 2), 5) is off
