import pickle
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lotpref.errors import (
    AlphaOutOfRange,
    LotprefError,
    EmptyInput,
    LengthMismatch,
    NegativeWeight,
    NotInSimplex,
    SpaceMismatch,
    SumNotOne,
)
from lotpref.geometry import common_denominator
from lotpref.geometry import Hyperplane
from lotpref.grids import GridSpec, enumerate_grid, fixed_denominator_lattice
from lotpref.lotteries import (
    EmbeddedPoint,
    Lottery,
    OutcomeSpace,
    as_fraction,
    degenerate,
    embed,
    make_lottery,
    mix,
    unembed,
    uniform,
    unit_weight,
)
from lotpref.oracles import (
    ExpectedUtilityOracle,
    HybridExampleOracle,
    LexicographicOracle,
    MajorityOracle,
    RepresentedOracle,
    UtilityFunction,
)
from lotpref.scenario import lottery_to_json

SPACE = OutcomeSpace.of_size(3)


@st.composite
def lotteries(draw, size=3):
    """Random exact lottery: integer weights over a common denominator."""
    den = draw(st.integers(1, 30))
    cuts = sorted(draw(
        st.lists(st.integers(0, den), min_size=size - 1, max_size=size - 1)))
    bounds = [0] + cuts + [den]
    weights = tuple(
        Fraction(bounds[i + 1] - bounds[i], den) for i in range(size))
    return Lottery(OutcomeSpace.of_size(size), weights)


@st.composite
def mixed_lotteries(draw, size=3):
    """Random exact lottery whose weights keep their own denominators:
    each weight is a drawn fraction of what the earlier ones left."""
    rest, weights = Fraction(1), []
    for _ in range(size - 1):
        den = draw(st.integers(1, 12))
        weights.append(rest * Fraction(draw(st.integers(0, den)), den))
        rest -= weights[-1]
    return Lottery(OutcomeSpace.of_size(size), (*weights, rest))


def test_outcome_space_basics():
    assert SPACE.size == 3
    assert SPACE.n == 2
    named = OutcomeSpace(("win", "draw", "lose"))
    assert named.size == 3
    with pytest.raises(EmptyInput):
        OutcomeSpace(())


@pytest.mark.parametrize("build,message", [
    (lambda: OutcomeSpace(("a", "a", "b")),
     "outcome labels must be distinct, got 'a' twice"),
    (lambda: OutcomeSpace((1, 2)), "outcome labels must be strings, got 1"),
    (lambda: OutcomeSpace("ab"), "outcome labels must be a tuple, got 'ab'"),
    (lambda: OutcomeSpace.of_size(True), "outcome count must be an int, got True"),
    (lambda: OutcomeSpace.of_size(2.0), "outcome count must be an int, got 2.0"),
    (lambda: OutcomeSpace.of_size("3"), "outcome count must be an int, got '3'"),
], ids=["repeated", "int-labels", "str-labels", "bool", "float", "str"])
def test_outcome_space_refuses_what_is_no_label_set(build, message):
    # Each was once accepted (of_size(True) as one outcome) or escaped
    # as a TypeError (of_size(2.0), of_size("3")).
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_as_fraction_accepts_exact_forms():
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 4)) == Fraction(1, 4)


def test_as_fraction_rejects_floats():
    with pytest.raises(ValueError):
        as_fraction(0.5)


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_lottery_rejects_inexact_weights(bad):
    # Without the check a float weight summed to 1 and every expected
    # utility over the lottery came out a float.
    with pytest.raises(ValueError, match="not an exact rational"):
        Lottery(OutcomeSpace.of_size(2), (bad, bad))
    with pytest.raises(ValueError, match=repr(bad)):
        Lottery(SPACE, (Fraction(1, 2), bad, Fraction(0)))


def test_bools_are_not_exact_rationals():
    # Each of these once built, as the lottery (1, 0) whose repr read
    # weights=(True, False); mix ran True as the weight 1.
    two = OutcomeSpace.of_size(2)
    with pytest.raises(ValueError, match="not an exact rational: True"):
        as_fraction(True)
    with pytest.raises(ValueError, match="not an exact rational: True"):
        make_lottery(two, (True, False))
    with pytest.raises(ValueError, match="not an exact rational: True"):
        mix(degenerate(two, 0), degenerate(two, 1), True)


def test_lottery_validation_order():
    with pytest.raises(LengthMismatch):
        Lottery(SPACE, (Fraction(1), Fraction(0)))
    with pytest.raises(NegativeWeight):
        Lottery(SPACE, (Fraction(3, 2), Fraction(-1, 2), Fraction(0)))
    with pytest.raises(SumNotOne):
        Lottery(SPACE, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))


def test_make_lottery_parses_strings():
    lot = make_lottery(SPACE, ["1/2", "1/4", "1/4"])
    assert lot.weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert lot[0] == Fraction(1, 2)


def test_degenerate_and_uniform():
    assert degenerate(SPACE, 1).weights == (0, 1, 0)
    assert uniform(SPACE).weights == (Fraction(1, 3),) * 3
    with pytest.raises(LengthMismatch):
        degenerate(SPACE, 3)


def test_mix_fixture_value():
    p = make_lottery(SPACE, ["1/3", "1/3", "1/3"])
    q = make_lottery(SPACE, ["5/12", "1/6", "5/12"])
    m = mix(p, q, Fraction(2, 3))
    assert m.weights == (Fraction(13, 36), Fraction(5, 18), Fraction(13, 36))


def test_mix_endpoints():
    p = degenerate(SPACE, 0)
    q = degenerate(SPACE, 2)
    assert mix(p, q, Fraction(1)) == p
    assert mix(p, q, Fraction(0)) == q


def test_mix_rejects_bad_alpha_and_space():
    p, q = degenerate(SPACE, 0), degenerate(SPACE, 1)
    with pytest.raises(AlphaOutOfRange):
        mix(p, q, Fraction(-1, 10))
    with pytest.raises(AlphaOutOfRange):
        mix(p, q, Fraction(11, 10))
    other = degenerate(OutcomeSpace.of_size(4), 0)
    with pytest.raises(SpaceMismatch):
        mix(p, other, Fraction(1, 2))


def test_embed_drops_coordinate_zero():
    lot = make_lottery(SPACE, ["1/6", "1/3", "1/2"])
    assert embed(lot).coords == (Fraction(1, 3), Fraction(1, 2))


def test_unembed_round_trip_and_rejection():
    lot = make_lottery(SPACE, ["1/6", "1/3", "1/2"])
    assert unembed(embed(lot)) == lot
    with pytest.raises(NotInSimplex):
        unembed(EmbeddedPoint(SPACE, (Fraction(2, 3), Fraction(2, 3))))
    with pytest.raises(NotInSimplex):
        unembed(EmbeddedPoint(SPACE, (Fraction(-1, 3), Fraction(2, 3))))


@given(lotteries(), lotteries(), st.integers(0, 16))
def test_mix_stays_in_simplex(p, q, num):
    alpha = Fraction(num, 16)
    m = mix(p, q, alpha)
    assert sum(m.weights) == 1
    assert all(w >= 0 for w in m.weights)
    assert m.space == p.space


@given(lotteries(size=4))
def test_embed_unembed_round_trip(lot):
    assert unembed(embed(lot)) == lot


@given(mixed_lotteries(size=4))
def test_integer_form_is_kept_out_of_sight(lot):
    nums, den = common_denominator(lot.weights)
    assert lot.integer_form == (tuple(nums), den)
    # Not a field: equality, hash, repr and JSON read the weights only.
    assert [f.name for f in fields(Lottery)] == ["space", "weights"]
    twin = Lottery(lot.space, tuple(Fraction(w.numerator, w.denominator)
                                    for w in lot.weights))
    assert twin == lot and hash(twin) == hash(lot)
    assert repr(lot) == f"Lottery(space={lot.space!r}, weights={lot.weights!r})"
    assert lottery_to_json(lot) == [str(w) for w in lot.weights]
    with pytest.raises(FrozenInstanceError):
        lot.integer_form = ((1, 0, 0, 0), 1)


@given(mixed_lotteries(), mixed_lotteries(), st.data())
def test_mix_matches_fraction_reference(p, q, data):
    b = data.draw(st.integers(1, 12))
    alpha = Fraction(data.draw(st.integers(0, b)), b)
    m = mix(p, q, alpha)
    # mix builds its lottery from ints; the Fraction formula through the
    # public constructor must give the same record, form, hash and repr.
    expected = Lottery(p.space, tuple(alpha * x + (1 - alpha) * y
                                      for x, y in zip(p.weights, q.weights)))
    assert m.weights == expected.weights
    assert m.integer_form == expected.integer_form
    assert hash(m) == hash(expected) and repr(m) == repr(expected)


def validating_mix(p, q, alpha):
    """mix built through the validating ``Lottery.from_integers``."""
    if p.space is not q.space and p.space != q.space:
        raise SpaceMismatch("cannot mix lotteries over different spaces")
    a = unit_weight(alpha)
    (pn, pd), (qn, qd) = p.integer_form, q.integer_form
    kp, kq = a.numerator * qd, (a.denominator - a.numerator) * pd
    return Lottery.from_integers(
        p.space, [kp * x + kq * y for x, y in zip(pn, qn)], a.denominator * pd * qd)


def integer_form_or_error(build, *args):
    try:
        return build(*args).integer_form
    except (ValueError, LotprefError) as error:
        return type(error), str(error)


@given(mixed_lotteries(), st.one_of(mixed_lotteries(), mixed_lotteries(size=4)),
       st.one_of(st.fractions(-1, 2, max_denominator=12), st.integers(-1, 2),
                 st.floats(0, 1), st.booleans(), st.sampled_from(["1/3", "4/3", "x"])))
def test_mix_gives_the_validating_constructors_form_and_errors(p, q, alpha):
    assert (integer_form_or_error(mix, p, q, alpha)
            == integer_form_or_error(validating_mix, p, q, alpha))


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_embedded_point_rejects_inexact_coords(bad):
    # A float point used to build, and unembed then named the computed
    # weight 1 - 0.75 instead of the coordinate.
    for coords in ((bad, Fraction(1, 4)), (Fraction(1, 4), bad)):
        with pytest.raises(ValueError, match=f"not an exact rational: {bad!r}"):
            EmbeddedPoint(SPACE, coords)
    assert EmbeddedPoint(SPACE, (1, Fraction(0))).coords == (1, 0)


@given(mixed_lotteries(size=4), st.integers(1, 6))
def test_from_integers_matches_the_public_constructor(lot, scale):
    # Any common denominator gives the lottery Lottery(space, weights)
    # gives, kept over the least common one.
    nums, den = lot.integer_form
    built = Lottery.from_integers(lot.space, [a * scale for a in nums], den * scale)
    assert built == lot and hash(built) == hash(lot) and repr(built) == repr(lot)
    assert built.weights == lot.weights
    assert built.integer_form == lot.integer_form == (nums, den)


@pytest.mark.parametrize("nums,den,error", [
    ((1, 0), 1, LengthMismatch),
    ((1, 0, 0, 0), 1, LengthMismatch),
    ((Fraction(1), 0, 0), 1, ValueError),
    ((0.5, 0.5, 0), 1, ValueError),
    (("1", 0, 0), 1, ValueError),
    ((True, False, False), 1, ValueError),
    ((1, 0, 0), True, ValueError),
    ((2, 0, 0), 2.0, ValueError),
    ((0, 0, 0), 0, ValueError),
    ((1, -2, 0), -1, ValueError),
    ((3, -1, 0), 2, NegativeWeight),
    ((1, 1, 1), 2, SumNotOne),
    ((0, 0, 0), 1, SumNotOne),
])
def test_from_integers_refusals(nums, den, error):
    with pytest.raises(error):
        Lottery.from_integers(SPACE, nums, den)


def fraction_grid(space, bound):
    """enumerate_grid written over Fractions: each lottery of a grid
    denominator k <= bound, in lexicographic numerator order, at the
    first k that expresses it."""
    out, seen = [], set()
    for k in range(1, bound + 1):
        for nums in product(range(k + 1), repeat=space.size):
            weights = tuple(Fraction(a, k) for a in nums)
            if sum(nums) == k and weights not in seen:
                seen.add(weights)
                out.append(Lottery(space, weights))
    return out


@pytest.mark.parametrize("size,bound", [(3, d) for d in range(2, 9)]
                         + [(4, d) for d in range(2, 6)])
def test_grids_match_fraction_built_enumeration(size, bound):
    space = OutcomeSpace.of_size(size)
    for built, expected in (
            (enumerate_grid(GridSpec(space, bound)), fraction_grid(space, bound)),
            (fixed_denominator_lattice(space, bound),
             [Lottery(space, tuple(Fraction(a, bound) for a in nums))
              for nums in product(range(bound + 1), repeat=size)
              if sum(nums) == bound])):
        assert len(built) == len(expected)
        for lot, twin in zip(built, expected):
            assert lot == twin and lot.integer_form == twin.integer_form


def fraction_formula(lot):
    """Lottery(space, weights) with the weights built as Fractions from
    the integer form, the way the lazy weights are."""
    nums, den = lot.integer_form
    return Lottery(lot.space, tuple(Fraction(a, den) for a in nums))


def built_from_integers(draw_lots, data):
    """Lotteries from each integer-form route: from_integers, mix and a
    grid enumeration."""
    p, q = draw_lots
    nums, den = p.integer_form
    b = data.draw(st.integers(1, 12))
    alpha = Fraction(data.draw(st.integers(0, b)), b)
    grid = enumerate_grid(GridSpec(p.space, data.draw(st.integers(1, 5))))
    return [Lottery.from_integers(p.space, nums, den), mix(p, q, alpha),
            grid[data.draw(st.integers(0, len(grid) - 1))]]


@given(mixed_lotteries(), mixed_lotteries(), st.data())
def test_weights_are_built_on_first_read(p, q, data):
    for lot in built_from_integers((p, q), data):
        assert "weights" not in vars(lot)
        twin = fraction_formula(lot)
        weights = lot.weights
        assert vars(lot)["weights"] is weights is lot.weights
        assert weights == twin.weights
        assert lot == twin and hash(lot) == hash(twin) and repr(lot) == repr(twin)
        assert lot.integer_form == twin.integer_form
        with pytest.raises(FrozenInstanceError):
            lot.weights = twin.weights
        with pytest.raises(AttributeError, match="no attribute 'weight'"):
            lot.weight


@given(mixed_lotteries(), mixed_lotteries(), st.data())
def test_unread_weights_survive_pickling_and_replace(p, q, data):
    for lot in built_from_integers((p, q), data):
        twin = fraction_formula(lot)
        back = pickle.loads(pickle.dumps(lot))
        assert "weights" not in vars(lot)
        assert back == twin and hash(back) == hash(twin) and repr(back) == repr(twin)
        assert back.integer_form == twin.integer_form
        again = replace(lot)
        assert again == twin and again.integer_form == twin.integer_form
        assert replace(lot, weights=q.weights) == q


def test_mixing_and_comparing_builds_no_weights(monkeypatch):
    # The built-in oracles compare integer forms and mix combines them,
    # so no Fraction weight is built: count every build through the
    # lazy builder, and check that none was set eagerly either.
    built = []
    lazy = Lottery.__getattr__

    def counting(self, name):
        built.append(name)
        return lazy(self, name)

    monkeypatch.setattr(Lottery, "__getattr__", counting)
    space = OutcomeSpace.of_size(3)
    oracles = [
        ExpectedUtilityOracle(UtilityFunction.of(space, (0, 1, 3))),
        RepresentedOracle(space, Hyperplane((1, 2), (0, 0)), -1),
        LexicographicOracle(space, (2, 0, 1)),
        HybridExampleOracle(space),
        MajorityOracle(space),
    ]
    lots = enumerate_grid(GridSpec(space, 3))
    alphas = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    mixes = [mix(p, q, alpha) for p in lots for q in lots for alpha in alphas]
    for oracle in oracles:
        for p in lots:
            for m in mixes[::7]:
                oracle.compare(p, m)
                oracle.compare(m, p)
        if oracle.has_solve:
            top, mid, bottom = sorted(
                lots[:3], reverse=True,
                key=cmp_to_key(lambda a, b: oracle.compare(a, b).sign))
            oracle.solve(top, mid, bottom)
    assert built == []
    assert not any("weights" in vars(lot) for lot in (*lots, *mixes))


@pytest.mark.parametrize("index", [True, 1.0])
def test_degenerate_refuses_an_index_that_is_not_an_int(index):
    # Both once returned the lottery on outcome 1.
    with pytest.raises(ValueError, match="index"):
        degenerate(SPACE, index)
