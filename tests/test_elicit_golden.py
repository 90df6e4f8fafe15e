"""Golden digests of the elicitation path's command line documents.

Seeded utilities on 8, 16 and 32 outcomes run through ``generate``,
``elicit``, ``certify`` on both certificate branches (replayed against
the expected-utility oracle, and against the represented oracle of the
elicited hyperplane when the scenario carries no utility),
``construct-ip`` and ``check --axiom ip --grid 2``.  Each document's
exit code and stdout are pinned by sha256, so any change to the exact
arithmetic behind them must leave every byte where it was.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from lotpref import cli
from lotpref.lotteries import Lottery, OutcomeSpace, degenerate
from lotpref.oracles import UtilityFunction
from lotpref.representation import generate_indifferent_points
from lotpref.scenario import lottery_to_json

SIZES = (8, 16, 32)

COMMANDS = {
    "generate": ["generate"],
    "elicit": ["elicit"],
    "certify-convex": ["certify", "--target", "{convex}"],
    "certify-reduction": ["certify", "--target", "{reduction}"],
    "certify-convex-represented": ["certify", "--scenario", "{bare}",
                                   "--target", "{convex}"],
    "certify-reduction-represented": ["certify", "--scenario", "{bare}",
                                      "--target", "{reduction}"],
    "construct-ip": ["construct-ip"],
    "check-ip": ["check", "--axiom", "ip", "--grid", "2"],
}

DIGESTS = {
    "n8/generate": "68fb539f8edca2ad97bc35df6303a82cc13dac356d89b6c95573126a8cee099e",
    "n8/elicit": "79e7a185af70473cfd80e2a2f462c3e5d41d99bdb78ea20fa877cb9b744a9e4b",
    "n8/certify-convex": "8d5e88d2bc1e9594410acbe06011efcb81820a9450c721b05d72533f4bb305e5",
    "n8/certify-reduction": "1cd18392b1dcb8bc8ccfd62f094d51666855c0dfe305b0a00f9e7f453b2c1891",
    "n8/certify-convex-represented": "8d5e88d2bc1e9594410acbe06011efcb81820a9450c721b05d72533f4bb305e5",
    "n8/certify-reduction-represented": "1cd18392b1dcb8bc8ccfd62f094d51666855c0dfe305b0a00f9e7f453b2c1891",
    "n8/construct-ip": "e233c8f943096937875fd2a0a261479bfdc2347f8d6063a39d354680ac39513f",
    "n8/check-ip": "21a75f304c9e5a41ec15983a305f5fe7cbb1dd27ab0fb0af7e929df39b3bf947",
    "n16/generate": "8f76a784c304499db9fe6599564980423d4c3cba1cbbcf1093294bd7f1ddb563",
    "n16/elicit": "1f3a306d04e57aefc6bbdef618a57f56be52fba39c9614e91dea953d23b68afe",
    "n16/certify-convex": "3572071edafc845a99311779fc3d4a0ad4ae1067f9f5811de47604007b4e88ed",
    "n16/certify-reduction": "fec82234d1ab7b0c0db0197677b5c7ccd15d0683d4810d641ef726c64de85b53",
    "n16/certify-convex-represented": "3572071edafc845a99311779fc3d4a0ad4ae1067f9f5811de47604007b4e88ed",
    "n16/certify-reduction-represented": "fec82234d1ab7b0c0db0197677b5c7ccd15d0683d4810d641ef726c64de85b53",
    "n16/construct-ip": "c90f70e9ea8b3cd420e68f13ef39935097f426fa01b8495238b6463baec7e99e",
    "n16/check-ip": "46605b76eb995bb11e84cb33d892852c4d3e703cd431a346606371cb354dfbf1",
    "n32/generate": "f114b40278835538318e9bf7ab55ddde45218fb4569874666f7b4f88db3cb672",
    "n32/elicit": "0c3fb64a3fb7b0671640f7c9af87535d8eb9b37b340962fccc55f47143590121",
    "n32/certify-convex": "2543b92e58da9d581cd4e6ddf07327bc4ad6b4d694cb66d6c22d5431a217c918",
    "n32/certify-reduction": "c1f19eda272510e6cc6b552bad29c61df195cc5f5e3a2e21d93aa6a69763a435",
    "n32/certify-convex-represented": "2543b92e58da9d581cd4e6ddf07327bc4ad6b4d694cb66d6c22d5431a217c918",
    "n32/certify-reduction-represented": "c1f19eda272510e6cc6b552bad29c61df195cc5f5e3a2e21d93aa6a69763a435",
    "n32/construct-ip": "b3ac36ee9eb9fd3c7efaf920808dc24d09357fd4471b9dbc7f3a32e06bd1938b",
    "n32/check-ip": "74e82ac5e041a668c8a2c5e10a5e1bdfb5fe43534666f93c3b1475d673919f6b",
}


def seeded_payoffs(size: int) -> list[int]:
    rng = random.Random(size)
    while True:
        payoffs = [rng.randint(-9, 9) for _ in range(size)]
        if len(set(payoffs)) > 1:
            return payoffs


def certificate_targets(space, points, rng):
    """A convex combination of the points with seeded positive weights,
    and an affine one with a negative coefficient: the uniform lottery
    points[0] pushed away from points[1], half way to the boundary."""
    weights = [rng.randint(1, 4) for _ in points]
    total = sum(weights)
    convex = Lottery(space, tuple(
        sum(Fraction(w, total) * p.weights[i] for w, p in zip(weights, points))
        for i in range(space.size)))
    base, other = points[0].weights, points[1].weights
    s = min([b / (o - b) for b, o in zip(base, other) if o > b] + [Fraction(1)]) / 2
    reduction = Lottery(space, tuple(
        b + s * (b - o) for b, o in zip(base, other)))
    return convex, reduction


def scenario_files(size: int, tmp_path) -> dict:
    """Paths of the full scenario and of one without a utility, plus the
    two certificate targets as command line lotteries."""
    space = OutcomeSpace.of_size(size)
    payoffs = seeded_payoffs(size)
    points, _ = generate_indifferent_points(UtilityFunction.of(space, payoffs))
    best = degenerate(space, payoffs.index(max(payoffs)))
    worst = degenerate(space, payoffs.index(min(payoffs)))
    convex, reduction = certificate_targets(space, points, random.Random(-size))
    doc = {
        "version": 1,
        "outcomes": size,
        "utility": [str(v) for v in payoffs],
        "indifferent": [lottery_to_json(p) for p in points],
        "strict": {"better": lottery_to_json(best),
                   "worse": lottery_to_json(worst)},
        "target": lottery_to_json(convex),
        "construct": {"p": lottery_to_json(best), "q": "uniform",
                      "r": lottery_to_json(worst)},
    }
    full, bare = tmp_path / f"n{size}.json", tmp_path / f"n{size}-bare.json"
    full.write_text(json.dumps(doc))
    del doc["utility"]
    bare.write_text(json.dumps(doc))
    return {"full": str(full), "bare": str(bare),
            "convex": ",".join(lottery_to_json(convex)),
            "reduction": ",".join(lottery_to_json(reduction))}


def document(size: int, command: str, tmp_path, capsys) -> str:
    """Exit code and stdout of one command on the size's scenario."""
    values = scenario_files(size, tmp_path)
    argv = [arg.format(**values) for arg in COMMANDS[command]]
    if "--scenario" not in argv:
        argv[1:1] = ["--scenario", values["full"]]
    code = cli.main(argv)
    return f"{code}\n{capsys.readouterr().out}"


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("command", tuple(COMMANDS))
def test_elicit_documents_match_golden_digests(size, command, tmp_path, capsys):
    text = document(size, command, tmp_path, capsys)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[f"n{size}/{command}"]
