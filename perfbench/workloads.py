"""Seeded workloads for the lotpref benchmark.

A workload is a fixed list of jobs built from a seed.  A job is one
call as a user makes it: one ``check_*`` call, one generate -> elicit ->
classify -> certify -> replay chain, or one in-process
``lotpref.cli.main`` run.  ``Job.run`` is the timed call.
``Job.verify`` checks the result afterwards, untimed, and returns the
job's canonical output text (the determinism check compares it across
passes) plus a list of problems found.

Every job reaches lotpref through module attributes (``lp.check_ip``,
``cli.main``) at call time, so the tracer in ``layers.py`` can wrap
them without touching the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("exhaust-eu", "falsify-early", "callback", "elicit-cli")

# Grid sizes per workload.  "full" is what the benchmark measures;
# "tiny" is the smoke-test size used by selftest.py.
SIZES = {
    "full": {
        # (outcomes, d, {axiom: d override}, axioms or None for all)
        "exhaust-eu": [
            (3, 6, {"independence": 5, "mixture": 3}, None),
            (4, 4, {}, ("weak-order", "translation", "convexity",
                        "line-order", "solvability")),
            (5, 3, {}, ("weak-order", "translation", "convexity",
                        "line-order", "solvability")),
        ],
        "falsify-early": [(3, 12), (4, 8), (5, 6)],
        "callback": {"outcomes": 3, "d": 4, "weak_order_d": 5},
        # (outcomes, seeded utilities); three utilities on the sizes the
        # CLI runs on keep the median job from hinging on one utility.
        "elicit-cli": {"sizes": ((8, 3), (16, 3), (24, 1), (32, 1)),
                       "cli_sizes": (8, 16), "queries": 8},
    },
    "tiny": {
        "exhaust-eu": [
            (3, 3, {"independence": 2, "mixture": 2, "ip": 6}, None),
            (4, 2, {}, ("weak-order", "translation", "convexity",
                        "line-order", "solvability")),
            (5, 2, {}, ("weak-order", "translation", "convexity",
                        "line-order", "solvability")),
        ],
        "falsify-early": [(3, 4), (4, 3), (5, 3)],
        "callback": {"outcomes": 3, "d": 3, "weak_order_d": 2},
        "elicit-cli": {"sizes": ((3, 2), (5, 1)), "cli_sizes": (3,),
                       "queries": 3},
    },
}

ALL_AXIOMS = (
    "weak-order", "independence", "betweenness", "ip",
    "grid-openness", "mixture", "archimedean", "solvability",
    "convexity", "translation", "line-order",
)

# The (oracle, axiom) pairs that theory says violate.
FALSIFY_PAIRS = {
    "hybrid": ("independence", "grid-openness", "mixture", "archimedean",
               "solvability", "translation"),
    "lex": ("ip", "grid-openness", "mixture", "archimedean", "solvability"),
    "majority": ("weak-order", "solvability", "convexity"),
}

CALLBACK_AXIOMS = ("weak-order", "translation", "line-order",
                   "grid-openness", "solvability")

# Grid workloads draw payoffs as a seeded positive affine image
# a*shape[perm[i]] + b of a fixed shape, with b < 0 so some payoffs are
# negative.  Such a map relabels outcomes and rescales levels, which the
# grid (symmetric in the outcomes) cannot tell apart: every seed asks
# for the same number of comparisons, so run-to-run spread is not
# input-driven.  Shapes are chosen so that ip is findable at d=6.
PAYOFF_SHAPES = {3: (0, 1, 3), 4: (0, 1, 3, 4), 5: (0, 1, 3, 4, 6)}
PAYOFF_SCALES = (1, 3)
PAYOFF_SHIFTS = (-6, -1)
ELICIT_PAYOFF_RANGE = (-9, 9)
QUERY_DENOMINATOR = 12

_CHECKERS = {
    "weak-order": "check_weak_order",
    "independence": "check_independence",
    "ip": "check_ip",
    "convexity": "check_convexity",
    "translation": "check_translation",
    "line-order": "check_line_order",
}


@dataclass
class Job:
    name: str
    outcomes: int
    d: int | None
    run: Callable[[], object]
    verify: Callable[[object], tuple[str, list[str]]]
    axiom: str | None = None


class Env:
    """The imported package plus what verification needs."""

    def __init__(self, src: Path, digests: dict, work: Path):
        self.lp = importlib.import_module("lotpref")
        self.cli = importlib.import_module("lotpref.cli")
        self.scenario = importlib.import_module("lotpref.scenario")
        self.kernels = importlib.import_module("lotpref._kernels")
        origin = Path(self.lp.__file__).resolve()
        if src.resolve() not in origin.parents:
            raise ImportError(f"lotpref imported from {origin}, not from {src}")
        self.digests = digests
        self.work = work

    def dump(self, doc) -> str:
        return self.scenario.dump_document(doc)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def shaped_payoffs(rng: random.Random, size: int) -> tuple[int, ...]:
    shape = PAYOFF_SHAPES[size]
    a, b = rng.randint(*PAYOFF_SCALES), rng.randint(*PAYOFF_SHIFTS)
    perm = rng.sample(range(size), size)
    return tuple(a * shape[perm[i]] + b for i in range(size))


def seeded_payoffs(rng: random.Random, size: int, bounds) -> tuple[int, ...]:
    while True:
        values = tuple(rng.randint(*bounds) for _ in range(size))
        if len(set(values)) > 1:
            return values


def canonical(values) -> tuple[int, ...]:
    """The gauge elicit pins: value 0 at outcome 0, coprime integers,
    same direction."""
    shifted = [Fraction(v) - Fraction(values[0]) for v in values]
    scale = 1
    for v in shifted:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in shifted]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def call_check(lp, axiom: str, oracle, grid):
    if axiom in lp.CONTINUITY_KINDS:
        return lp.check_continuity(oracle, axiom, grid)
    if axiom == "betweenness":
        return lp.check_independence(oracle, grid, "betweenness")
    return getattr(lp, _CHECKERS[axiom])(oracle, grid)


# ---- check jobs -------------------------------------------------------------


def check_job(env: Env, key: str, axiom: str, oracle, grid,
              expect_violated: bool | None) -> Job:
    """One check_* call, verified against theory, its own witness
    replay and the recorded digest of its verdict JSON."""
    lp = env.lp

    def run():
        return call_check(lp, axiom, oracle, grid)

    def verify(verdict):
        problems = []
        if expect_violated is not None and verdict.violated != expect_violated:
            problems.append(f"violated={verdict.violated}, theory says "
                            f"{expect_violated}")
        if verdict.witness is not None and not verdict.witness.replay(oracle):
            problems.append("witness does not replay against the oracle")
        if verdict.found is not None:
            pts = verdict.found.points
            indiff = lp.ComparisonResult.INDIFFERENT
            if not all(oracle.compare(a, b) is indiff
                       for a, b in itertools.combinations(pts, 2)):
                problems.append("found ip points are not pairwise indifferent")
        text = env.dump(env.scenario.verdict_to_json(verdict))
        recorded = env.digests.get(key)
        if recorded is None:
            problems.append("no recorded digest for this input")
        elif recorded != digest(text):
            problems.append(f"verdict digest {digest(text)} != recorded "
                            f"{recorded}")
        return text, problems

    return Job(key, grid.space.size, grid.denominator_bound, run, verify,
               axiom=axiom)


def represented_oracle(lp, space, payoffs):
    """The RepresentedOracle ranking like expected utility under payoffs."""
    normal = tuple(Fraction(v - payoffs[0]) for v in payoffs[1:])
    plane = lp.Hyperplane(normal=normal, base=(Fraction(0),) * len(normal))
    return lp.RepresentedOracle(space, plane, 1)


def exhaust_eu_jobs(env: Env, size: str, payoffs: dict) -> list[Job]:
    """payoffs maps outcome count -> integer payoffs.  Three outcomes use
    ExpectedUtilityOracle, four and five use RepresentedOracle."""
    lp = env.lp
    jobs = []
    for n, d, overrides, axioms in SIZES[size]["exhaust-eu"]:
        space = lp.OutcomeSpace.of_size(n)
        if n == 3:
            oracle, label = lp.ExpectedUtilityOracle(
                lp.UtilityFunction.of(space, payoffs[n])), "eu"
        else:
            oracle, label = represented_oracle(lp, space, payoffs[n]), \
                "represented"
        for axiom in axioms or ALL_AXIOMS:
            dd = overrides.get(axiom, d)
            # Only ip's verdict (the found points) depends on the payoffs.
            who = (f"{label}[{_csv(canonical(payoffs[n]))}]"
                   if axiom == "ip" else label)
            jobs.append(check_job(env, f"{who}/{axiom}/n{n}d{dd}", axiom,
                                  oracle, lp.GridSpec(space, dd), False))
    return jobs


def falsify_early_jobs(env: Env, size: str, priorities: dict) -> list[Job]:
    """priorities maps outcome count -> lexicographic priority.

    The seeded workload keeps the default priority and lets the seed
    order the jobs instead: how deep a lexicographic scan runs before
    its first hit depends on the priority, and across priorities that
    swings the median job by about 20% and the pass by 15%, which would
    drown the bounds in input-driven spread."""
    lp = env.lp
    jobs = []
    for n, d in SIZES[size]["falsify-early"]:
        space = lp.OutcomeSpace.of_size(n)
        grid = lp.GridSpec(space, d)
        oracles = {
            "hybrid": ("hybrid", lp.HybridExampleOracle(space)),
            "lex": (f"lex[{_csv(priorities[n])}]",
                    lp.LexicographicOracle(space, priorities[n])),
            "majority": ("majority", lp.MajorityOracle(space)),
        }
        for kind, axioms in FALSIFY_PAIRS.items():
            label, oracle = oracles[kind]
            for axiom in axioms:
                jobs.append(check_job(env, f"{label}/{axiom}/n{n}d{d}", axiom,
                                      oracle, grid, True))
    return jobs


def callback_oracle_classes(lp):
    """Subclasses the encoder refuses (exact-type check), so every
    comparison goes through oracle.compare on Fraction lotteries."""

    class CallbackEU(lp.ExpectedUtilityOracle):
        pass

    class CallbackMajority(lp.MajorityOracle):
        pass

    return CallbackEU, CallbackMajority


def callback_expectation(label: str, axiom: str) -> bool | None:
    """Expected utility never violates; majority is intransitive and has
    no exact solutions.  Theory is silent on the rest (None)."""
    if label == "eu-subclass":
        return False
    return True if axiom in ("weak-order", "solvability") else None


def callback_jobs(env: Env, size: str, payoffs: tuple) -> list[Job]:
    lp = env.lp
    conf = SIZES[size]["callback"]
    n, d = conf["outcomes"], conf["d"]
    space = lp.OutcomeSpace.of_size(n)
    eu_cls, majority_cls = callback_oracle_classes(lp)
    eu = eu_cls(lp.UtilityFunction.of(space, payoffs))
    majority = majority_cls(space)
    jobs = []
    for label, oracle in (("eu-subclass", eu), ("majority-subclass", majority)):
        for axiom in CALLBACK_AXIOMS:
            jobs.append(check_job(env, f"{label}/{axiom}/n{n}d{d}", axiom,
                                  oracle, lp.GridSpec(space, d),
                                  callback_expectation(label, axiom)))
    dw = conf["weak_order_d"]
    jobs.append(check_job(env, f"eu-subclass/weak-order/n{n}d{dw}",
                          "weak-order", eu, lp.GridSpec(space, dw), False))
    return jobs


# ---- elicitation and CLI jobs ----------------------------------------------


@dataclass
class ElicitCase:
    """Seeded inputs for one utility of the elicit-cli workload."""

    label: str              # "n<outcomes>#<index>"
    size: int
    payoffs: tuple
    utility: object
    strict: tuple
    reference: object
    queries: tuple
    targets: tuple          # (convex target, reduction target)
    points: tuple           # generate_indifferent_points, for the scenario
    scenario_path: Path


def seeded_query(lp, space, rng: random.Random):
    counts = [0] * space.size
    for _ in range(QUERY_DENOMINATOR):
        counts[rng.randrange(space.size)] += 1
    return lp.Lottery(space, tuple(Fraction(c, QUERY_DENOMINATOR)
                                   for c in counts))


def certificate_targets(lp, space, points, rng: random.Random):
    """A convex combination of the points (seeded positive weights) and
    an affine one with a negative coefficient that stays in the simplex.

    points[0] is the uniform lottery, so every weight of it is positive
    and the reduction target uniform + s*(uniform - points[1]) exists."""
    weights = [rng.randint(1, 4) for _ in points]
    total = sum(weights)
    convex = lp.Lottery(space, tuple(
        sum(Fraction(w, total) * p.weights[i] for w, p in zip(weights, points))
        for i in range(space.size)))
    base, other = points[0].weights, points[1].weights
    room = [b / (o - b) for b, o in zip(base, other) if o > b]
    s = min(room + [Fraction(1)]) / 2
    reduction = lp.Lottery(space, tuple(
        b + s * (b - o) for b, o in zip(base, other)))
    return convex, reduction


def elicit_cases(env: Env, size: str, rng: random.Random) -> list[ElicitCase]:
    lp = env.lp
    conf = SIZES[size]["elicit-cli"]
    cases = []
    for n, k in ((n, k) for n, count in conf["sizes"] for k in range(count)):
        space = lp.OutcomeSpace.of_size(n)
        payoffs = seeded_payoffs(rng, n, ELICIT_PAYOFF_RANGE)
        utility = lp.UtilityFunction.of(space, payoffs)
        best = max(range(n), key=lambda i: payoffs[i])
        worst = min(range(n), key=lambda i: payoffs[i])
        strict = (lp.degenerate(space, best), lp.degenerate(space, worst))
        queries = tuple(seeded_query(lp, space, rng)
                        for _ in range(conf["queries"]))
        points, _ = lp.generate_indifferent_points(utility)
        targets = certificate_targets(lp, space, points, rng)
        label = f"n{n}#{k}"
        case = ElicitCase(label, n, payoffs, utility, strict, lp.uniform(space),
                          queries, targets, points,
                          env.work / f"scenario-{label}.json")
        if n in conf["cli_sizes"]:
            write_scenario(env, case)
        cases.append(case)
    return cases


def write_scenario(env: Env, case: ElicitCase):
    lot = env.scenario.lottery_to_json
    doc = {
        "version": env.scenario.SCHEMA_VERSION,
        "outcomes": case.size,
        "utility": [str(v) for v in case.payoffs],
        "indifferent": [lot(p) for p in case.points],
        "strict": {"better": lot(case.strict[0]),
                   "worse": lot(case.strict[1])},
        "reference": "uniform",
        "queries": [lot(q) for q in case.queries],
        "target": lot(case.targets[0]),
        "construct": {"p": lot(case.strict[0]), "q": "uniform",
                      "r": lot(case.strict[1])},
        "check": {"axiom": "ip", "grid": 2},
    }
    case.scenario_path.write_text(env.dump(doc), encoding="utf-8")


def chain_job(env: Env, case: ElicitCase) -> Job:
    lp = env.lp

    def run():
        points, construction = lp.generate_indifferent_points(case.utility)
        rep = lp.elicit(lp.ElicitationInput(points, case.strict))
        ranks = tuple(lp.classify(rep, case.reference, q)
                      for q in case.queries)
        oracle = lp.ExpectedUtilityOracle(case.utility)
        certs = tuple(lp.indifference_certificate(t, points)
                      for t in case.targets)
        replays = tuple(lp.replay_certificate(c, oracle) for c in certs)
        return points, construction, rep, ranks, certs, replays

    def verify(result):
        points, construction, rep, ranks, certs, replays = result
        sc = env.scenario
        problems = []
        if rep.utility.values != tuple(Fraction(v) for v in canonical(case.payoffs)):
            problems.append("elicited utility is not the canonical form of "
                            "the seeded one")
        if not rep.oriented:
            problems.append("representation not oriented despite a strict pair")
        ref_level = lp.expected_utility(case.utility, case.reference)
        for q, got in zip(case.queries, ranks):
            diff = lp.expected_utility(case.utility, q) - ref_level
            if got is not lp.ComparisonResult.from_sign((diff > 0) - (diff < 0)):
                problems.append("classify disagrees with expected_utility")
        if tuple(c.branch for c in certs) != ("convex", "reduction"):
            problems.append(f"certificate branches {[c.branch for c in certs]}")
        for replay in replays:
            if not replay.ok:
                problems.append(f"replay failed: {replay.failures()}")
        text = env.dump({
            "points": [sc.lottery_to_json(p) for p in points],
            "construction": sc.construction_to_json(construction),
            "representation": sc.representation_to_json(rep),
            "ranks": [r.value for r in ranks],
            "certificates": [sc.certificate_to_json(c) for c in certs],
            "replays": [sc.replay_to_json(r) for r in replays],
        })
        return text, problems

    return Job(f"chain/{case.label}", case.size, None, run, verify)


CLI_COMMANDS = ("elicit", "generate", "classify", "certify", "construct-ip",
                "check")


def expected_cli(env: Env, case: ElicitCase, command: str):
    """(exit code, JSON document) the API gives for a CLI subcommand."""
    lp, sc = env.lp, env.scenario
    version = sc.SCHEMA_VERSION
    oracle = lp.ExpectedUtilityOracle(case.utility)
    if command in ("elicit", "classify"):
        rep = lp.elicit(lp.ElicitationInput(case.points, case.strict))
        if command == "elicit":
            return 0, {"version": version,
                       "representation": sc.representation_to_json(rep)}
        return 0, {
            "version": version,
            "reference": sc.lottery_to_json(case.reference),
            "results": [{"query": sc.lottery_to_json(q),
                         "result": lp.classify(rep, case.reference, q).value}
                        for q in case.queries],
        }
    if command == "generate":
        points, construction = lp.generate_indifferent_points(case.utility)
        return 0, {"version": version,
                   "points": [sc.lottery_to_json(p) for p in points],
                   "construction": sc.construction_to_json(construction)}
    if command == "certify":
        cert = lp.indifference_certificate(case.targets[0], case.points)
        replay = lp.replay_certificate(cert, oracle)
        return (0 if replay.ok else 2), {
            "version": version,
            "certificate": sc.certificate_to_json(cert),
            "replay": sc.replay_to_json(replay)}
    if command == "construct-ip":
        points = lp.construct_ip_via_solvability(
            oracle, case.strict[0], case.reference, case.strict[1])
        return 0, {"version": version,
                   "oracle": sc.oracle_to_json(oracle),
                   "points": [sc.lottery_to_json(p) for p in points]}
    verdict = lp.check_ip(oracle, lp.GridSpec(case.utility.space, 2))
    return (1 if verdict.violated else 0), {
        "version": version,
        "oracle": sc.oracle_to_json(oracle),
        "verdict": sc.verdict_to_json(verdict)}


def cli_job(env: Env, case: ElicitCase, command: str) -> Job:
    argv = [command, "--scenario", str(case.scenario_path)]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = env.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(result):
        code, stdout, stderr = result
        want_code, want_doc = expected_cli(env, case, command)
        problems = []
        if code != want_code:
            problems.append(f"exit code {code}, API says {want_code}; "
                            f"stderr: {stderr.strip()}")
        start = stdout.find("\n{")
        try:
            doc = json.loads(stdout[start + 1:]) if start >= 0 else None
        except json.JSONDecodeError:
            doc = None
        if doc != want_doc:
            problems.append("stdout JSON differs from the API result")
        return stdout, problems

    return Job(f"cli-{command}/{case.label}", case.size,
               2 if command == "check" else None, run, verify)


def elicit_cli_jobs(env: Env, size: str, cases: list[ElicitCase]) -> list[Job]:
    cli_sizes = SIZES[size]["elicit-cli"]["cli_sizes"]
    jobs = [chain_job(env, case) for case in cases]
    for case in cases:
        if case.size in cli_sizes:
            jobs.extend(cli_job(env, case, cmd) for cmd in CLI_COMMANDS)
    return jobs


# ---- seeded entry point -----------------------------------------------------


def seeded_inputs(workload: str, seed: int, size: str) -> dict:
    """Everything the seed decides, as plain data (for the run record)."""
    rng = rng_for(workload, seed)
    if workload == "exhaust-eu":
        return {n: shaped_payoffs(rng, n)
                for n, _, _, _ in SIZES[size]["exhaust-eu"]}
    if workload == "falsify-early":
        return {"priorities": {n: tuple(range(n))
                               for n, _ in SIZES[size]["falsify-early"]}}
    if workload == "callback":
        return {"payoffs": shaped_payoffs(
            rng, SIZES[size]["callback"]["outcomes"])}
    raise ValueError(f"no plain inputs for {workload!r}")


def build(env: Env, workload: str, seed: int, size: str):
    """(jobs, inputs) for one workload; inputs is what the seed chose."""
    if workload == "elicit-cli":
        cases = elicit_cases(env, size, rng_for(workload, seed))
        inputs = {c.label: c.payoffs for c in cases}
        return elicit_cli_jobs(env, size, cases), inputs
    inputs = seeded_inputs(workload, seed, size)
    if workload == "exhaust-eu":
        return exhaust_eu_jobs(env, size, inputs), inputs
    if workload == "falsify-early":
        jobs = falsify_early_jobs(env, size, inputs["priorities"])
        order = list(range(len(jobs)))
        rng_for(workload, seed).shuffle(order)
        inputs["job_order"] = order
        return [jobs[i] for i in order], inputs
    if workload == "callback":
        return callback_jobs(env, size, inputs["payoffs"]), inputs
    raise ValueError(f"unknown workload {workload!r}")


def load(workload: str, seed: int, size: str, work: Path):
    """Import lotpref from SRC (and nowhere else), then build the
    workload against the recorded digests.  Returns (env, jobs, inputs)."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
    sys.path.insert(0, str(SRC))
    env = Env(SRC, digests, work)
    return (env, *build(env, workload, seed, size))
