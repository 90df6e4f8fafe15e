"""Record the verdict digests that the benchmark checks first hits against.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  For both sizes it runs every check
job that any seed can produce and writes perfbench/digests.json.  The
seeded choices range over finite sets, so the table covers every seed:

* the verdict of an expected-utility check is payoff-independent except
  for ip, whose found points depend on the ranking; ip is recorded for
  every relabeling of the payoff shape;
* falsify-early's inputs do not depend on the seed (it only orders the
  jobs).

Each recorded verdict must pass the job's other checks (theory,
witness replay), and every callback-path verdict must equal the
verdict of the encoded parent-class oracle.  Regenerating the table is
a deliberate act: it pins the first-hit order the package promises.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter

import workloads
from workloads import DIGESTS, HERE, SRC


def record(env, jobs, table, label):
    start = perf_counter()
    ran = 0
    for job in jobs:
        if job.name in table:
            continue
        text, problems = job.verify(job.run())
        problems = [p for p in problems if p != "no recorded digest for this input"]
        if problems:
            raise SystemExit(f"{job.name}: {'; '.join(problems)}")
        table[job.name] = workloads.digest(text)
        ran += 1
    print(f"{label}: {ran} verdicts in {perf_counter() - start:.1f} s", flush=True)


def payoff_classes(n: int) -> list[tuple[int, ...]]:
    """Every relabeling of the payoff shape; scale and shift do not
    change the canonical utility."""
    shape = workloads.PAYOFF_SHAPES[n]
    return sorted({tuple(shape[i] for i in perm)
                   for perm in itertools.permutations(range(n))})


def cross_check_callback(env, size: str, payoffs):
    """Callback-path verdicts must equal the encoded parent's verdicts."""
    lp = env.lp
    conf = workloads.SIZES[size]["callback"]
    space = lp.OutcomeSpace.of_size(conf["outcomes"])
    sub_eu, sub_majority = workloads.callback_oracle_classes(lp)
    pairs = ((sub_eu(lp.UtilityFunction.of(space, payoffs)),
              lp.ExpectedUtilityOracle(lp.UtilityFunction.of(space, payoffs))),
             (sub_majority(space), lp.MajorityOracle(space)))
    for sub, parent in pairs:
        for axiom in workloads.CALLBACK_AXIOMS:
            grid = lp.GridSpec(space, conf["d"])
            a = env.scenario.verdict_to_json(workloads.call_check(lp, axiom, sub, grid))
            b = env.scenario.verdict_to_json(workloads.call_check(lp, axiom, parent, grid))
            if a != b:
                raise SystemExit(f"callback and encoded verdicts differ: "
                                 f"{type(parent).__name__} {axiom}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    env = workloads.Env(SRC, {}, HERE)
    table: dict[str, str] = {}
    for size in workloads.SIZES:
        grids = workloads.SIZES[size]["exhaust-eu"]
        some = {n: workloads.PAYOFF_SHAPES[n] for n, _, _, _ in grids}
        record(env, workloads.exhaust_eu_jobs(env, size, some), table,
               f"{size} exhaust-eu")
        for n, _, _, axioms in grids:
            if axioms is not None and "ip" not in axioms:
                continue
            for payoffs in payoff_classes(n):
                jobs = workloads.exhaust_eu_jobs(env, size, {**some, n: payoffs})
                record(env, [j for j in jobs if j.axiom == "ip"], table,
                       f"{size} exhaust-eu ip {payoffs}")

        priorities = workloads.seeded_inputs("falsify-early", 0, size)["priorities"]
        record(env, workloads.falsify_early_jobs(env, size, priorities), table,
               f"{size} falsify-early")

        payoffs = tuple(range(workloads.SIZES[size]["callback"]["outcomes"]))
        cross_check_callback(env, size, payoffs)
        record(env, workloads.callback_jobs(env, size, payoffs), table,
               f"{size} callback")

    DIGESTS.write_text(json.dumps({"version": 1, "digests": dict(sorted(table.items()))},
                              indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
