"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs every workload at the tiny
size, untraced and traced, and checks the last output line against
BENCHMARK.json: exactly the declared metric names with their units, a
correct result and no failed job.  It then checks two failure paths:
a copy of the benchmark with one tampered recorded digest, linked to
this checkout's ``src/``, must count it in ``failed`` (the error rate)
of a run that still completes, and a directory without ``src/`` must
make the benchmark exit non-zero without printing a result.  Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from workloads import HERE, ROOT

RUN = HERE / "run.py"
TIMEOUT_S = 180


def run(args, cwd=ROOT):
    """Run the copy of run.py under cwd."""
    return subprocess.run([sys.executable, str(cwd / HERE.name / RUN.name), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def copy_bench(dest: Path) -> Path:
    """A checkout at dest holding BENCHMARK.json and a copy of the
    benchmark's directory, and nothing else; returns the copy."""
    bench = dest / HERE.name
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return bench


def result_of(done) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_names(result: dict, declared: list, where: str):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{where}: metrics {sorted(got.items())} != "
                             f"declared {sorted(want.items())}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {w["name"] for w in bench["workloads"]}
    if declared != set(workloads.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {sorted(declared)}")
    for name in workloads.WORKLOADS:
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{name} --trace {trace}"
            result = result_of(run(["--workload", name, "--seed", "7",
                                    "--seconds", "0.5", "--trace", str(trace),
                                    "--size", "tiny"]))
            check_names(result, metrics, where)
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{where}: {result['failed']} failed jobs")
            print(f"ok  {where}: {result['attempted']} jobs checked")

    work = HERE / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tampered = work / "tampered"
        digests = copy_bench(tampered) / "digests.json"
        (tampered / "src").symlink_to(ROOT / "src", target_is_directory=True)
        table = json.loads(digests.read_text(encoding="utf-8"))
        table["digests"]["hybrid/independence/n3d4"] = "0" * 16
        digests.write_text(json.dumps(table), encoding="utf-8")
        result = result_of(run(["--workload", "falsify-early", "--seed", "7",
                                "--seconds", "0.5", "--size", "tiny"],
                               cwd=tampered))
        per_pass = (sum(len(a) for a in workloads.FALSIFY_PAIRS.values())
                    * len(workloads.SIZES["tiny"]["falsify-early"]))
        passes = result["attempted"] // per_pass
        if result["correct"] or result["failed"] != passes:
            raise AssertionError(f"tampered digest: {result}")
        print(f"ok  tampered digest counted: {result['failed']}/"
              f"{result['attempted']} failed, run completed")

        bare = work / "bare"
        copy_bench(bare)
        done = run(["--workload", "exhaust-eu", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError(f"bare directory: exit {done.returncode}, "
                                 f"stdout {done.stdout!r}")
        print(f"ok  without src/: exit {done.returncode}, no result printed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
