"""lotpref benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports lotpref from ``src/``
there and nowhere else.  Workloads (see workloads.py): exhaust-eu,
falsify-early, callback, elicit-cli.

The run measures set-up (importing the workload module, the
standard-library modules it and lotpref use, lotpref itself, and
building the seeded inputs) in SETUP_PROBES fresh processes (probe.py)
and reports the median.  It then runs passes over the workload's fixed
job list for about ``--seconds``: a pass starts only if one more pass
of the last pass's length still ends in time, but at least MIN_PASSES
run.  Every job's output is checked after it is timed; a failed check
counts in ``failed`` and never aborts the run.

End-to-end times are reported at a reference machine speed.  On a
shared 2-CPU virtual machine the speed of pure-Python code drifts by up
to 1.7x over minutes.  So after every job (untimed) the run times
``calibrate()``, a fixed stdlib-only loop, for about CAL_SHARE of the
job's time, and scales every job of a pass by CAL_REF_S / (mean of the
pass's calibrations).  The speed also flips between two levels, about
1.6x apart, several times a second; a mean over the whole pass follows
the speed the jobs saw, where one job's neighbouring calibrations (or
their median) catch a single level and add noise.  Set-up is scaled by
the mean of calibrations right after it.  The raw times and the
factors are in the ``meta`` line.  No lotpref code runs inside
``calibrate()``, so a change to the package cannot move the factor.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes and reports the per-layer split from the
traced ones (layers.py), with the tracing overhead, in raw seconds.

Lines before the last one are for people: a summary, failures, and a
``meta`` JSON line with the run's metadata.  The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from workloads import HERE, ROOT, SRC

PROBE = HERE / "probe.py"
SETUP_PROBES = 9
SETUP_CALIBRATIONS = 9
CAL_STEPS = 1000
# calibrate() at the reference speed, about its mean time on the
# 2-CPU machine the bounds were set on.  Only scales the reported times.
CAL_REF_S = 0.005
CAL_SHARE = 0.1
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed stdlib-only loop shaped like the package's
    hot paths: small-int cross products and Fraction arithmetic with
    bounded denominators."""
    start = perf_counter()
    acc, hits = Fraction(0), 0
    for i in range(CAL_STEPS):
        a, b = i % 7 + 1, i % 11 + 2
        hits += (a * 3 - b) * (b * 5 - a) > 0
        acc += Fraction(a, b)
        if acc > 3:
            acc -= 3
    return perf_counter() - start


def speed_factor(calibrations) -> float:
    return CAL_REF_S / statistics.fmean(calibrations)


def calibration_block(job_s: float) -> list[float]:
    """Calibrations after a job: one, or about CAL_SHARE of the job's
    own time for a long job, so a long job weighs more in the mean."""
    count = max(1, round(CAL_SHARE * job_s / CAL_REF_S))
    return [calibrate() for _ in range(count)]


def probe_setup(args, work: Path) -> tuple[float, float]:
    """(raw set-up time, speed factor) measured in a fresh process."""
    cmd = [sys.executable, "-s", str(PROBE), args.workload, str(args.seed),
           args.size, str(work)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=os.getcwd(),
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["factor"]


class Runner:
    """Runs passes, times each job, and checks every output."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.samples: list[float] = []      # job times, speed-scaled
        self.walls: list[float] = []        # pass times, speed-scaled
        self.raw_walls: list[float] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first_output: dict[str, str] = {}

    def run_pass(self, tracer=None, record=True, calibrated=True) -> float:
        """One pass; returns its raw time.  Recorded passes add their
        speed-scaled times (factor 1 when not calibrated)."""
        times, calibrations = [], []
        if tracer:
            tracer.start_pass()
        for job in self.jobs:
            error = None
            with tracer.job() if tracer else contextlib.nullcontext():
                start = perf_counter()
                try:
                    result = job.run()
                except Exception as exc:  # a failed job is counted, not fatal
                    error = exc
                elapsed = perf_counter() - start
            times.append(elapsed)
            self._check(job, None if error else result, error)
            if calibrated:
                calibrations.extend(calibration_block(elapsed))
        wall = sum(times)
        if record:
            factor = speed_factor(calibrations) if calibrations else 1.0
            self.raw_walls.append(wall)
            self.factors.append(factor)
            self.walls.append(wall * factor)
            self.samples.extend(t * factor for t in times)
        return wall

    def _check(self, job, result, error):
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                text, problems = job.verify(result)
            except Exception as exc:  # verification itself broke
                text, problems = None, [f"verification raised "
                                        f"{type(exc).__name__}: {exc}"]
            first = self._first_output.setdefault(job.name, text)
            if text is not None and text != first:
                problems.append("output differs from the first pass")
        if problems:
            self.failed += 1
            self.failures.append(f"{job.name}: {'; '.join(problems)}")


def smoothed_quantile(samples, q: float, half_width: float = 0.05) -> float:
    """Mean of the pooled samples' quantile function over q +- half_width.

    A pass is a fixed mix of a few dozen jobs, so the exact quantile
    often sits in a gap between two jobs' times and jumps across it on
    noise.  Averaging the quantile function moves smoothly instead, and
    gives the same value however many passes are pooled."""
    xs = sorted(samples)
    n = len(xs)
    lo, hi = q - half_width, q + half_width
    total = 0.0
    for i, x in enumerate(xs):
        overlap = min(hi, (i + 1) / n) - max(lo, i / n)
        if overlap > 0:
            total += overlap * x
    return total / (hi - lo)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def grid_sizes(env, jobs) -> dict:
    sizes = {}
    for job in jobs:
        if job.d is not None and (job.outcomes, job.d) not in sizes:
            spec = env.lp.GridSpec(env.lp.OutcomeSpace.of_size(job.outcomes), job.d)
            sizes[(job.outcomes, job.d)] = len(env.lp.enumerate_grid(spec))
    return sizes


def metadata(args, env, jobs, inputs, runner, extra) -> dict:
    grids = grid_sizes(env, jobs)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "have_compiled": env.kernels.have_compiled(),
        "LOTPREF_PURE": os.environ.get("LOTPREF_PURE"),
        "inputs": {str(k): v for k, v in inputs.items()},
        "passes": len(runner.walls),
        "raw_pass_walls_s": runner.raw_walls,
        "speed_factors": runner.factors,
        "job_samples": len(runner.samples),
        "error_rate": runner.failed / max(1, runner.attempted),
        "jobs": [{"name": j.name, "outcomes": j.outcomes, "d": j.d,
                  "g": grids.get((j.outcomes, j.d))} for j in jobs],
        **extra,
    }


def measure(env, runner, deadline) -> tuple[dict, dict]:
    """Untraced passes; returns (metrics, extra metadata)."""
    while True:
        start = perf_counter()
        runner.run_pass()
        if (len(runner.walls) >= MIN_PASSES
                and 2 * perf_counter() - start > deadline):
            break
    extra = {}
    if env.kernels.have_compiled():
        env.kernels.set_force_pure(True)
        try:
            extra["pure_forced_raw_wall_s"] = runner.run_pass(
                record=False, calibrated=False)
        finally:
            env.kernels.set_force_pure(False)
    samples = runner.samples
    metrics = {
        "wall_s": (statistics.median(runner.walls), "s"),
        "job_p50_ms": (smoothed_quantile(samples, 0.5) * 1e3, "ms"),
        "job_p90_ms": (smoothed_quantile(samples, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    return metrics, extra


def measure_traced(runner, deadline) -> tuple[dict, dict]:
    """Alternating untraced and traced passes; returns the per-layer
    metrics (per traced pass) and extra metadata."""
    import layers

    tracer = layers.Tracer()
    untraced = []
    runner.run_pass(record=False, calibrated=False)    # warm-up, untimed
    while True:
        start = perf_counter()
        untraced.append(runner.run_pass(calibrated=False))
        with tracer.installed():
            runner.run_pass(tracer, record=False, calibrated=False)
        if 2 * perf_counter() - start > deadline:
            break
    metrics = tracer.metrics(statistics.fmean(untraced))
    accounted = sum(v for k, (v, _) in metrics.items()
                    if k in layers.TIME_BUCKETS)
    extra = {"traced_passes": tracer.counts["passes"],
             "layer_self_sum_s": accounted,
             "traced_wall_s": metrics["trace.wall_s"][0]}
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lotpref" / "__init__.py").is_file():
        print(f"perfbench: no lotpref package under {SRC}; run from the root "
              "of a lotpref checkout", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    # Set-up time is an end-to-end metric only; traced runs skip the probes.
    setup_samples = [probe_setup(args, work)
                     for _ in range(0 if args.trace else SETUP_PROBES)]
    env, jobs, inputs = workloads.load(args.workload, args.seed, args.size, work)
    runner = Runner(jobs)
    deadline = perf_counter() + args.seconds
    if args.trace:
        metrics, extra = measure_traced(runner, deadline)
    else:
        metrics, extra = measure(env, runner, deadline)
        setup_s = statistics.median(raw * f for raw, f in setup_samples)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    meta = metadata(args, env, jobs, inputs, runner,
                    {"setup_raw_s_and_factor": setup_samples, **extra})

    print(f"workload={args.workload} seed={args.seed} passes={meta['passes']} "
          f"jobs/pass={len(jobs)} job_samples={meta['job_samples']} "
          f"error_rate={meta['error_rate']:.4g} "
          f"({runner.failed}/{runner.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"  layer self times sum to {extra['layer_self_sum_s']:.6g} s "
              f"of traced wall {extra['traced_wall_s']:.6g} s "
              "(trace.unaccounted_s included)")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
