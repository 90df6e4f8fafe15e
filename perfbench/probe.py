"""Set-up probe: one fresh-process set-up, for run.py's ``setup_s``.

    python3 -s perfbench/probe.py WORKLOAD SEED SIZE WORKDIR

The clock starts at the probe's first statement, before anything but
``sys`` and ``time`` is imported.  So set-up covers importing the
benchmark's workload module and every standard-library module it and
lotpref pull in, importing lotpref from ``src/``, and building the
workload's inputs.  Prints one JSON line: the raw set-up time and the
speed factor measured right after it (see run.py).
"""

import sys
from time import perf_counter

START = perf_counter()


def main(argv) -> int:
    workload, seed, size, work = argv
    import workloads

    workloads.load(workload, int(seed), size, workloads.Path(work))
    raw = perf_counter() - START
    import run  # untimed: calibrate() and the JSON output

    factor = run.speed_factor([run.calibrate()
                               for _ in range(run.SETUP_CALIBRATIONS)])
    print(run.json.dumps({"setup_s": raw, "factor": factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
