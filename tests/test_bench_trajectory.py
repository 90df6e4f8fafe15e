"""BENCH_trajectory.json records the benchmark's end-to-end medians per
change; its shape must follow BENCHMARK.json, so a renamed workload or
metric fails here and not in a later reading of the trajectory."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    return json.loads((ROOT / name).read_text())


def test_trajectory_follows_the_benchmark():
    bench, trajectory = load("BENCHMARK.json"), load("BENCH_trajectory.json")
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [{"name": m["name"], "unit": m["unit"]} for m in bench["end_to_end"]]
    assert len(workloads) == 4 and len(metrics) == 5
    assert trajectory["metrics"] == metrics
    assert trajectory["entries"]
    # One entry per change, none missing: the numbers run without a gap.
    numbers = [entry["pr"] for entry in trajectory["entries"]]
    assert numbers == list(range(numbers[0], numbers[0] + len(numbers)))
    for entry in trajectory["entries"]:
        claim = entry["claim"]
        assert claim is None or (claim["workload"] in workloads
                                 and claim["metric"] in [m["name"] for m in metrics])
        assert entry["verdict"] in ("accepted", "rejected", "unresolved")
        assert list(entry["medians"]) == workloads
        for medians in entry["medians"].values():
            assert list(medians) == ["parent", "change"]
            for values in medians.values():
                assert len(values) == len(metrics)
                assert all(type(v) in (int, float) and v > 0 for v in values)
