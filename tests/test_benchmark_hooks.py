"""The benchmark's tracer wraps package names by attribute; renaming or
removing one of them must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_benchmark_tracer_installs_against_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    from lotpref import cli

    load = cli.load_scenario
    with layers.Tracer().installed():
        assert cli.load_scenario is not load
    assert cli.load_scenario is load
