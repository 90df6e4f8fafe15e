"""The benchmark's tracer wraps package names by attribute; renaming or
removing one of them must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

from lotpref import _kernels as kernels

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_tracer_installs_against_the_package():
    layers = load_layers()
    from lotpref import cli

    load = cli.load_scenario
    with layers.Tracer().installed():
        assert cli.load_scenario is not load
    assert cli.load_scenario is load


# One set of trailing scan arguments each, as the checkers pass them.
SCAN_ARGS = {
    "independence": ([(1, 2), (1, 1)],),
    "betweenness": ([(1, 2)],),
    "convexity": ([(0, 1), (1, 2), (1, 1)],),
    "line_order": (4,),
    "mixture": ([(1, 4), (1, 2)], 8),
    "archimedean": (8,),
    "solvability_scan": ([(0, 1), (1, 2), (1, 1)],),
    "openness": (8,),
}


def test_backend_name_takes_the_tracers_limits():
    # The tracer names each traced call's path by passing backend_name
    # the limits it derives from the scan's trailing arguments; every
    # (kind, scan) pair must accept them and name its path, pure for a
    # callback spec and level for an encoded one.  The
    # benchmark records have_compiled(), False with no compiled path.
    layers = load_layers()
    specs = [("eu", (0, 1, 2)), ("lex", (2, 0, 1)), ("hybrid", ()),
             ("majority", ()), ("callback", (None,))]
    for scan in layers.SCANS:
        limits = layers._scan_limits(scan, SCAN_ARGS.get(scan, ()))
        for spec in specs:
            path = "pure" if spec[0] == "callback" else "level"
            assert kernels.backend_name(spec, scan, 4, **limits) == path, (scan, spec)
    assert kernels.have_compiled() is False
