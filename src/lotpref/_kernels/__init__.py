"""Scan kernel dispatch: one of two paths per call, by oracle kind.

Each ``scan_<name>`` here is built by ``_dispatcher`` from its twins
in ``pure`` and ``levels``, and this module's bindings are the one list
of scans.  It has the same signature and semantics as its ``pure``
twin.  ``backend_name`` makes the only decision, which path runs:

* ``"pure"``: a callback spec, an oracle the encoder refuses, through
  its comparison closure.
* ``"level"``: every encoded spec (eu, lex, hybrid, majority).  Each
  level scan answers each kind by proof, by coordinate-threshold rows,
  or, where its docstring says why the kind has no shortcut, by the
  ``pure`` sign-row walk.

Both paths compare with one closure per kind, ``pure.make_compare``:
the callback, or the integer rule the kind's oracle compares with
(``oracles.integer_rule``).
"""

from __future__ import annotations

from . import levels, pure
from .encoding import encode_lotteries, encode_oracle, separation_depth

__all__ = [
    "encode_lotteries",
    "encode_oracle",
    "separation_depth",
    "have_compiled",
    "backend_name",
    "scan_transitivity",
    "scan_independence",
    "scan_betweenness",
    "scan_convexity",
    "scan_translation",
    "scan_line_order",
    "scan_mixture",
    "scan_archimedean",
    "scan_solvability_scan",
    "scan_solvability_solve",
    "scan_openness",
]


def have_compiled() -> bool:
    """False: every scan runs in Python.  The benchmark records it."""
    return False


def backend_name(spec, scan: str, den: int, **limits) -> str:
    """The path ``scan_<scan>(spec, nums, den, ...)`` takes: "pure" for
    a callback spec, else "level".  The scan, den and the limits the
    benchmark's tracer derives from a scan's trailing arguments do not
    change it."""
    return "pure" if spec[0] == "callback" else "level"


def _dispatcher(pure_scan, level_scan):
    """pure_scan(spec, nums, den, *rest) or level_scan on the same
    arguments, as ``backend_name`` picks; named as pure_scan."""
    scan = pure_scan.__name__.removeprefix("scan_")

    def dispatch(spec, nums, den, *rest):
        if backend_name(spec, scan, den) == "pure":
            return pure_scan(spec, nums, den, *rest)
        return level_scan(spec, nums, den, *rest)

    dispatch.__name__ = dispatch.__qualname__ = pure_scan.__name__
    dispatch.__doc__ = pure_scan.__doc__
    return dispatch


scan_transitivity = _dispatcher(pure.scan_transitivity, levels.scan_transitivity)
scan_independence = _dispatcher(pure.scan_independence, levels.scan_independence)
scan_betweenness = _dispatcher(pure.scan_betweenness, levels.scan_betweenness)
scan_convexity = _dispatcher(pure.scan_convexity, levels.scan_convexity)
scan_translation = _dispatcher(pure.scan_translation, levels.scan_translation)
scan_line_order = _dispatcher(pure.scan_line_order, levels.scan_line_order)
scan_mixture = _dispatcher(pure.scan_mixture, levels.scan_mixture)
scan_archimedean = _dispatcher(pure.scan_archimedean, levels.scan_archimedean)
scan_solvability_scan = _dispatcher(pure.scan_solvability_scan, levels.scan_solvability_scan)
scan_solvability_solve = _dispatcher(pure.scan_solvability_solve, levels.scan_solvability_solve)
scan_openness = _dispatcher(pure.scan_openness, levels.scan_openness)
