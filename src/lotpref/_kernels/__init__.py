"""Scan kernel dispatch: one of three paths per call.

Each ``scan_<name>`` here is built by ``_dispatcher`` from one row of
a table: the scan's name and, where the compiled path can take it,
the envelope limits its trailing arguments imply.  It has the same
signature and semantics as its twin in ``pure``.  ``backend_name``
makes the only decision, which path runs:

* ``"level"``: the (kind, scan) rows in ``levels.PROVEN``: expected
  utility on every scan, and lex, hybrid and majority where an
  invariance identity answers or, for mixture, where the search of
  coordinate breakpoints does.  These rows need no envelope and ignore
  the extension and set_force_pure.
* ``"compiled"``: any other lex, hybrid or majority row, when the
  extension imported, set_force_pure(True) is off and the integer
  envelope fits 128-bit intermediates.
* ``"pure"``: everything else, through ``pure``'s comparison closures.

set_force_pure(True) takes the compiled path out, as if the extension
had not imported.  ``scan_solvability_solve`` takes a utility instead
of an oracle encoding; it is the level kernel itself.
"""

from __future__ import annotations

from . import levels, pure
from .encoding import encode_lotteries, encode_oracle, envelope_ok, separation_depth
from .levels import scan_solvability_solve
from .pure import (
    ARCH_SIDE_ALPHA, ARCH_SIDE_BETA, LINE_P_BEATS_POINT, LINE_POINT_BEATS_P,
    LINE_POINT_BEATS_Q, LINE_Q_BEATS_POINT,
)

try:
    from . import _fastscan as _fast
except ImportError:
    _fast = None

# The oracle kind codes of the .pyx enum that the compiled path serves.
_KIND_CODES = {"lex": 1, "hybrid": 2, "majority": 3}
_force_pure = False

__all__ = [
    "encode_lotteries",
    "encode_oracle",
    "envelope_ok",
    "separation_depth",
    "have_compiled",
    "set_force_pure",
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
    "LINE_Q_BEATS_POINT",
    "LINE_P_BEATS_POINT",
    "LINE_POINT_BEATS_Q",
    "LINE_POINT_BEATS_P",
    "ARCH_SIDE_BETA",
    "ARCH_SIDE_ALPHA",
]

def have_compiled() -> bool:
    return _fast is not None


def set_force_pure(flag: bool):
    global _force_pure
    _force_pure = flag


def backend_name(spec, scan: str, den: int, **limits) -> str:
    """The path ``scan_<scan>(spec, nums, den, ...)`` takes, given the
    envelope limits its trailing arguments imply."""
    if spec[0] in levels.PROVEN[scan]:
        return "level"
    if (_fast is not None and not _force_pure and spec[0] in _KIND_CODES
            and envelope_ok(den, **limits)):
        return "compiled"
    return "pure"


def _flat(nums) -> list[int]:
    return [x for row in nums for x in row]


def _dispatcher(scan: str, limits=lambda *rest: {}):
    """scan_<scan>(spec, nums, den, *rest) on the path ``backend_name``
    picks under ``limits(*rest)``, none by default.  The compiled twin
    takes weight-pair lists flattened."""
    pure_scan = getattr(pure, f"scan_{scan}")
    level_scan = getattr(levels, f"scan_{scan}")

    def dispatch(spec, nums, den, *rest):
        path = backend_name(spec, scan, den, **limits(*rest))
        if path == "compiled":
            flat_rest = [_flat(x) if isinstance(x, (list, tuple)) else x
                         for x in rest]
            return getattr(_fast, f"scan_{scan}")(
                _KIND_CODES[spec[0]], list(spec[1]), _flat(nums), len(nums),
                len(nums[0]) if nums else 0, den, *flat_rest)
        if path == "level":
            return level_scan(spec, nums, den, *rest)
        return pure_scan(spec, nums, den, *rest)

    dispatch.__name__ = dispatch.__qualname__ = f"scan_{scan}"
    dispatch.__doc__ = pure_scan.__doc__
    return dispatch


def _alpha_limits(alphas):
    return {"max_alpha_den": max((b for _, b in alphas), default=1)}


scan_transitivity = _dispatcher("transitivity")
scan_independence = _dispatcher("independence", _alpha_limits)
scan_betweenness = _dispatcher("betweenness")
scan_convexity = _dispatcher("convexity", _alpha_limits)
scan_translation = _dispatcher("translation")
scan_line_order = _dispatcher("line_order")
scan_mixture = _dispatcher("mixture")
scan_archimedean = _dispatcher("archimedean", lambda depth: {"depth": depth})
scan_solvability_scan = _dispatcher("solvability_scan", _alpha_limits)
scan_openness = _dispatcher("openness", lambda depth: {"depth": depth})
