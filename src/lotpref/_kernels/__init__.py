"""Scan kernel dispatch: one of three paths per call.

Each ``scan_<name>`` here is built by ``_dispatcher`` from one row of
a table: the scan's name and the envelope limits its trailing
arguments imply.  It has the same signature and semantics as its twin
in ``pure``; the only decision made is which path runs, first match:

* ``"compiled"``: the extension imported, the oracle encoding is one
  the C code knows, and the integer envelope fits 128-bit
  intermediates.
* ``"level"``: the spec is ``"eu"`` (expected utility, and represented
  oracles through their gauge utility).  ``levels`` compares integer
  levels u·x in unbounded Python ints, so no envelope applies.
* ``"pure"``: everything else, through ``pure``'s comparison closures.

``backend_name`` names the path a call would take.  set_force_pure(True)
takes the compiled path out, as if the extension had not imported.
``scan_solvability_solve`` takes a utility instead of an oracle
encoding and keeps a wrapper of its own.
"""

from __future__ import annotations

from . import encoding, levels, pure
from .encoding import encode_lotteries, encode_oracle, envelope_ok

try:
    from . import _fastscan as _fast
except ImportError:
    _fast = None

_KIND_CODES = {"eu": 0, "lex": 1, "hybrid": 2, "majority": 3}
_force_pure = False

__all__ = [
    "encode_lotteries",
    "encode_oracle",
    "envelope_ok",
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

LINE_Q_BEATS_POINT = pure.LINE_Q_BEATS_POINT
LINE_P_BEATS_POINT = pure.LINE_P_BEATS_POINT
LINE_POINT_BEATS_Q = pure.LINE_POINT_BEATS_Q
LINE_POINT_BEATS_P = pure.LINE_POINT_BEATS_P
ARCH_SIDE_BETA = pure.ARCH_SIDE_BETA
ARCH_SIDE_ALPHA = pure.ARCH_SIDE_ALPHA


def have_compiled() -> bool:
    return _fast is not None


def set_force_pure(flag: bool):
    global _force_pure
    _force_pure = flag


def _can_compile(spec, scan: str, den: int, **limits) -> bool:
    if _fast is None or _force_pure:
        return False
    if spec[0] not in _KIND_CODES:
        return False
    return envelope_ok(spec, scan, den, **limits)


def backend_name(spec, scan: str, den: int, **limits) -> str:
    if _can_compile(spec, scan, den, **limits):
        return "compiled"
    return "level" if spec[0] == "eu" else "pure"


def _flat(nums) -> list[int]:
    return [x for row in nums for x in row]


def _dispatcher(scan: str, limits):
    """scan_<scan>(spec, nums, den, *rest): the compiled twin when
    ``_can_compile`` allows it under ``limits(*rest)``, else the level
    twin for an eu spec, else the pure one.  The compiled twin takes
    weight-pair lists flattened."""
    pure_scan = getattr(pure, f"scan_{scan}")
    level_scan = getattr(levels, f"scan_{scan}")

    def dispatch(spec, nums, den, *rest):
        if _can_compile(spec, scan, den, **limits(*rest)):
            flat_rest = [_flat(x) if isinstance(x, (list, tuple)) else x
                         for x in rest]
            return getattr(_fast, f"scan_{scan}")(
                _KIND_CODES[spec[0]], list(spec[1]), _flat(nums), len(nums),
                len(nums[0]) if nums else 0, den, *flat_rest)
        if spec[0] == "eu":
            return level_scan(spec, nums, den, *rest)
        return pure_scan(spec, nums, den, *rest)

    dispatch.__name__ = dispatch.__qualname__ = f"scan_{scan}"
    dispatch.__doc__ = pure_scan.__doc__
    return dispatch


def _alpha_limits(alphas):
    return {"max_alpha_den": max((b for _, b in alphas), default=1)}


scan_transitivity = _dispatcher("transitivity", lambda: {})
scan_independence = _dispatcher("independence", _alpha_limits)
scan_betweenness = _dispatcher("betweenness", _alpha_limits)
scan_convexity = _dispatcher("convexity", _alpha_limits)
scan_translation = _dispatcher("translation", lambda: {})
scan_line_order = _dispatcher("line_order", lambda t_den: {"max_t_den": t_den})
scan_mixture = _dispatcher("mixture", lambda stars, depth: dict(
    _alpha_limits(stars), depth=depth))
scan_archimedean = _dispatcher("archimedean", lambda depth: {"depth": depth})
scan_solvability_scan = _dispatcher("solvability_scan", _alpha_limits)
scan_openness = _dispatcher("openness", lambda depth: {"depth": depth})


def scan_solvability_solve(utility, nums, den):
    spec = ("eu", tuple(utility))
    if _can_compile(spec, "solvability_solve", den):
        return _fast.scan_solvability_solve(
            list(utility), _flat(nums), len(nums),
            len(nums[0]) if nums else 0, den)
    return levels.scan_solvability_solve(utility, nums, den)
