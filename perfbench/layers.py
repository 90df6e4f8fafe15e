"""Per-layer tracing from outside the package.

``Tracer.installed()`` wraps lotpref's public functions where their
callers bind them (for example ``lotpref.axioms.enumerate_grid``, which
is what the checkers call) and the compare/solve methods on the oracle
classes.  Oracle instances are never wrapped: ``encode_oracle`` checks
the exact type, so a wrapped instance would silently move a check to the
callback path.  Everything is restored on exit.

Each wrapped call is a span.  A span's self time is its duration minus
its child spans, and is added to the span's bucket.  A job is the root
span; its self time is benchmark glue inside the job and is reported as
``trace.unaccounted_s``.  So the buckets of one pass add up to the
pass's traced wall time.  Outside a job (verification) the wrappers
call straight through.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter

SCANS = ("transitivity", "independence", "betweenness", "convexity",
         "translation", "line_order", "mixture", "archimedean",
         "solvability_scan", "solvability_solve", "openness")

CHECKS = ("check_weak_order", "check_independence", "check_ip",
          "check_continuity", "check_convexity", "check_translation",
          "check_line_order")

REPRESENTATION = {
    "generate_indifferent_points": "representation.generate_s",
    "elicit": "representation.elicit_s",
    "classify": "representation.classify_s",
    "indifference_certificate": "representation.certify_s",
    "replay_certificate": "representation.replay_s",
    "construct_ip_via_solvability": "representation.construct_s",
}

GEOMETRY = ("affine_rank", "hyperplane_from_points", "kernel_basis",
            "affine_coefficients")

SCENARIO_DUMP = ("dump_document", "lottery_to_json", "oracle_to_json",
                 "representation_to_json", "construction_to_json",
                 "certificate_to_json", "replay_to_json", "verdict_to_json")

ORACLE_CLASSES = ("ExpectedUtilityOracle", "RepresentedOracle",
                  "LexicographicOracle", "HybridExampleOracle",
                  "MajorityOracle")

# Self-time buckets, each reported as one metric in seconds.
TIME_BUCKETS = (
    ("grids.enumerate_s",)
    + ("encoding.encode_s",)
    + tuple(f"kernels.scan_s.{scan}" for scan in SCANS)
    + ("oracles.compare_s", "oracles.solve_s")
    + ("axioms.confirm_s", "axioms.ip_s", "axioms.solve_contract_s")
    + ("geometry.s",)
    + tuple(REPRESENTATION.values())
    + ("scenario.load_s", "scenario.dump_s", "cli.self_s")
    + ("trace.unaccounted_s",)
)


def _scan_limits(scan: str, rest) -> dict:
    """The envelope limits the dispatcher in lotpref._kernels passes to
    backend_name for each scan, from the scan's trailing arguments."""
    def max_den(pairs):
        return max((b for _, b in pairs), default=1)

    if scan in ("independence", "betweenness", "convexity", "solvability_scan"):
        return {"max_alpha_den": max_den(rest[0])}
    if scan == "line_order":
        return {"max_t_den": rest[0]}
    if scan == "mixture":
        return {"max_alpha_den": max_den(rest[0]), "depth": rest[1]}
    if scan in ("archimedean", "openness"):
        return {"depth": rest[0]}
    return {}


class _Span:
    __slots__ = ("bucket", "layer", "child", "encoded", "refused")

    def __init__(self, bucket: str, layer: str):
        self.bucket = bucket
        self.layer = layer
        self.child = 0.0
        self.encoded = False
        self.refused = False


class Tracer:
    def __init__(self):
        self.times = Counter()
        self.counts = Counter()
        self.wall = 0.0
        self._stack: list[_Span] = []
        self._seen_grids: set = set()
        self._kernels = importlib.import_module("lotpref._kernels")
        self._encoding = importlib.import_module("lotpref._kernels.encoding")

    # ---- spans ---------------------------------------------------------

    def _call(self, bucket, layer, fn, args, kwargs):
        span = _Span(bucket, layer)
        self._stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.times[span.bucket] += elapsed - span.child
            self._stack[-1].child += elapsed
            if layer == "axioms" and span.encoded:
                self.counts["checks_encoded"] += 1
                self.counts["checks_refused"] += span.refused

    @contextlib.contextmanager
    def job(self):
        root = _Span("trace.unaccounted_s", "job")
        self._stack.append(root)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.times[root.bucket] += elapsed - root.child
            self.wall += elapsed

    def start_pass(self):
        self._seen_grids.clear()
        self.counts["passes"] += 1

    # ---- wrappers ------------------------------------------------------

    def _plain(self, bucket, layer, fn, counter=None):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if counter:
                self.counts[counter] += 1
            return self._call(bucket, layer, fn, args, kwargs)
        return wrapper

    def _enumerate_grid(self, fn):
        def wrapper(spec):
            if not self._stack:
                return fn(spec)
            self.counts["grids.calls"] += 1
            if spec in self._seen_grids:
                self.counts["grids.repeats"] += 1
            self._seen_grids.add(spec)
            lots = self._call("grids.enumerate_s", "grids", fn, (spec,), {})
            self.counts["grids.points"] += len(lots)
            return lots
        return wrapper

    def _encode_oracle(self, fn):
        def wrapper(oracle):
            if not self._stack:
                return fn(oracle)
            spec = self._call("encoding.encode_s", "encoding", fn, (oracle,), {})
            for span in reversed(self._stack):
                if span.layer == "axioms":
                    span.encoded = True
                    span.refused |= spec is None
                    break
            return spec
        return wrapper

    def _scan(self, scan, fn):
        kernels = self._kernels

        def wrapper(spec, nums, den, *rest):
            if not self._stack:
                return fn(spec, nums, den, *rest)
            hit = self._call(f"kernels.scan_s.{scan}", "kernels", fn,
                             (spec, nums, den) + rest, {})
            if scan == "solvability_solve":
                spec = ("eu", tuple(spec))
            self.counts["kernels.scan_calls"] += 1
            self.counts["kernels.hits"] += hit is not None
            self.counts["kernels.compiled"] += kernels.backend_name(
                spec, scan, den, **_scan_limits(scan, rest)) == "compiled"
            return hit
        return wrapper

    def _check(self, name, fn):
        encode = self._encoding.encode_oracle

        def wrapper(oracle, *args, **kwargs):
            if not self._stack:
                return fn(oracle, *args, **kwargs)
            bucket = "axioms.confirm_s"
            if name == "check_ip":
                bucket = "axioms.ip_s"
            elif (name == "check_continuity" and args[0] == "solvability"
                  and oracle.has_solve):
                # check_continuity runs its own triple loop when the
                # oracle can solve but does not encode as "eu".
                spec = encode(oracle)
                if spec is None or spec[0] != "eu":
                    bucket = "axioms.solve_contract_s"
            return self._call(bucket, "axioms", fn, (oracle,) + args, kwargs)
        return wrapper

    def _oracle_method(self, method, fn):
        bucket = f"oracles.{method}_s"

        def wrapper(oracle, *args):
            if not self._stack:
                return fn(oracle, *args)
            if self._stack[-1].layer != "oracles":
                self.counts[f"oracles.{method}_calls"] += 1
            return self._call(bucket, "oracles", fn, (oracle,) + args, {})
        return wrapper

    # ---- installation --------------------------------------------------

    def _patches(self):
        """(owner, attribute, wrapper) for everything the tracer wraps."""
        mod = importlib.import_module
        lp, axioms, cli = mod("lotpref"), mod("lotpref.axioms"), mod("lotpref.cli")
        representation = mod("lotpref.representation")
        kernels = self._kernels
        out = [(axioms, "enumerate_grid", self._enumerate_grid(axioms.enumerate_grid))]
        for name in ("dyadic_alphas", "rationals_between"):
            out.append((axioms, name, self._plain(
                "grids.enumerate_s", "grids", getattr(axioms, name))))
        out.append((kernels, "encode_lotteries", self._plain(
            "encoding.encode_s", "encoding", kernels.encode_lotteries)))
        out.append((kernels, "encode_oracle",
                    self._encode_oracle(kernels.encode_oracle)))
        for scan in SCANS:
            name = f"scan_{scan}"
            out.append((kernels, name, self._scan(scan, getattr(kernels, name))))
        for owner in (lp, cli):
            for name in CHECKS:
                out.append((owner, name, self._check(name, getattr(owner, name))))
            for name, bucket in REPRESENTATION.items():
                out.append((owner, name, self._plain(
                    bucket, "representation", getattr(owner, name))))
        for owner, names in ((representation, GEOMETRY), (axioms, ("affine_rank",))):
            for name in names:
                out.append((owner, name, self._plain(
                    "geometry.s", "geometry", getattr(owner, name),
                    counter="geometry.calls")))
        for name in ("load_scenario", "parse_lottery_field"):
            out.append((cli, name, self._plain(
                "scenario.load_s", "scenario", getattr(cli, name))))
        for name in SCENARIO_DUMP:
            out.append((cli, name, self._plain(
                "scenario.dump_s", "scenario", getattr(cli, name))))
        out.append((cli, "main", self._plain("cli.self_s", "cli", cli.main)))
        for cls_name in ORACLE_CLASSES:
            cls = getattr(lp, cls_name)
            for method in ("compare", "solve"):
                out.append((cls, method,
                            self._oracle_method(method, getattr(cls, method))))
        return out

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, name, wrapper in self._patches():
                saved.append((owner, name, owner.__dict__.get(name),
                              name in owner.__dict__))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original, owned in reversed(saved):
                if owned:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)

    # ---- results -------------------------------------------------------

    def metrics(self, untraced_wall: float) -> dict:
        """Per-pass means of every bucket and count."""
        passes = max(1, self.counts["passes"])
        c = self.counts
        out = {}
        for bucket in TIME_BUCKETS:
            out[bucket] = (self.times[bucket] / passes, "s")
        scan_total = sum(self.times[f"kernels.scan_s.{s}"] for s in SCANS)
        out["kernels.scan_s"] = (scan_total / passes, "s")
        out["grids.points"] = (c["grids.points"] / passes, "count")
        out["grids.repeat_share"] = (_share(c["grids.repeats"], c["grids.calls"]), "ratio")
        out["encoding.callback_share"] = (
            _share(c["checks_refused"], c["checks_encoded"]), "ratio")
        out["kernels.scan_calls"] = (c["kernels.scan_calls"] / passes, "count")
        out["kernels.hit_share"] = (_share(c["kernels.hits"], c["kernels.scan_calls"]), "ratio")
        out["kernels.compiled_share"] = (
            _share(c["kernels.compiled"], c["kernels.scan_calls"]), "ratio")
        out["oracles.compare_calls"] = (c["oracles.compare_calls"] / passes, "count")
        out["oracles.solve_calls"] = (c["oracles.solve_calls"] / passes, "count")
        out["geometry.calls"] = (c["geometry.calls"] / passes, "count")
        out["trace.wall_s"] = (self.wall / passes, "s")
        out["trace.overhead_s"] = (self.wall / passes - untraced_wall, "s")
        return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
