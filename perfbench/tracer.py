"""Per-layer tracing of normgeo, installed from outside the library.

``Tracer.install`` wraps ``Norm.__call__`` and, in every loaded normgeo
module, each public layer function and search helper under the name that
module imported it by, so calls between modules are seen too.  Layer
functions record a span (name, start, end, parent, bundle, norm evaluations
made inside it); norm calls and searches are counted, not spanned, because a
bundle makes hundreds of thousands of them.  Spans stay in memory until
``dump`` writes them out at the end of the run.

A span's self time is its duration minus the time of the layer spans nested
in it; norm evaluations and searches inside it count as its own.  Norm
evaluations per span are inclusive of nested spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

LAYERS = {
    "sphere": ("diametral_set", "star", "bisector_points", "is_flat", "arc_length_map"),
    "isometry": ("isometry_group", "fingerprint", "align"),
    "charts": ("four_distance_injectivity",),
    "convexity": ("modulus_of_convexity", "is_strictly_convex"),
    "curvature": ("normed_curvature", "corner_ratio"),
    "verify": ("run_reference_checks",),
}
SEARCHES = ("bisect_root", "bisect_root_tight", "bisect_first_true", "golden_max")
KINDS = ("euclidean", "pnorm", "polygon", "hexagonal", "lens", "linear-image", "revolution")
SPHERE_QUERIES = ("sphere.diametral_set", "sphere.star", "sphere.bisector_points",
                  "sphere.is_flat")


class Span:
    __slots__ = ("id", "name", "parent", "bundle", "start", "end", "child_s",
                 "evals", "size", "built")

    def __init__(self, ident, name, parent, bundle):
        self.id = ident
        self.name = name
        self.parent = parent
        self.bundle = bundle
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.evals = 0
        self.size = 0         # alignments returned, for `align`
        self.built = False    # cache miss, for `arc_length_map`

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _replace_everywhere(original, replacement) -> None:
    """Rebind every normgeo module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "normgeo" or name.startswith("normgeo.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Spans and counters of one traced run; ``bundle`` is None during set-up."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.bundle: int | None = None
        # kind -> [scalar calls, scalar seconds, batch calls, batch vectors, batch seconds]
        self.norm_stats: dict[str, list] = {}
        self.counts: Counter = Counter()

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        import normgeo
        from normgeo import norms
        self._wrap_norm_call(norms.Norm)
        for layer, names in LAYERS.items():
            module = getattr(normgeo, layer)
            for fname in names:
                original = getattr(module, fname)
                _replace_everywhere(original, self._layer_wrapper(f"{layer}.{fname}", original))
        for fname in SEARCHES:
            original = getattr(normgeo.numerics, fname)
            _replace_everywhere(original, self._search_wrapper(fname, original))

    def _wrap_norm_call(self, norm_cls) -> None:
        original = norm_cls.__call__
        perf = time.perf_counter

        def traced_call(norm, v):
            t0 = perf()
            out = original(norm, v)
            dt = perf() - t0
            single = isinstance(out, float)
            n = 1 if single else len(out)
            for span in self.stack:
                span.evals += n
            if self.bundle is not None:
                st = self.norm_stats.setdefault(norm.kind, [0, 0.0, 0, 0, 0.0])
                if single:
                    st[0] += 1
                    st[1] += dt
                else:
                    st[2] += 1
                    st[3] += n
                    st[4] += dt
            return out

        norm_cls.__call__ = traced_call

    def _layer_wrapper(self, name, original):
        cache_info = getattr(original, "cache_info", None)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(len(self.spans), name, parent, self.bundle)
            self.spans.append(span)
            misses = cache_info().misses if cache_info else 0
            self.stack.append(span)
            span.start = perf()
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = perf()
                self.stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if cache_info:
                span.built = cache_info().misses > misses
            if name == "isometry.align":
                span.size = len(out)
            return out

        if cache_info:
            traced.cache_info = cache_info
            traced.cache_clear = original.cache_clear
        traced.__wrapped__ = original
        return traced

    def _search_wrapper(self, fname, original):
        params = inspect.signature(original).parameters
        cap = params["max_iter"].default if "max_iter" in params else None
        before_loop = 1 if fname == "bisect_root_tight" else 2

        def traced(f, lo, hi, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            out = original(counted, lo, hi, *args, **kwargs)
            if self.bundle is not None:
                iters = max(evals - before_loop, 0)
                if fname == "golden_max":
                    self.counts["golden_iters"] += iters
                else:
                    self.counts["bisections"] += 1
                    self.counts["bisect_iters"] += iters
                    limit = kwargs.get("max_iter", cap)
                    if limit is not None and iters >= limit:
                        self.counts["bisect_capped"] += 1
            return out

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------ metrics

    def metrics(self, bundles: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: per bundle unless the name says per call or build."""
        per = 1.0 / bundles
        out: dict[str, tuple[float, str]] = {}
        stats = self.norm_stats.values()
        out["norms.calls"] = (sum(s[0] + s[2] for s in stats) * per, "count")
        out["norms.evals"] = (sum(s[0] + s[3] for s in stats) * per, "count")
        out["norms.busy_ms"] = (sum(s[1] + s[4] for s in stats) * per * 1e3, "ms")
        for kind in KINDS:
            s = self.norm_stats.get(kind, [0, 0.0, 0, 0, 0.0])
            out[f"norms.scalar_us.{kind}"] = (s[1] / s[0] * 1e6 if s[0] else 0.0, "us")
            out[f"norms.batch_ns.{kind}"] = (s[4] / s[3] * 1e9 if s[3] else 0.0, "ns")

        timed = [s for s in self.spans if s.bundle is not None]

        def named(name):
            return [s for s in timed if s.name == name]

        def self_ms(*names):
            return sum(s.self_s for n in names for s in named(n)) * per * 1e3

        def evals(*names):
            return sum(s.evals for n in names for s in named(n)) * per

        def ms_per_call(name):
            spans = named(name)
            return sum(s.self_s for s in spans) / len(spans) * 1e3 if spans else 0.0

        builds = [s for s in self.spans if s.name == "sphere.arc_length_map" and s.built]
        out["sphere.arc_map_ms"] = (
            sum(s.duration for s in builds) / len(builds) * 1e3 if builds else 0.0, "ms")
        out["sphere.arc_map_evals"] = (
            sum(s.evals for s in builds) / len(builds) if builds else 0.0, "count")
        for metric, name in (("diametral_set", "sphere.diametral_set"),
                             ("star", "sphere.star"),
                             ("bisector", "sphere.bisector_points"),
                             ("is_flat", "sphere.is_flat")):
            out[f"sphere.{metric}_ms"] = (ms_per_call(name), "ms")
        outer = [s for s in timed if s.name in SPHERE_QUERIES
                 and (s.parent is None or s.parent.name not in SPHERE_QUERIES)]
        out["sphere.search_evals"] = (
            sum(s.evals for s in outer) / len(outer) if outer else 0.0, "count")
        for key in ("bisections", "bisect_iters", "bisect_capped", "golden_iters"):
            out[f"numerics.{key}"] = (self.counts[key] * per, "count")
        out["isometry.fingerprint_ms"] = (self_ms("isometry.fingerprint"), "ms")
        out["isometry.align_ms"] = (self_ms("isometry.align"), "ms")
        out["isometry.scan_ms"] = (self_ms("isometry.isometry_group"), "ms")
        out["isometry.group_evals"] = (evals("isometry.isometry_group"), "count")
        out["isometry.alignments"] = (
            sum(s.size for s in named("isometry.align")) * per, "count")
        out["charts.injectivity_ms"] = (self_ms("charts.four_distance_injectivity"), "ms")
        out["charts.injectivity_evals"] = (evals("charts.four_distance_injectivity"), "count")
        out["convexity.modulus_ms"] = (self_ms("convexity.modulus_of_convexity"), "ms")
        out["convexity.strict_ms"] = (self_ms("convexity.is_strictly_convex"), "ms")
        out["convexity.evals"] = (
            evals("convexity.modulus_of_convexity", "convexity.is_strictly_convex"), "count")
        out["curvature.normed_ms"] = (self_ms("curvature.normed_curvature"), "ms")
        out["curvature.corner_ratio_ms"] = (self_ms("curvature.corner_ratio"), "ms")
        out["curvature.evals"] = (
            evals("curvature.normed_curvature", "curvature.corner_ratio"), "count")
        out["verify.checks_ms"] = (self_ms("verify.run_reference_checks"), "ms")
        out["verify.evals"] = (evals("verify.run_reference_checks"), "count")
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write every span, times in seconds from the tracer's start."""
        rows = [[s.id, s.name, None if s.parent is None else s.parent.id, s.bundle,
                 s.start - self.t0, s.end - self.t0, s.self_s, s.evals, s.built]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header,
                       "columns": ["id", "name", "parent", "bundle", "start_s",
                                   "end_s", "self_s", "evals", "built"],
                       "spans": rows}, fh)
