"""Per-layer tracing for the benchmark, done from outside the package.

A trace point names a public function by its defining module and
attribute.  :class:`Tracer` finds every binding of that function object in
every loaded ``phaseclone`` module (the defining module and each module
that did ``from .x import f``) and swaps in a wrapper while installed, so
calls made through any import path are seen.  Wrappers record spans
(name, start, end, parent, request id) in memory; self times are worked
out once the run ends.  A trace point whose function no longer exists is
reported as missing and its metrics read 0, so the benchmark keeps
running across refactors of the package.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

#: Operator dimensions reported per certificate and per profile sweep.
DIMS = (1, 2, 3, 4, 6, 9)

#: Grid size of the certificate calls counted as a re-check inside a search.
REGRID_POINTS = 4096


@dataclass(frozen=True)
class TracePoint:
    """One wrapped function; ``span`` is False for count-only points."""

    name: str
    module: str
    attr: str
    span: bool = True
    by_dim: bool = False


POINTS = (
    TracePoint("trigpoly.exact_div", "trigpoly", "exact_div"),
    TracePoint("trigpoly.factorize", "trigpoly", "factorize"),
    TracePoint("trigpoly.contains_root", "trigpoly", "contains_root"),
    # mul runs hundreds of times per request; a count keeps its overhead low.
    TracePoint("trigpoly.mul", "trigpoly", "mul", span=False),
    TracePoint("operators.validate", "operators", "validate_triple"),
    TracePoint("operators.tensor", "operators", "tensor"),
    TracePoint("operators.hermiticity", "operators", "is_hermitian_preserving"),
    TracePoint("positivity.cert", "positivity", "is_positive_over_phase", by_dim=True),
    TracePoint("positivity.profile", "positivity", "min_eigenvalue_profile", by_dim=True),
    TracePoint("analysis.analyze", "analysis", "analyze"),
    TracePoint("analysis.classify", "analysis", "classify"),
    TracePoint("analysis.phase_dep", "analysis", "output_depends_on_phase"),
    TracePoint("search.theorem_search", "search", "theorem_search"),
    TracePoint("search.sample", "search", "generate_case2_candidate"),
    TracePoint("search.assemble", "search", "assemble_triple"),
    TracePoint("pmap.parse", "pmap", "parse_pmap"),
    TracePoint("cli.main", "cli", "main"),
)

#: Per-layer metrics in print order: name -> unit.  Times and counts are
#: per traced request (one CLI call, or one ``theorem_search`` call).
PER_LAYER = {
    "trigpoly.exact_div_s": "s/req",
    "trigpoly.exact_div_calls": "count/req",
    "trigpoly.not_divisible": "count/req",
    "trigpoly.factorize_s": "s/req",
    "trigpoly.contains_root_s": "s/req",
    "trigpoly.mul_calls": "count/req",
    "operators.validate_s": "s/req",
    "operators.tensor_s": "s/req",
    "operators.hermiticity_s": "s/req",
    **{f"positivity.cert_s.d{d}": "s/req" for d in DIMS},
    **{f"positivity.cert_calls.d{d}": "count/req" for d in DIMS},
    "positivity.refined_ratio": "ratio",
    **{f"positivity.profile_s.d{d}": "s/req" for d in DIMS},
    "analysis.analyze_s": "s/req",
    "analysis.classify_s": "s/req",
    "analysis.phase_dep_s": "s/req",
    "search.sample_s": "s/req",
    "search.assemble_s": "s/req",
    "search.accept_ratio": "ratio",
    "search.regrid_calls": "count/req",
    "pmap.parse_s": "s/req",
    "cli.self_s": "s/req",
    "trace.overhead_ratio": "ratio",
}


def _grid_arg(fn: Callable) -> Callable:
    """Return a function giving the grid size a certificate call uses, or None."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: None
    if "n" not in sig.parameters:
        return lambda args, kwargs: None

    def grid(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n"]

    return grid


class Tracer:
    """Span and count recorder over the trace points of a loaded package."""

    def __init__(self, package: str = "phaseclone"):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.requests = 0
        self._stack: list[int] = []
        self._request: int | None = None
        self._patches = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(package + ".")]
        for point in POINTS:
            owner = sys.modules.get(f"{package}.{point.module}")
            fn = getattr(owner, point.attr, None)
            if not callable(fn):
                self.missing.append(point.name)
                continue
            wrapper = self._wrap(point, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))

    def _wrap(self, point: TracePoint, fn: Callable) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        name = point.name
        if not point.span:
            def count_only(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return count_only

        is_cert = name == "positivity.cert"
        grid = _grid_arg(fn) if is_cert else None

        def wrapper(*args, **kwargs):
            label = name
            if point.by_dim:
                label = f"{name}.d{getattr(args[0], 'dim', 0)}"
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self._request])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                counts[f"{name}.raised.{type(err).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if is_cert:
                counts["positivity.cert.calls"] += 1
                if getattr(result, "positive", False):
                    counts["positivity.cert.positive"] += 1
                n = grid(args, kwargs)
                if n is not None and n >= REGRID_POINTS and self._inside("search.theorem_search"):
                    counts["search.regrid"] += 1
            return result

        return wrapper

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextmanager
    def request(self):
        """Install the wrappers for one request and open its root span."""
        self._request = self.requests
        self.requests += 1
        for mod, attr, _fn, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        idx = len(self.spans)
        self.spans.append(["request", 0.0, 0.0, -1, self._request])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end
            for mod, attr, fn, _wrapper in self._patches:
                setattr(mod, attr, fn)
            self._request = None

    def self_times(self) -> dict:
        """Total self time and span count per span name.

        Self time is a span's duration minus the time its child spans
        cover; calls are nested on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _parent, _req), covered in zip(self.spans, child):
            totals[name][0] += (end - start) - covered
            totals[name][1] += 1
        return dict(totals)

    def per_layer(self, overhead_ratio: float) -> dict:
        """Every metric of :data:`PER_LAYER`, normalised per traced request."""
        n = max(self.requests, 1)
        totals = self.self_times()
        c = self.counts

        def self_s(span: str) -> float:
            return totals.get(span, (0.0, 0))[0] / n

        def calls(span: str) -> int:
            return totals.get(span, (0.0, 0))[1]

        cert_calls = c["positivity.cert.calls"]
        samples = calls("search.sample")
        rejected = c["search.sample.raised.SampleRejected"]
        values = {
            "trigpoly.exact_div_s": self_s("trigpoly.exact_div"),
            "trigpoly.exact_div_calls": calls("trigpoly.exact_div") / n,
            "trigpoly.not_divisible": c["trigpoly.exact_div.raised.NotDivisibleError"] / n,
            "trigpoly.factorize_s": self_s("trigpoly.factorize"),
            "trigpoly.contains_root_s": self_s("trigpoly.contains_root"),
            "trigpoly.mul_calls": c["trigpoly.mul"] / n,
            "operators.validate_s": self_s("operators.validate"),
            "operators.tensor_s": self_s("operators.tensor"),
            "operators.hermiticity_s": self_s("operators.hermiticity"),
            "positivity.refined_ratio": c["positivity.cert.positive"] / cert_calls if cert_calls else 0.0,
            "analysis.analyze_s": self_s("analysis.analyze"),
            "analysis.classify_s": self_s("analysis.classify"),
            "analysis.phase_dep_s": self_s("analysis.phase_dep"),
            "search.sample_s": self_s("search.sample"),
            "search.assemble_s": self_s("search.assemble"),
            "search.accept_ratio": (samples - rejected) / samples if samples else 0.0,
            "search.regrid_calls": c["search.regrid"] / n,
            "pmap.parse_s": self_s("pmap.parse"),
            "cli.self_s": self_s("cli.main"),
            "trace.overhead_ratio": overhead_ratio,
        }
        for d in DIMS:
            values[f"positivity.cert_s.d{d}"] = self_s(f"positivity.cert.d{d}")
            values[f"positivity.cert_calls.d{d}"] = calls(f"positivity.cert.d{d}") / n
            values[f"positivity.profile_s.d{d}"] = self_s(f"positivity.profile.d{d}")
        return {name: values[name] for name in PER_LAYER}
