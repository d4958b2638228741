"""Outside-in tracing: time the package's layers without editing it.

A layer is one public function, looked up by name in the module that calls
it. `Tracer.patch` replaces that module attribute with a wrapper that records
a span (layer, start, end, parent span), so every call made through that
lookup site is timed; `Tracer.restore` puts the original objects back. The
package under test is never modified on disk, and only one thread is traced:
Pool workers cannot be seen, so traced passes must run serially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    points: int = 0
    key: object = None  # identity of the input, for repeated-work accounting


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0  # span time not covered by child spans
    points: int = 0
    dup_s: float = 0.0  # time in calls whose input key repeats an earlier call


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def call(self, layer: str, fn: Callable, args=(), kwargs=None,
             points: Callable | None = None, key: Callable | None = None):
        """Run fn(*args, **kwargs) inside a span of `layer`."""
        kwargs = kwargs or {}
        parent = self._open[-1] if self._open else -1
        span = Span(layer, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if points is not None:
                span.points = points(*args, **kwargs)
            if key is not None:
                span.key = key(*args, **kwargs)

    def patch(self, module, name: str, layer: str,
              points: Callable | None = None, key: Callable | None = None) -> None:
        """Route every lookup of `module.name` through a span of `layer`."""
        original = getattr(module, name)

        def traced(*args, **kwargs):
            return self.call(layer, original, args, kwargs, points, key)

        self._patches.append((module, name, original))
        setattr(module, name, traced)

    def restore(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def stats(self) -> dict[str, LayerStats]:
        """Per-layer totals; self time subtracts each span's direct children."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        out: dict[str, LayerStats] = {}
        seen: set[tuple[str, object]] = set()
        for i, span in enumerate(self.spans):
            st = out.setdefault(span.layer, LayerStats())
            dur = span.end - span.start
            st.calls += 1
            st.s += dur
            st.self_s += dur - child_s[i]
            st.points += span.points
            if span.key is not None:
                if (span.layer, span.key) in seen:
                    st.dup_s += dur
                seen.add((span.layer, span.key))
        return out
