"""In-process spans recorded by the benchmark around library entry points.

Tracing is the benchmark's own: :meth:`Tracer.wrap` replaces a public
function or method with a timed wrapper for the length of a traced run
and :meth:`Tracer.restore` puts the original back.  No span is added
inside the program.  A span's self time is its duration minus the time
its (same-thread, properly nested) child spans cover.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, List, Optional, Tuple

from perfbench.common import median


class Span:
    __slots__ = ("name", "start", "duration", "children_s", "label")

    def __init__(self, name: str, label: Optional[str]) -> None:
        self.name = name
        self.label = label
        self.start = 0.0
        self.duration = 0.0
        self.children_s = 0.0

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Open spans; the wrapped calls all run on one thread.
        self._stack: List[Span] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def timed(self, name: str, fn: Callable, label: Optional[Callable] = None):
        """``fn`` wrapped in a span; ``label(*args, **kwargs)`` names a
        sub-series (e.g. which submodel)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, label(*args, **kwargs) if label else None)
            stack = self._stack
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.duration = time.perf_counter() - span.start
                stack.pop()
                if stack:
                    stack[-1].children_s += span.duration
                self.spans.append(span)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             label: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its timed wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, label))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # Aggregation ---------------------------------------------------------

    def of(self, name: str, label: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name and (label is None or s.label == label)
        ]

    def count(self, name: str) -> int:
        return len(self.of(name))

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.of(name))

    def p50_ms(self, name: str, label: Optional[str] = None) -> float:
        spans = self.of(name, label)
        return 1000.0 * median([s.duration for s in spans]) if spans else 0.0
