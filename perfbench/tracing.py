"""In-memory span recorder for the traced benchmark run.

A span is one call the benchmark makes into a layer of trunctail: its
name, start and end on the perf_counter clock, the span that caused it,
and the benchmark operation it belongs to.  Counts taken at the same
boundary (pairs kept, thresholds scanned) ride on the span.  Spans stay
in memory until the run ends; nothing here touches the package.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `op` tags every span with its operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.named(name)]

    def per_op(self, name: str) -> dict[int, float]:
        """Total duration of the named spans in each operation."""
        totals: dict[int, float] = {}
        for s in self.named(name):
            totals[s.op] = totals.get(s.op, 0.0) + s.duration
        return totals

    def within(self, ancestor: Span, names) -> float:
        """Summed duration of the named spans nested anywhere under ancestor."""
        total = 0.0
        for s in self.spans[ancestor.id + 1:]:
            if s.name not in names:
                continue
            up = s.parent
            while up is not None and up > ancestor.id:
                up = self.spans[up].parent
            if up == ancestor.id:
                total += s.duration
        return total
