"""In-memory spans for the traced replay.

A span is one timed call into a library layer, recorded from the benchmark's
side of the call.  Spans nest: each carries the id of the span that was open
when it started.  Nothing is written while the replay runs; the caller dumps
``Tracer.spans`` once the run is over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    items: int = 0
    tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer._open.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Stands in for a span when tracing is off; writes to it are dropped."""

    name = ""
    items = 0

    def __setattr__(self, key, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a shared no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str, items: int = 0):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, 0.0, items=items, tracer=self)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children are
    merged first, so time covered twice is subtracted once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.seconds - covered
    return out


def totals(spans: list[Span]) -> dict[str, tuple[float, int, int]]:
    """Per span name: summed self time, number of calls, summed items."""
    own = self_times(spans)
    out: dict[str, tuple[float, int, int]] = {}
    for span in spans:
        seconds, calls, items = out.get(span.name, (0.0, 0, 0))
        out[span.name] = (seconds + own[span.id], calls + 1, items + span.items)
    return out


def as_records(spans: list[Span]) -> list[dict]:
    own = self_times(spans)
    return [
        {
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "self": own[s.id],
            "items": s.items,
        }
        for s in spans
    ]
