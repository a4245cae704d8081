"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of the package: name, trace identifier (the trial or request it
belongs to), parent span, start and end on the ``perf_counter`` clock, and
counts taken at the same boundary. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from benchstats import self_time


@dataclass
class Span:
    name: str
    trace_id: str
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @property
    def trace_id(self) -> str | None:
        """Trace identifier of the innermost open span, if any."""
        return self.spans[self._open[-1]].trace_id if self._open else None

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        """Record a span; without ``trace_id`` it joins its parent's trace."""
        parent = self._open[-1] if self._open else None
        record = Span(name, trace_id or self.trace_id or name,
                      len(self.spans), parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> dict[int, float]:
        kids = self.children()
        return {s.span_id: self_time(s.start, s.end,
                                     [(c.start, c.end)
                                      for c in kids.get(s.span_id, ())])
                for s in self.spans}

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
