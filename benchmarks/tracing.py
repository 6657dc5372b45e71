"""Spans recorded from the benchmark's own files.

A span has a name, a start and end (``time.perf_counter`` seconds), the id
of the span that was open when it started, and the run id shared by every
span of one run. Spans are kept in memory and written out once, when the run
ends. With recording off, ``span`` still measures its own duration (the
timed run needs phase times) but stores nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, record: bool):
        self.run_id = run_id
        self.record = record
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, time.perf_counter(), 0.0, parent, self.run_id)
        self._next_id += 1
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self.record:
                self.spans.append(span)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every recorded span with this name, in start order."""
        return [s.seconds for s in sorted(self.spans, key=lambda s: s.start) if s.name == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def children_of(self, name: str, child: str) -> list[list[float]]:
        """Per span named ``name``, the durations of its direct children named ``child``."""
        parents = {s.id: [] for s in self.spans if s.name == name}
        for s in sorted(self.spans, key=lambda s: s.start):
            if s.name == child and s.parent in parents:
                parents[s.parent].append(s.seconds)
        return list(parents.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50.0)
