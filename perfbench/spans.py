"""In-memory spans recorded around the benchmark's calls into faultcast.

The benchmark wraps every call into a layer in ``tracer.span(name)``.  With
tracing off the same call sites get a shared no-op context, so the untraced
and traced runs execute the same code.  Spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

_OFF = nullcontext()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    """Records (name, start, end, parent, run id) for every span entered."""

    def __init__(self, enabled: bool, run: str):
        self.enabled = enabled
        self.run = run
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else _OFF

    @contextmanager
    def _record(self, name: str):
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_root(self, root: str) -> List[Dict[str, float]]:
        """For each span named ``root``: self time summed by span name over
        the root and all its descendants."""
        own = self.self_times()
        root_of: Dict[int, int] = {}
        totals: Dict[int, Dict[str, float]] = {}
        for s in self.spans:  # parents are always recorded before children
            if s.name == root and s.parent is None:
                root_of[s.id] = s.id
                totals[s.id] = {}
            elif s.parent in root_of:
                root_of[s.id] = root_of[s.parent]
            else:
                continue
            bucket = totals[root_of[s.id]]
            bucket[s.name] = bucket.get(s.name, 0.0) + own[s.id]
        return list(totals.values())

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def median_self(self, root: str, name: str) -> float:
        """Median over ``root`` spans of the self time spent in ``name``."""
        passes = self.per_root(root)
        return statistics.median(p.get(name, 0.0) for p in passes) if passes else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")
