"""In-memory spans around the calls the benchmark makes into each layer.

A span has a name (the layer call it wraps), a start and an end on the
``perf_counter`` clock, the id of its parent span and the id of the
request it belongs to.  Spans are appended to a list while the run
goes and written out once at the end (:meth:`Tracer.dump`), so tracing
costs two clock reads and one append per span.

A span's *self time* is its duration minus the part of its interval
that its children cover; overlapping children are merged first, and a
child reaching outside its parent only counts inside the parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .stats import quantile


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    kids: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - covered((s.start, s.end),
                                            kids.get(s.span_id, ()))
            for s in spans}


class Tracer:
    """Span recorder; a disabled tracer records nothing and its
    :meth:`span` costs one attribute test."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._next = 1

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request: Optional[int] = None) -> Iterator[Optional[int]]:
        """Time the body as one span; yields the span id, for children."""
        if not self.enabled:
            yield None
            return
        span_id = self._next
        self._next += 1
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(Span(span_id, name, start,
                                   time.perf_counter(), parent, request))

    def reserve(self) -> int:
        """A span id for a span recorded later with :meth:`record`, so
        its children can name it as their parent while it runs."""
        span_id = self._next
        self._next += 1
        return span_id

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None,
               request: Optional[int] = None,
               span_id: Optional[int] = None) -> int:
        """Add a span whose interval was measured elsewhere (an
        asynchronous request's send and reply times)."""
        if span_id is None:
            span_id = self.reserve()
        if self.enabled:
            self.spans.append(Span(span_id, name, start, end, parent,
                                   request))
        return span_id

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, median duration and median self time
        (milliseconds)."""
        own = self_times(self.spans)
        by_name: Dict[str, Tuple[List[float], List[float]]] = {}
        for s in self.spans:
            durs, selfs = by_name.setdefault(s.name, ([], []))
            durs.append(s.duration)
            selfs.append(own[s.span_id])
        return {name: {"count": len(durs),
                       "p50_ms": quantile(durs, 0.5) * 1e3,
                       "self_p50_ms": quantile(selfs, 0.5) * 1e3,
                       "self_total_ms": sum(selfs) * 1e3}
                for name, (durs, selfs) in sorted(by_name.items())}

    def p50_ms(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0 if none)."""
        durs = [s.duration for s in self.spans if s.name == name]
        return quantile(durs, 0.5) * 1e3 if durs else 0.0

    def dump(self, path, extra: Optional[Dict[str, object]] = None) -> None:
        """Write every span plus the per-name table as JSON."""
        payload = dict(extra or {})
        payload["layers"] = self.layer_table()
        payload["spans"] = [
            {"id": s.span_id, "name": s.name, "start": s.start,
             "end": s.end, "parent": s.parent, "request": s.request}
            for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
