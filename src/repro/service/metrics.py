"""Service observability: counters, latency histograms, reload stats.

The daemon is a long-running data-plane process; the paper's throughput
tables become *live* numbers here.  :class:`ServiceMetrics` aggregates

* request/byte/match counters, per verb and total;
* per-backend latency histograms with p50/p95/p99 (log-spaced buckets,
  so the footprint is fixed no matter how many requests flow through);
* reload counts, warm (artifact-cache hit) reload counts and swap
  latency;
* admission-control outcomes (rejections, timeouts) and the pending
  queue's depth high-water mark;
* per-tenant request/byte/match counters, per-action verdict counts
  and the verdict-path latency histogram — keyed by tenant name only,
  so tenants can audit their own traffic without seeing anyone else's.

Everything is guarded by one lock — the recording paths are a handful
of integer updates, so contention is negligible next to a scan — and
``snapshot()`` returns a plain JSON-serializable dict, which is exactly
what the ``STATS`` verb and ``repro serve --metrics-json`` emit.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional

__all__ = ["LatencyHistogram", "ServiceMetrics"]


class LatencyHistogram:
    """Fixed-footprint latency histogram with quantile estimation.

    Buckets are spaced geometrically from 1 µs to ~537 s (factor 2**0.25
    per bucket, ~19 % relative resolution — plenty for p50/p95/p99 of a
    network service).  Quantiles return the geometric midpoint of the
    bucket holding the requested rank, so the error is bounded by the
    bucket ratio regardless of sample count.
    """

    _MIN = 1e-6
    _FACTOR = 2.0 ** 0.25
    _BUCKETS = 116  # _MIN * _FACTOR**115 ≈ 4.4e2 s

    def __init__(self) -> None:
        self._counts = [0] * self._BUCKETS
        self.count = 0
        self.sum_seconds = 0.0
        self.min_seconds: Optional[float] = None
        self.max_seconds: Optional[float] = None

    def _bucket(self, seconds: float) -> int:
        if seconds <= self._MIN:
            return 0
        idx = int(math.log(seconds / self._MIN) / math.log(self._FACTOR))
        return min(idx + 1, self._BUCKETS - 1)

    def record(self, seconds: float) -> None:
        self._counts[self._bucket(seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds
        if self.min_seconds is None or seconds < self.min_seconds:
            self.min_seconds = seconds
        if self.max_seconds is None or seconds > self.max_seconds:
            self.max_seconds = seconds

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile in seconds (0 when empty)."""
        if not 0 < q <= 1:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= rank:
                if i == 0:
                    return self._MIN
                lo = self._MIN * self._FACTOR ** (i - 1)
                return lo * math.sqrt(self._FACTOR)
        return self.max_seconds or 0.0

    @property
    def mean_seconds(self) -> float:
        return self.sum_seconds / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_seconds * 1e3,
            "p50_ms": self.quantile(0.50) * 1e3,
            "p95_ms": self.quantile(0.95) * 1e3,
            "p99_ms": self.quantile(0.99) * 1e3,
            "min_ms": (self.min_seconds or 0.0) * 1e3,
            "max_ms": (self.max_seconds or 0.0) * 1e3,
        }

    # -- pool merging --------------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """Picklable raw state (bucket counts, not quantiles) so pool
        workers can ship their histograms to the gateway losslessly —
        merged quantiles are computed from summed buckets, which is
        exact at bucket resolution, unlike averaging per-worker p99s."""
        return {
            "counts": list(self._counts),
            "count": self.count,
            "sum_seconds": self.sum_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
        }

    def absorb(self, state: Dict[str, object]) -> None:
        """Merge another histogram's :meth:`state` into this one."""
        for i, c in enumerate(state.get("counts", ())):
            if i >= self._BUCKETS:
                break
            self._counts[i] += int(c)
        self.count += int(state.get("count", 0))
        self.sum_seconds += float(state.get("sum_seconds", 0.0))
        lo = state.get("min_seconds")
        if lo is not None and (self.min_seconds is None
                               or lo < self.min_seconds):
            self.min_seconds = lo
        hi = state.get("max_seconds")
        if hi is not None and (self.max_seconds is None
                               or hi > self.max_seconds):
            self.max_seconds = hi


class ServiceMetrics:
    """All of the daemon's counters behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._verbs: Dict[str, int] = {}
        self._backends: Dict[str, LatencyHistogram] = {}
        self._swap = LatencyHistogram()
        self.requests_total = 0
        self.bytes_scanned = 0
        self.matches = 0
        self.errors = 0
        self.rejected = 0
        self.timeouts = 0
        self.reloads = 0
        self.warm_reloads = 0
        self.flow_evictions = 0
        self.queue_depth = 0
        self.queue_high_water = 0
        # Per-tenant isolation: every counter below is keyed by tenant
        # name and only ever touched by that tenant's requests, so one
        # tenant's traffic can never leak into another's STATS view.
        self._tenants: Dict[str, Dict[str, object]] = {}

    # -- recording -----------------------------------------------------------------

    def record_request(self, verb: str) -> None:
        with self._lock:
            self.requests_total += 1
            self._verbs[verb] = self._verbs.get(verb, 0) + 1

    def record_scan(self, backend: str, seconds: float, nbytes: int,
                    matches: int) -> None:
        with self._lock:
            self.bytes_scanned += nbytes
            self.matches += matches
            hist = self._backends.get(backend)
            if hist is None:
                hist = self._backends[backend] = LatencyHistogram()
            hist.record(seconds)

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_reload(self, seconds: float, warm: bool) -> None:
        with self._lock:
            self.reloads += 1
            if warm:
                self.warm_reloads += 1
            self._swap.record(seconds)

    def record_flow_evictions(self, count: int) -> None:
        if count:
            with self._lock:
                self.flow_evictions += count

    def _tenant_slot(self, tenant: str) -> Dict[str, object]:
        slot = self._tenants.get(tenant)
        if slot is None:
            slot = self._tenants[tenant] = {
                "requests": 0, "bytes_scanned": 0, "matches": 0,
                "actions": {}, "verdict_latency": LatencyHistogram()}
        return slot

    def record_tenant_request(self, tenant: str, nbytes: int,
                              matches: int) -> None:
        """One tenant-scoped SCAN/FLOW served."""
        with self._lock:
            slot = self._tenant_slot(tenant)
            slot["requests"] += 1
            slot["bytes_scanned"] += nbytes
            slot["matches"] += matches

    def record_verdict(self, tenant: str, action: str,
                       seconds: float) -> None:
        """One packet verdict: per-action count + policy-path latency
        (attribution + rule evaluation, excluding the scan itself)."""
        with self._lock:
            slot = self._tenant_slot(tenant)
            actions = slot["actions"]
            actions[action] = actions.get(action, 0) + 1
            slot["verdict_latency"].record(seconds)

    def forget_tenant(self, tenant: str) -> None:
        """Drop a deleted tenant's counters (its name may be reused)."""
        with self._lock:
            self._tenants.pop(tenant, None)

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            if depth > self.queue_high_water:
                self.queue_high_water = depth

    # -- pool merging --------------------------------------------------------------

    _COUNTER_FIELDS = ("requests_total", "bytes_scanned", "matches",
                       "errors", "rejected", "timeouts", "reloads",
                       "warm_reloads", "flow_evictions")

    def state(self) -> Dict[str, object]:
        """Picklable raw state for cross-process aggregation: every
        counter plus histogram *buckets* (see
        :meth:`LatencyHistogram.state`).  This is what a pool worker
        returns for STATS; the gateway merges all worker states with
        :meth:`absorb` so pool-wide quantiles are computed over the
        union of samples."""
        with self._lock:
            return {
                "verbs": dict(self._verbs),
                "counters": {name: getattr(self, name)
                             for name in self._COUNTER_FIELDS},
                "queue_depth": self.queue_depth,
                "queue_high_water": self.queue_high_water,
                "swap": self._swap.state(),
                "backends": {name: hist.state()
                             for name, hist in self._backends.items()},
                "tenants": {
                    name: {
                        "requests": slot["requests"],
                        "bytes_scanned": slot["bytes_scanned"],
                        "matches": slot["matches"],
                        "actions": dict(slot["actions"]),
                        "verdict_latency":
                            slot["verdict_latency"].state(),
                    }
                    for name, slot in self._tenants.items()},
            }

    def absorb(self, state: Dict[str, object]) -> None:
        """Merge one :meth:`state` into this instance: counters sum,
        histogram buckets sum, min/max extremes win, queue depth sums
        (pool-wide pending) while high-water takes the max."""
        with self._lock:
            for verb, n in state.get("verbs", {}).items():
                self._verbs[verb] = self._verbs.get(verb, 0) + int(n)
            for name, value in state.get("counters", {}).items():
                if name in self._COUNTER_FIELDS:
                    setattr(self, name, getattr(self, name) + int(value))
            self.queue_depth += int(state.get("queue_depth", 0))
            self.queue_high_water = max(
                self.queue_high_water,
                int(state.get("queue_high_water", 0)))
            self._swap.absorb(state.get("swap", {}))
            for name, hist_state in state.get("backends", {}).items():
                hist = self._backends.get(name)
                if hist is None:
                    hist = self._backends[name] = LatencyHistogram()
                hist.absorb(hist_state)
            for name, incoming in state.get("tenants", {}).items():
                slot = self._tenant_slot(name)
                slot["requests"] += int(incoming.get("requests", 0))
                slot["bytes_scanned"] += \
                    int(incoming.get("bytes_scanned", 0))
                slot["matches"] += int(incoming.get("matches", 0))
                actions = slot["actions"]
                for action, n in incoming.get("actions", {}).items():
                    actions[action] = actions.get(action, 0) + int(n)
                slot["verdict_latency"].absorb(
                    incoming.get("verdict_latency", {}))

    @classmethod
    def merged_snapshot(cls, states: List[Dict[str, object]]
                        ) -> Dict[str, object]:
        """One pool-wide :meth:`snapshot` over many :meth:`state`
        payloads (gateway + workers)."""
        merged = cls()
        for state in states:
            merged.absorb(state)
        return merged.snapshot()

    # -- reading -------------------------------------------------------------------

    def backend_names(self) -> List[str]:
        with self._lock:
            return list(self._backends)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view of every counter and histogram."""
        with self._lock:
            return {
                "requests": dict(self._verbs, total=self.requests_total),
                "bytes_scanned": self.bytes_scanned,
                "matches": self.matches,
                "errors": self.errors,
                "admission": {
                    "rejected": self.rejected,
                    "timeouts": self.timeouts,
                    "queue_depth": self.queue_depth,
                    "queue_high_water": self.queue_high_water,
                },
                "reloads": {
                    "count": self.reloads,
                    "warm": self.warm_reloads,
                    "swap_latency": self._swap.snapshot(),
                },
                "flow_evictions": self.flow_evictions,
                "tenants": {
                    name: {
                        "requests": slot["requests"],
                        "bytes_scanned": slot["bytes_scanned"],
                        "matches": slot["matches"],
                        "actions": dict(slot["actions"]),
                        "verdict_latency":
                            slot["verdict_latency"].snapshot(),
                    }
                    for name, slot in self._tenants.items()},
                "backends": {name: hist.snapshot()
                             for name, hist in self._backends.items()},
            }
