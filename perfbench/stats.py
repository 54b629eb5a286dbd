"""Order statistics and run accounting used by every workload.

Quantiles are nearest-rank over the sorted samples (no interpolation),
so a reported percentile is always a latency that was observed.  A tail
percentile is only meaningful when enough samples lie beyond it:
:func:`tail_supported` applies the rule "at least ten samples beyond
the percentile" and the run output records the sample count next to
every percentile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Samples that must lie beyond a percentile before it is trusted.
MIN_TAIL_SAMPLES = 10


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile: the smallest sample with at least
    ``q * n`` samples at or below it.  ``samples`` need not be sorted."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_supported(n: int, q: float) -> bool:
    """True when at least :data:`MIN_TAIL_SAMPLES` of ``n`` samples lie
    strictly beyond the nearest-rank ``q``-quantile."""
    if n < 1:
        return False
    rank = max(1, math.ceil(q * n - 1e-9))
    return n - rank >= MIN_TAIL_SAMPLES


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, p95/p99 and sample count of ``samples``."""
    n = len(samples)
    if n == 0:
        return {"n": 0}
    return {
        "n": n,
        "median": quantile(samples, 0.5),
        "q1": quantile(samples, 0.25),
        "q3": quantile(samples, 0.75),
        "p95": quantile(samples, 0.95),
        "p95_supported": tail_supported(n, 0.95),
        "p99": quantile(samples, 0.99),
        "p99_supported": tail_supported(n, 0.99),
        "max": max(samples),
    }


@dataclass
class Tally:
    """Operations attempted and failed in one run.  A failure is an
    error reply, a refusal, a timeout or a wrong result; each is
    counted under its reason."""

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    examples: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, detail: str = "") -> None:
        self.attempted += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if detail and len(self.examples) < 5:
            self.examples.append(f"{reason}: {detail}")

    def check(self, ok: bool, reason: str, detail: str = "") -> bool:
        """Count one operation whose result was ``ok`` or wrong."""
        if ok:
            self.ok()
        else:
            self.fail(reason, detail)
        return ok

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
