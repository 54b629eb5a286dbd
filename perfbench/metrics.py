"""The result every workload returns.  The gated metrics, by name and
unit, are listed in ``BENCHMARK.json``; ``run.py`` reads them there."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .stats import Tally, summarize

#: (name, unit) of end-to-end numbers printed and recorded but not in
#: the result line: tail latencies, whose run-to-run spread on
#: ``flow_policy`` is wider than any bound the benchmark could gate on.
REPORTED: List[Tuple[str, str]] = [
    ("p95_ms", "ms"),
    ("p99_ms", "ms"),
]


class SetupError(Exception):
    """The generated inputs break an assumption the checks rely on."""


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    #: Raw samples per metric (median/quartiles/count go to the run
    #: metadata) and free-form workload parameters.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    #: Why the run's latencies are suspect (the open-loop sender fell
    #: behind its schedule); empty when they are not.  A flagged run
    #: still reports its metrics, and the flag goes to its metadata.
    flag: str = ""

    def sample_summary(self) -> Dict[str, Dict[str, float]]:
        return {k: summarize(v) for k, v in self.samples.items()}
