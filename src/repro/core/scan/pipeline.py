"""Explicit staged scan pipelines.

``execute`` used to be a chain of flag branches; it now *assembles* a
:class:`ScanPipeline` — an ordered list of stages, each of which either
produces the scan's final result or declines and passes control to the
next stage.  The assembled object is inspectable (``describe()`` names
the stages in order), so tests and ``repro info`` can state exactly
which path a request takes instead of re-deriving it from flags.

Two stage shapes exist today:

* :class:`PrefilterStage` — packed trigram screening
  (:mod:`.prefilter`).  When verifying the candidate windows costs less
  than the bare kernel's scan, it verifies them itself and
  short-circuits the pipeline; otherwise (a match-dense block) it
  records its screening statistics and declines, letting the kernel
  stage scan the whole block.
* :class:`BackendStage` — the terminal stage: one registered backend /
  kernel doing the exact scan.  It never declines.

The stage protocol is one method, ``run(notes) -> result | None``:
return the final result to stop the pipeline, or ``None`` to pass.
``notes`` is a scratch dict shared along the pipeline; whatever lands
there is merged into the outcome's stats by the driver, so a declining
stage still gets its telemetry reported.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ...dfa.automaton import DFAError
from .prefilter import PackedPrefilter

__all__ = ["ScanPipeline", "PrefilterStage", "BackendStage"]


class ScanPipeline:
    """An ordered list of stages; the first stage to return a result
    wins.  The terminal stage must always return one."""

    def __init__(self, stages: List) -> None:
        if not stages:
            raise DFAError("a scan pipeline needs at least one stage")
        self.stages = stages
        #: Scratch space shared along the run; the driver merges it
        #: into the outcome's stats.
        self.notes: Dict[str, object] = {}

    def run(self):
        for stage in self.stages:
            result = stage.run(self.notes)
            if result is not None:
                return result
        raise DFAError(
            f"pipeline {self.describe()!r} ended without a result; the "
            f"terminal stage must always produce one")

    @property
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def describe(self) -> str:
        return " -> ".join(self.stage_names)

    def __repr__(self) -> str:
        return f"ScanPipeline({self.describe()})"


class PrefilterStage:
    """Screen one block; verify candidate windows or decline.

    ``run_segments(arr, segments, pstats)`` is supplied by the driver
    and must return the final outcome for the (possibly empty) disjoint
    candidate windows — counting through a kernel, or replaying the
    reference event walk per window.  ``kernel_gpb`` is that verifier's
    cost in gathers per byte, against which the screen prices its
    windows.  On ``fall_through`` the stage records its stats in
    ``notes`` and declines, so the bare kernel stage scans the whole
    block.
    """

    name = "prefilter"

    def __init__(self, prefilter: PackedPrefilter, arr: np.ndarray,
                 run_segments: Callable, kernel_gpb: float) -> None:
        self.prefilter = prefilter
        self.arr = arr
        self.run_segments = run_segments
        self.kernel_gpb = kernel_gpb

    def run(self, notes: Dict[str, object]):
        res = self.prefilter.screen(self.arr, self.kernel_gpb)
        pstats = {
            "mask_bytes": self.prefilter.mask_bytes,
            "stride": self.prefilter.stride,
            "positions": res.positions,
            "hits": res.hits,
            "segments": int(len(res.segments)),
            "candidate_bytes": res.candidate_bytes,
            "candidate_fraction": (res.candidate_bytes / self.arr.size
                                   if self.arr.size else 0.0),
            "fall_through": res.fall_through,
        }
        if res.fall_through:
            notes["prefilter"] = pstats
            return None
        return self.run_segments(self.arr, res.segments, pstats)


class BackendStage:
    """Terminal stage: one registered backend running the full scan."""

    def __init__(self, name: str, run: Callable) -> None:
        self.name = name
        self._run = run

    def run(self, notes: Dict[str, object]):
        return self._run()
