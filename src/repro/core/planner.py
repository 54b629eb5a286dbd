"""Local-store layout planner (paper Figure 3).

A DFA tile must fit everything into the SPE's 256 KB local store: code and
stack (the paper reserves 34 KB), two input buffers (double buffering), and
the state-transition table, which takes whatever is left.  The trade-off is
buffer size vs. dictionary size:

=======  ================  ==========  ===========
Case     input buffers     STT space   max states
=======  ================  ==========  ===========
1        2 × 16 KB         190 KB      1520
2        2 × 8 KB          206 KB      1648
3        2 × 4 KB          214 KB      1712
=======  ================  ==========  ===========

(32-symbol alphabet, 128-byte rows.)  :func:`plan_tile` computes the layout
for any buffer size and alphabet width; :data:`FIGURE3_CASES` are the three
configurations of the figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..cell.local_store import LS_SIZE, LocalStore
from .engine import HOT_BUDGET_BYTES
from .stt import row_stride

__all__ = ["TilePlan", "plan_tile", "FIGURE3_CASES", "PlanError",
           "CODE_STACK_BYTES", "COUNTER_AREA_BYTES", "STATE_AREA_BYTES",
           "ExecutionPlan", "plan_backend", "SERIAL_BYTE_CEILING",
           "CACHE_BUDGET_BYTES", "ScreenShape", "VERIFY_KERNELS",
           "gathers_per_byte", "screen_cost", "verify_cost",
           "expected_candidates", "SCREEN_GATHERS_PER_SAMPLE",
           "SCREEN_GATHER_COST", "WINDOW_COST",
           "PARTIAL_PAIR_GATHERS_PER_BYTE", "SERIAL_GATHERS_PER_BYTE"]

#: Local-store bytes the paper reserves for code and stack.
CODE_STACK_BYTES = 34 * 1024

#: Per-stream counter slots (16 streams × 16 bytes), carved out of the
#: code/stack reservation.
COUNTER_AREA_BYTES = 256

#: Per-stream saved-state slots (16 × 16 bytes): DFA state pointers persist
#: here between input blocks so matches spanning block boundaries are kept.
STATE_AREA_BYTES = 256


class PlanError(Exception):
    """Raised when a requested layout cannot fit the local store."""


@dataclass(frozen=True)
class TilePlan:
    """A concrete local-store layout for one DFA tile.

    Addresses are absolute local-store offsets.  The STT base is aligned to
    the row stride so state pointers have zero low bits (the flag trick).
    """

    alphabet_size: int
    buffer_bytes: int
    num_buffers: int
    code_stack_bytes: int
    counters_base: int
    states_base: int
    stt_base: int
    stt_capacity: int
    buffer_bases: Tuple[int, ...]

    @property
    def max_states(self) -> int:
        """Largest DFA this layout can hold."""
        return self.stt_capacity // row_stride(self.alphabet_size)

    @property
    def stride(self) -> int:
        return row_stride(self.alphabet_size)

    def describe(self) -> str:
        """ASCII rendering in the style of Figure 3."""
        lines = [
            f"tile layout ({self.alphabet_size}-symbol alphabet, "
            f"{self.stride}-byte rows)",
            f"  code+stack : {self.code_stack_bytes / 1024:6.1f} KB "
            f"(counters at {self.counters_base:#x})",
            f"  STT        : {self.stt_capacity / 1024:6.1f} KB at "
            f"{self.stt_base:#x} -> max {self.max_states} states",
        ]
        for i, base in enumerate(self.buffer_bases):
            lines.append(f"  buffer {i}   : {self.buffer_bytes / 1024:6.1f}"
                         f" KB at {base:#x}")
        return "\n".join(lines)

    def apply(self, local_store: LocalStore) -> None:
        """Reserve the planned regions on an actual local store."""
        local_store.alloc("code_stack", self.code_stack_bytes)
        local_store.alloc("stt", self.stt_capacity, align=self.stride)
        for i, base in enumerate(self.buffer_bases):
            region = local_store.alloc(f"buffer{i}", self.buffer_bytes)
            if region.start != base:
                raise PlanError(
                    f"buffer {i} landed at {region.start:#x}, plan says "
                    f"{base:#x}")


def plan_tile(buffer_bytes: int = 16 * 1024, num_buffers: int = 2,
              alphabet_size: int = 32,
              code_stack_bytes: int = CODE_STACK_BYTES,
              ls_size: int = LS_SIZE) -> TilePlan:
    """Compute a tile layout: code+stack, then the STT (taking all the
    space the buffers leave), then the input buffers."""
    if buffer_bytes <= 0 or buffer_bytes % 16:
        raise PlanError("buffer size must be a positive multiple of 16")
    if num_buffers < 1:
        raise PlanError("at least one input buffer required")
    if code_stack_bytes < COUNTER_AREA_BYTES + STATE_AREA_BYTES:
        raise PlanError("code/stack region too small for the counter and "
                        "state-save areas")
    stride = row_stride(alphabet_size)
    stt_base = code_stack_bytes
    if stt_base % stride:
        stt_base = (stt_base + stride - 1) & ~(stride - 1)
    buffers_total = num_buffers * buffer_bytes
    stt_capacity = ls_size - stt_base - buffers_total
    stt_capacity -= stt_capacity % stride
    if stt_capacity < stride:
        raise PlanError(
            f"{num_buffers}×{buffer_bytes}-byte buffers leave no room for "
            f"an STT in the {ls_size}-byte local store")
    buffer_bases = tuple(stt_base + stt_capacity + i * buffer_bytes
                         for i in range(num_buffers))
    counters_base = code_stack_bytes - COUNTER_AREA_BYTES
    states_base = counters_base - STATE_AREA_BYTES
    return TilePlan(
        alphabet_size=alphabet_size,
        buffer_bytes=buffer_bytes,
        num_buffers=num_buffers,
        code_stack_bytes=code_stack_bytes,
        counters_base=counters_base,
        states_base=states_base,
        stt_base=stt_base,
        stt_capacity=stt_capacity,
        buffer_bases=buffer_bases,
    )


#: The three local-store configurations of Figure 3.
FIGURE3_CASES: List[TilePlan] = [
    plan_tile(buffer_bytes=16 * 1024),
    plan_tile(buffer_bytes=8 * 1024),
    plan_tile(buffer_bytes=4 * 1024),
]


# -- execution planning ------------------------------------------------------------

#: Below this many bytes the chunked fixpoint's setup cost dominates and
#: the serial reference walk wins (counts-only, single worker).
SERIAL_BYTE_CEILING = 1 << 20

#: Host cache ceiling for the *plain* fused table — the planner's
#: analogue of the tile planner's 256 KB local store.  When the stacked
#: multi-slice STT would exceed this, the planner prefers the hot/cold
#: union scan, whose hot partition is budgeted to stay resident
#: (``engine.HOT_BUDGET_BYTES``) whatever the dictionary's size.
CACHE_BUDGET_BYTES = HOT_BUDGET_BYTES


#: The in-process kernel behind each block backend — the loop the bare
#: scan runs, and the one the prefilter stage verifies windows with.
VERIFY_KERNELS = {
    "chunked": "flat",
    "cellsim": "flat",
    "fused": "fused",
    "hotcold": "hotcold",
    "hotcold2": "hotcold2",
}

# -- prefilter cost rule -----------------------------------------------------------
#
# Every cost below is in *kernel gathers*: the time the bare hotcold
# kernel spends on one table gather, i.e. on one input byte (9.8–11.3
# ns on the 2-core host of the fit).  The bare scan of ``n`` bytes
# costs ``n × gathers_per_byte(kernel)``; the screened scan costs the
# screen plus the verification of its candidate windows.  The constants
# are fitted from two runs of the win-region sweep,
# ``test_prefilter_win_region`` in ``benchmarks/bench_fused.py`` (32
# rows of 8 MB blocks each; EXPERIMENTS.md, "Prefilter win region").

#: Fold/mask gathers the screen pays per sampled trigram position.
SCREEN_GATHERS_PER_SAMPLE = 3
#: One screen gather in kernel gathers.  Fitted on the stride-2 rows,
#: where the stride check decides the plan (medians 0.45 and 0.46 over
#: 8 rows); strides 4–10 measured 0.28–0.44, so the screen term is
#: conservative there.
SCREEN_GATHER_COST = 0.45
#: Fixed verification cost per candidate window in kernel gathers —
#: its share of the lane gather, the ragged-segment dispatch and the
#: pair re-alignment steps at its edges (medians 48.8 and 48.6 over 32
#: rows, quartiles 35–60).
WINDOW_COST = 48.0
#: The pair-stride kernel below full pair-table coverage (only reached
#: through the ``two_byte=True`` hatch): escaped lanes replay byte by
#: byte, which makes it slower than the one-byte ``hotcold`` scan
#: (medians 1.9 and 2.8 over 10 rows; the lower is kept).
PARTIAL_PAIR_GATHERS_PER_BYTE = 1.9
#: The serial reference walk (pure Python, one DFA step per byte per
#: slice) in kernel gathers per byte per slice — measured at ~500 ns
#: per byte against ~10 ns for the hotcold kernel.
SERIAL_GATHERS_PER_BYTE = 50.0


def gathers_per_byte(kernel: str, num_slices: int = 1,
                     pair_fit: bool = True) -> float:
    """Kernel gathers one byte costs the named verify kernel: half a
    gather at pair stride (``hotcold2`` with a full-coverage pair
    table, ``pair_fit``), one for the ``hotcold`` union table, one per
    slice for ``flat`` and ``fused``, and the measured costs of the
    partial-coverage pair scan and the ``serial`` reference walk."""
    if kernel == "hotcold2":
        return 0.5 if pair_fit else PARTIAL_PAIR_GATHERS_PER_BYTE
    if kernel == "hotcold":
        return 1.0
    if kernel == "serial":
        return SERIAL_GATHERS_PER_BYTE * num_slices
    return float(num_slices)


def screen_cost(nbytes: int, stride: int) -> float:
    """Cost of screening ``nbytes``: every ``stride``-th position is
    sampled at :data:`SCREEN_GATHERS_PER_SAMPLE` gathers."""
    return (nbytes / max(1, stride) * SCREEN_GATHERS_PER_SAMPLE
            * SCREEN_GATHER_COST)


def verify_cost(candidate_bytes: float, windows: float,
                kernel_gpb: float) -> float:
    """Cost of verifying the candidate windows: their bytes at the
    kernel's per-byte cost plus :data:`WINDOW_COST` per window."""
    return candidate_bytes * kernel_gpb + windows * WINDOW_COST


def expected_candidates(nbytes: int, stride: int, maxlen: int,
                        selectivity: float) -> Tuple[float, float]:
    """Plan-time ``(candidate_bytes, windows)`` for ``nbytes`` of
    traffic uniform over the folded alphabet, where a sampled position
    hits with probability ``selectivity`` (the mask's admitted share).

    Hits arrive at ``selectivity / stride`` per byte; each grows into a
    ``2·maxlen − 3``-byte window, and hits closer than ``2·maxlen``
    merge into one (see :meth:`PackedPrefilter.screen`), so the covered
    share and the run count follow the Poisson gap law."""
    rate = selectivity / max(1, stride)
    covered = -math.expm1(-rate * (2 * maxlen - 3))
    windows = nbytes * rate * math.exp(-rate * 2 * maxlen)
    return nbytes * covered, windows


@dataclass(frozen=True)
class ScreenShape:
    """What the prefilter rule needs to know about a screenable
    dictionary (see ``CompiledDictionary.screen_shape``)."""

    #: Sampling stride of the trigram screen (``minlen − 2``).
    stride: int
    #: Longest pattern, which sizes each candidate window.
    maxlen: int
    #: Share of trigrams the mask admits.  A callable because it builds
    #: the mask: the rule calls it only when the stride alone has not
    #: already ruled the stage out.
    selectivity: Callable[[], float]


@dataclass(frozen=True)
class ExecutionPlan:
    """One backend choice plus the reasons that forced it, and whether
    the packed prefilter stage runs in front of the chosen kernel."""

    backend: str
    reason: str
    prefilter: bool = False

    def describe(self) -> str:
        head = f"{self.backend}: {self.reason}"
        if self.prefilter:
            head += " [prefilter stage on]"
        return head


def plan_backend(nbytes: Optional[int] = None, streaming: bool = False,
                 workers: int = 1, with_events: bool = False,
                 num_slices: int = 1, fuse: bool = True,
                 exact: bool = False,
                 fused_bytes: Optional[int] = None,
                 hot_cold: Optional[bool] = None,
                 two_byte: Optional[bool] = None,
                 pair_fit: bool = False,
                 prefilter: Optional[bool] = None,
                 screen: Optional[ScreenShape] = None,
                 serial_byte_ceiling: int = SERIAL_BYTE_CEILING,
                 cache_budget: int = CACHE_BUDGET_BYTES,
                 ) -> ExecutionPlan:
    """Pick a scan backend from the request's shape.

    The rules mirror the tile planner's spirit — choose the strategy
    whose fixed costs the input can amortise.  Event reporting forces
    the serial reference walk (the only backend that materialises match
    positions); iterator/file input must flow through the staging ring;
    multiple workers call for the sharded pool; large in-memory counts
    take the chunked fixpoint — fused across slices whenever the
    dictionary was partitioned (``num_slices > 1``), because D slices
    sharing one pass beat D sequential passes at any size that
    amortises the fixpoint at all; small inputs stay serial.  ``fuse``
    is the escape hatch (``repro scan --no-fuse``).

    The hot/cold union scan supersedes the stacked fused pass for
    *exact* dictionaries (``exact=True`` — regex tiles have no union
    automaton) when the dictionary was partitioned or the plain fused
    table (``fused_bytes``) would overflow ``cache_budget``: one
    cache-resident table advances every slice with one gather per byte,
    where the stacked STT pays ``num_slices`` gathers over a footprint
    that grows with the partition count.  ``hot_cold`` is the request's
    escape hatch — ``False`` forces the stacked path, ``True`` demands
    the union scan (still gated on ``exact``), ``None`` lets the
    footprint rule decide.

    Within the union-scan choice, the *two-byte stride* variant
    (``hotcold2``) consumes an input pair per gather over a squared-
    alphabet table on the hot states.  It is auto-selected when the
    caller certifies the full-coverage pair table fits the hot budget
    (``pair_fit=True``, see ``CompiledDictionary.pair_table_fits``) —
    full coverage means the pair loop never escapes, so it strictly
    dominates the one-byte path.  ``two_byte`` is the escape hatch:
    ``False`` keeps the one-byte union scan, ``True`` demands the pair
    path even when the table would not reach full coverage (partial
    coverage still wins when the hot set absorbs most transitions) and
    implies the union scan itself, the way ``hot_cold=True`` does —
    unless ``hot_cold=False`` explicitly pins the stacked path.

    **The prefilter rule** — the one place every backend inherits the
    packed screening stage from.  The stage is mounted only where it
    beats the kernel it sits in front of: for an in-memory block whose
    dictionary is screenable (``screen``, see
    ``CompiledDictionary.screen_shape``), large enough to amortise the
    chunk fixpoint (``serial_byte_ceiling``), and planned onto a backend
    with one in-process kernel (:data:`VERIFY_KERNELS`, or the serial
    walk), the predicted screen-plus-verify cost must undercut the bare
    kernel's :func:`gathers_per_byte`.  The stride is checked first — a
    screen that costs more than the bare kernel even with no candidate
    bytes is ruled out before the mask is built; only then does the
    mask's selectivity price the verification
    (:func:`expected_candidates`).  The plan then carries
    ``prefilter=True`` and the driver mounts a
    :class:`~repro.core.scan.pipeline.PrefilterStage` in front of the
    chosen kernel.  ``prefilter`` is the escape hatch (``repro scan
    --no-prefilter`` / ``ScanRequest(prefilter=False)``); ``True``
    demands the stage.  Stream and file requests never screen —
    candidate windows cannot be carried across staging-ring refills
    without re-reading the input.
    """
    plan = _choose_backend(
        nbytes=nbytes, streaming=streaming, workers=workers,
        with_events=with_events, num_slices=num_slices, fuse=fuse,
        exact=exact, fused_bytes=fused_bytes, hot_cold=hot_cold,
        two_byte=two_byte, pair_fit=pair_fit,
        serial_byte_ceiling=serial_byte_ceiling,
        cache_budget=cache_budget)
    if plan.backend == "streaming" or prefilter is False:
        return plan
    if prefilter is None and not (
            screen is not None and nbytes is not None
            and nbytes > serial_byte_ceiling
            and _screen_pays(plan.backend, nbytes, num_slices, pair_fit,
                             screen)):
        return plan
    return ExecutionPlan(plan.backend, plan.reason
                         + "; packed prefilter screens clean regions "
                           "first", prefilter=True)


def _screen_pays(backend: str, nbytes: int, num_slices: int,
                 pair_fit: bool, screen: ScreenShape) -> bool:
    """The cost rule (see :func:`plan_backend`): predicted screen plus
    verify below the bare kernel, the stride checked before the mask's
    selectivity is asked for."""
    kernel = "serial" if backend == "serial" \
        else VERIFY_KERNELS.get(backend)
    if kernel is None:
        return False
    gpb = gathers_per_byte(kernel, num_slices, pair_fit)
    bare = nbytes * gpb
    screened = screen_cost(nbytes, screen.stride)
    if screened >= bare:
        return False
    cand, windows = expected_candidates(
        nbytes, screen.stride, screen.maxlen, screen.selectivity())
    return screened + verify_cost(cand, windows, gpb) < bare


def _choose_backend(nbytes: Optional[int], streaming: bool, workers: int,
                    with_events: bool, num_slices: int, fuse: bool,
                    exact: bool, fused_bytes: Optional[int],
                    hot_cold: Optional[bool], two_byte: Optional[bool],
                    pair_fit: bool, serial_byte_ceiling: int,
                    cache_budget: int) -> ExecutionPlan:
    """The backend decision chain (see :func:`plan_backend`)."""
    if with_events:
        return ExecutionPlan(
            "serial", "match events require the reference walk")
    if streaming:
        return ExecutionPlan(
            "streaming", "iterator/file input flows through the "
            "staging ring")
    if workers > 1:
        return ExecutionPlan(
            "pooled", f"{workers} workers amortise the sharded pool")
    if nbytes is not None and nbytes > serial_byte_ceiling:
        want_hc = hot_cold if hot_cold is not None else (
            two_byte is True
            or (fuse and (num_slices > 1
                          or (fused_bytes or 0) > cache_budget)))
        if want_hc and exact:
            want_pair = two_byte if two_byte is not None else pair_fit
            if want_pair:
                return ExecutionPlan(
                    "hotcold2", f"{num_slices} slice(s) share one "
                    f"union pass over {nbytes} bytes at two bytes per "
                    f"gather; pair table "
                    + ("fits the hot budget" if pair_fit
                       else "forced by request"))
            return ExecutionPlan(
                "hotcold", f"{num_slices} slice(s) share one union "
                f"pass over {nbytes} bytes; hot partition stays "
                f"cache-resident")
        if fuse and num_slices > 1:
            return ExecutionPlan(
                "fused", f"{num_slices} slices share one pass over "
                f"{nbytes} bytes (stacked STT)")
        return ExecutionPlan(
            "chunked", f"{nbytes} bytes amortise the speculative "
            "fixpoint setup")
    return ExecutionPlan(
        "serial", "small single-worker input; reference walk is "
        "cheapest and reports per-pattern counts")
