"""Hot/cold split of the union automaton (cache-resident scanning).

One union AC automaton advances every dictionary slice at once; the
frequently-visited rows are packed into a cache-resident hot table and
the rest spill to a :class:`~repro.core.compressed.ColdRowStore`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...dfa.automaton import DFA, DFAError
from ..compressed import ColdRowStore
from .base import (HOT_BUDGET_BYTES, MIN_PIECE, SPECULATION_WARMUP, STRIP,
                   _ragged_segments, hotcold_lanes_target,
                   hotcold_strip_elems, pack_streams, window_lanes)
from .driver import ScanDetail, _chunked_scan, count_arr, count_arr_detail, \
    repair_detail
from .flat import FlatScanner


def visit_order(transitions: np.ndarray, start: int,
                fold_table: Optional[np.ndarray] = None,
                iters: int = 12, damping: float = 0.15
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic hotness ranking of DFA states.

    Runs a damped power iteration of the DFA's transition graph under
    the per-symbol probabilities implied by the fold (a symbol's weight
    is the number of byte values folding to it, i.e. the stationary
    distribution of a uniformly random *byte* stream).  Inputs are not
    uniform, but what the ranking must get right is only the split into
    "visited constantly" (the failure-closed neighborhood of the start
    state) versus "visited while matching" — and that split is a
    structural property of security DFAs, not of the corpus.  Being
    input-free keeps the ranking a pure function of the compiled
    dictionary, so it can be persisted in the artifact cache.

    Returns ``(order, mass)``: states sorted hottest-first with
    ``start`` forced to the front, and the stationary mass per state.
    """
    trans = np.asarray(transitions, dtype=np.int64)
    n, width = trans.shape
    if fold_table is not None:
        probs = np.bincount(np.asarray(fold_table, dtype=np.int64),
                            minlength=width).astype(np.float64)
        probs /= max(probs.sum(), 1.0)
    else:
        probs = np.full(width, 1.0 / width)
    restart = np.zeros(n, dtype=np.float64)
    restart[int(start)] = 1.0
    v = restart.copy()
    targets = trans.reshape(-1)
    for _ in range(int(iters)):
        contrib = (v[:, None] * probs[None, :]).reshape(-1)
        v = np.bincount(targets, weights=contrib, minlength=n)
        v = (1.0 - damping) * v + damping * restart
    order = np.argsort(-v, kind="stable").astype(np.int64)
    order = np.concatenate(([int(start)], order[order != int(start)]))
    return order, v


def project_states(union_trans: np.ndarray, union_start: int,
                   slice_trans: np.ndarray, slice_start: int) -> np.ndarray:
    """Map every union-automaton state to its image in one slice DFA.

    For Aho–Corasick automata the state reached by a string is its
    longest suffix that is a pattern prefix.  A suffix of a union
    state's canonical string that is a *slice* prefix is also a union
    prefix, hence itself a suffix of the union state's canonical string
    — so the slice state reached by *any* string arriving at union
    state ``s`` is the same, and the map ``img`` is well defined.  It
    satisfies ``img[union_trans[s, c]] == slice_trans[img[s], c]``,
    which is exactly the BFS recurrence used here.
    """
    union_trans = np.asarray(union_trans, dtype=np.int64)
    slice_trans = np.asarray(slice_trans, dtype=np.int64)
    n = union_trans.shape[0]
    img = np.full(n, -1, dtype=np.int64)
    img[int(union_start)] = int(slice_start)
    frontier = np.asarray([int(union_start)], dtype=np.int64)
    while frontier.size:
        targets = union_trans[frontier].reshape(-1)
        cand = slice_trans[img[frontier]].reshape(-1)
        fresh = np.nonzero(img[targets] < 0)[0]
        if fresh.size == 0:
            break
        t, first = np.unique(targets[fresh], return_index=True)
        img[t] = cand[fresh][first]
        frontier = t
    # Unreachable union states have no canonical string; any image is
    # consistent (they never occur in a scan).
    img[img < 0] = int(slice_start)
    return img


@dataclass
class HotColdFusedTable:
    """Hot/cold split of the union automaton's flag-encoded table.

    The paper's §4 answer to "the STT must fit local store" is to refuse
    dictionaries whose table does not.  The hot/cold split keeps the
    discipline but only demands residency of the *frequently visited*
    states: the hottest ``H`` states (by :func:`visit_order`) are
    renumbered onto one compact contiguous table of ``H`` rows over the
    **folded** alphabet — typically ~8× narrower than the fold-composed
    fused rows — and every other state collapses to a two-cell *escape
    encoding* resolved by a :class:`~repro.core.compressed.ColdRowStore`
    (default-transition compressed against the start state's row).

    Cell encodings (``stride = 2 × symbol_width``, bit 0 = is-final):

    * hot state ``h``:   ``h·stride | flag`` — the §4 tagged pointer,
      gathered with the usual no-masking trick;
    * cold state ``j``:  ``escape_base + 2 + 2·j | flag`` where
      ``escape_base = H·stride``.  These point into a *parking zone*
      appended to the hot table whose every cell holds ``escape_base``,
      so a lane that goes cold parks itself (self-loop, flag 0,
      weight 0) for the rest of the strip and the scanner replays its
      true trajectory through the cold store afterwards.

    The weight table is addressed by ``cell >> 1`` like the fused one:
    hot states land on ``h·symbol_width``, the parking cell on a
    dedicated zero slot, cold states on compact trailing slots.

    One union automaton replaces the D stacked slice tables, so the
    per-byte transition work is one gather regardless of the partition
    count; per-slice counts are recovered through ``slice_maps`` (see
    :func:`project_states`) and per-slice weight layouts.
    """

    hot_flat: np.ndarray            # int32, hot rows + parking zone
    weights: np.ndarray             # int32, indexed by cell >> 1
    cold: ColdRowStore              # cold rows, shared-default compressed
    fold_table: np.ndarray          # 256-entry byte → symbol map
    hot_states: np.ndarray          # int64 (H,): hot id → union state
    cold_states: np.ndarray         # int64 (n-H,): cold id → union state
    entry_cells: np.ndarray         # int32 (n,): state → untagged cell
    start: int
    num_states: int
    symbol_width: int
    slice_maps: Optional[np.ndarray] = None      # int32 (D, n)
    slice_weights: Optional[np.ndarray] = None   # int32 (D, len(weights))
    slice_flags: Optional[np.ndarray] = None     # int32 (D, len(weights))
    hot_mass: Optional[float] = None             # predicted hot-visit share

    @property
    def num_hot(self) -> int:
        return len(self.hot_states)

    @property
    def num_cold(self) -> int:
        return len(self.cold_states)

    @property
    def stride(self) -> int:
        return 2 * self.symbol_width

    @property
    def escape_base(self) -> int:
        return self.num_hot * self.stride

    @property
    def num_dfas(self) -> int:
        return 1 if self.slice_maps is None else len(self.slice_maps)

    @property
    def hot_bytes(self) -> int:
        """Footprint of the always-resident part (hot rows + weights)."""
        return int(self.hot_flat.nbytes + self.weights.nbytes)

    @property
    def table_bytes(self) -> int:
        """Total footprint of everything a scan can touch."""
        return int(self.hot_flat.nbytes + self.weights.nbytes
                   + self.cold.nbytes + self.entry_cells.nbytes
                   + 4 * 256)

    def scanner(self) -> "HotColdFusedScanner":
        """A fresh interpreter over this table — the sanctioned route
        for call sites outside ``core/scan`` (scanner classes are
        import-banned there; see the ruff ``banned-api`` rule)."""
        return HotColdFusedScanner(self)


def build_hot_cold_table(transitions: np.ndarray, final_mask: np.ndarray,
                         start: int, fold_table: np.ndarray,
                         state_weights: Optional[np.ndarray] = None,
                         budget_bytes: int = HOT_BUDGET_BYTES,
                         order: Optional[np.ndarray] = None,
                         mass: Optional[np.ndarray] = None,
                         slice_maps: Optional[np.ndarray] = None,
                         slice_state_weights: Optional[np.ndarray] = None,
                         slice_state_flags: Optional[np.ndarray] = None
                         ) -> HotColdFusedTable:
    """Build a :class:`HotColdFusedTable` from a (union) DFA.

    ``transitions`` is over the *folded* alphabet; ``fold_table`` maps
    raw bytes to it at scan time (the fold is **not** composed into the
    rows — narrow rows are the point).  ``budget_bytes`` caps the hot
    partition: ``H = budget // (stride × 4)`` rows, at least 1 and at
    most all states; ``order`` (from :func:`visit_order`, possibly
    loaded from an artifact) overrides the profiling pass.  The
    optional ``slice_*`` arrays are per-slice per-*union-state* weight
    and final-flag vectors plus the :func:`project_states` maps, laid
    out into per-slice weight tables for exact per-DFA counting.
    """
    trans = np.asarray(transitions, dtype=np.int64)
    n, width = trans.shape
    final = np.asarray(final_mask, dtype=np.int64)
    fold = np.asarray(fold_table, dtype=np.int64)
    if fold.shape != (256,):
        raise DFAError("fold table must map all 256 byte values")
    if fold.size and int(fold.max()) >= width:
        raise DFAError("fold table maps outside the DFA alphabet")
    stride = 2 * width
    if order is None:
        order, mass = visit_order(trans, start, fold)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (n,):
            raise DFAError("visit order must rank every state")
        if int(order[0]) != int(start):
            order = np.concatenate(([int(start)],
                                    order[order != int(start)]))
    num_hot = max(1, min(n, int(budget_bytes) // (stride * 4)))
    num_cold = n - num_hot
    hot_states = order[:num_hot]
    cold_states = order[num_hot:]
    escape_base = num_hot * stride
    park = 2 * num_cold + stride + 2
    if escape_base + park > np.iinfo(np.int32).max:
        raise DFAError(
            f"hot/cold STT needs offsets up to {escape_base + park}, "
            f"beyond int32; {n} states × {width} symbols is too large")

    code = np.empty(n, dtype=np.int64)
    code[hot_states] = np.arange(num_hot, dtype=np.int64) * stride
    code[cold_states] = escape_base + 2 \
        + 2 * np.arange(num_cold, dtype=np.int64)
    enc = code[trans] + final[trans]

    hot_flat = np.full(escape_base + park, escape_base, dtype=np.int32)
    hot_rows = hot_flat[:escape_base].reshape(num_hot, stride)
    hot_rows[:, 0::2] = enc[hot_states]
    hot_rows[:, 1::2] = enc[hot_states]
    cold = ColdRowStore.from_rows(enc[cold_states], enc[int(start)])

    wsize = num_hot * width + num_cold + 1

    def layout(per_state: np.ndarray) -> np.ndarray:
        w = np.zeros(wsize, dtype=np.int32)
        w[np.arange(num_hot) * width] = per_state[hot_states]
        w[num_hot * width + 1 + np.arange(num_cold)] = \
            per_state[cold_states]
        return w

    if state_weights is None:
        state_weights = final
    weights = layout(np.asarray(state_weights))

    sw = sf = None
    if slice_maps is not None:
        slice_maps = np.ascontiguousarray(slice_maps, dtype=np.int32)
        if slice_state_weights is None or slice_state_flags is None:
            raise DFAError("slice maps need per-slice weights and flags")
        sw = np.stack([layout(np.asarray(row))
                       for row in slice_state_weights])
        sf = np.stack([layout(np.asarray(row))
                       for row in slice_state_flags])

    hot_mass = None
    if mass is not None:
        total = float(mass.sum())
        if total > 0:
            hot_mass = float(mass[hot_states].sum()) / total

    return HotColdFusedTable(
        hot_flat=hot_flat, weights=weights, cold=cold,
        fold_table=np.ascontiguousarray(fold, dtype=np.int64),
        hot_states=np.ascontiguousarray(hot_states),
        cold_states=np.ascontiguousarray(cold_states),
        entry_cells=code.astype(np.int32), start=int(start),
        num_states=n, symbol_width=width, slice_maps=slice_maps,
        slice_weights=sw, slice_flags=sf, hot_mass=hot_mass)


class HotColdFusedScanner:
    """Lockstep interpreter over a :class:`HotColdFusedTable`.

    Drop-in compatible with :class:`FlatScanner` for :func:`count_arr` /
    :func:`count_arr_detail` / :func:`repair_detail` (pointer, state_of,
    scan_cols, step_scalar all speak union states), so every chunking,
    ledger and pool mechanism runs unchanged on top of it.  The hot loop
    is the §4 one-gather step on the compact hot table; lanes that leave
    the hot set park themselves in the parking zone and are *replayed*
    through the compressed cold store at strip granularity — the
    explicit slow-path escape.  Scans read **raw bytes**: the byte→
    symbol fold is a 256-entry pre-doubled gather folded into the strip
    staging step, not into the table rows.
    """

    def __init__(self, table: HotColdFusedTable) -> None:
        self.table = table
        self.flat = table.hot_flat
        self.weights = table.weights
        self.cold = table.cold
        self.symbol_width = table.symbol_width
        self.alphabet_size = table.symbol_width
        self.stride = table.stride
        self.start = int(table.start)
        self.num_states = int(table.num_states)
        self.escape_base = int(table.escape_base)
        self.fold2 = np.ascontiguousarray(
            np.asarray(table.fold_table, dtype=np.int32) * 2)
        self.reset_stats()

    @property
    def num_dfas(self) -> int:
        return self.table.num_dfas

    # -- instrumentation ---------------------------------------------------------

    def reset_stats(self) -> None:
        #: steps = lockstep transitions taken; cold_steps = transitions
        #: replayed through the slow path; escapes = lane×strip slow-path
        #: activations.  hot_hit_rate derives from these.
        self.stats = {"steps": 0, "cold_steps": 0, "escapes": 0}

    @property
    def hot_hit_rate(self) -> float:
        steps = self.stats["steps"]
        if steps <= 0:
            return 1.0
        return 1.0 - self.stats["cold_steps"] / steps

    # -- pointer/state conversions ----------------------------------------------

    def pointer(self, state: int) -> int:
        return int(self.table.entry_cells[int(state)])

    def state_of(self, ptrs):
        p = np.asarray(ptrs, dtype=np.int64)
        base = (p >> 1) << 1
        t = self.table
        out = t.hot_states[np.minimum(base // self.stride,
                                      t.num_hot - 1)]
        if t.num_cold:
            j = np.clip((base - self.escape_base - 2) >> 1, 0,
                        t.num_cold - 1)
            out = np.where(base < self.escape_base, out,
                           t.cold_states[j])
        if p.ndim == 0:
            return int(out)
        return out

    # -- scalar path -------------------------------------------------------------

    def step_scalar(self, ptr: int, symbol: int) -> int:
        sym2 = int(self.fold2[int(symbol)])
        ptr = int(ptr)
        if ((ptr >> 1) << 1) < self.escape_base:
            return int(self.flat[ptr + sym2])
        j = (((ptr >> 1) << 1) - self.escape_base - 2) >> 1
        return self.cold.lookup_one(j, sym2 >> 1)

    def _advance(self, cells: np.ndarray, syms2: np.ndarray) -> np.ndarray:
        """Vectorized mixed hot/cold transition on encoded cells."""
        eb = self.escape_base
        base = (cells >> 1) << 1
        hot = base < eb
        out = np.empty_like(cells)
        if hot.any():
            out[hot] = self.flat[cells[hot] + syms2[hot]]
        cold = ~hot
        if cold.any():
            j = (base[cold] - eb - 2) >> 1
            out[cold] = self.cold.lookup(j, syms2[cold] >> 1)
        return out

    # -- hot loop ----------------------------------------------------------------

    def scan_cols(self, cols: np.ndarray, ptrs: np.ndarray,
                  counts: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
        """:meth:`FlatScanner.scan_cols` over raw bytes and union
        states: flag accumulation without ``weights``, multiplicity
        accumulation with (pass :attr:`weights`)."""
        return self._scan_core(cols, ptrs, ((counts, weights),))

    def scan_cols_slices(self, cols: np.ndarray, ptrs: np.ndarray,
                         counts2d: np.ndarray,
                         weight_rows: np.ndarray) -> np.ndarray:
        """One lockstep pass accumulating every slice's counts at once
        (``counts2d`` is ``(D, lanes)``, ``weight_rows`` ``(D, wsize)``).

        D-invariant: instead of D dense accumulation passes per strip,
        one flag pass finds the union-final positions (a slice match
        implies a union match, since the union automaton contains every
        pattern) and the per-slice weights are scattered only at those
        sparse hits, projected through the per-slice weight layouts.
        The per-strip cost is one dense pass plus O(matches · D), not
        O(strip · D)."""
        return self._scan_core(cols, ptrs, (),
                               slice_accs=(counts2d, weight_rows))

    def _scan_core(self, cols: np.ndarray, ptrs: np.ndarray,
                   accs, slice_accs=None) -> np.ndarray:
        length, lanes = cols.shape
        if length == 0:
            return np.asarray(ptrs, dtype=np.int32).copy()
        take = self.flat.take
        fold2_take = self.fold2.take
        add = np.add
        eb = self.escape_base
        pure_hot = self.table.num_cold == 0
        weighted = any(w is not None for _, w in accs)
        strip_len = min(STRIP, length,
                        max(8, hotcold_strip_elems() // max(1, lanes)))
        strip = np.empty((strip_len, lanes), dtype=np.int32)
        syms2 = np.empty((strip_len, lanes), dtype=np.int32)
        scratch = np.empty((strip_len, lanes), dtype=np.int32)
        shifted = np.empty((strip_len, lanes), dtype=np.int32)
        idx = np.empty(lanes, dtype=np.int32)
        strip_rows = list(strip)
        syms_rows = list(syms2)
        cur = np.ascontiguousarray(ptrs, dtype=np.int32)
        self.stats["steps"] += int(length) * int(lanes)
        for t0 in range(0, length, strip_len):
            b = min(strip_len, length - t0)
            fold2_take(cols[t0:t0 + b], out=syms2[:b])
            pre = None if pure_hot else cur.copy()
            c = cur
            for i in range(b):
                row = strip_rows[i]
                add(c, syms_rows[i], out=idx)
                take(idx, out=row)
                c = row
            cur = c
            # Hot accumulation is exact for every lane: a lane that
            # escapes contributes its true flags/weights up to and
            # including the escape step (the escape cell carries the
            # cold destination's flag and weight slot), then parks on
            # zero-weight cells.
            if weighted:
                np.right_shift(strip[:b], 1, out=shifted[:b])
            for acc, w in accs:
                if w is None:
                    np.bitwise_and(strip[:b], 1, out=scratch[:b])
                else:
                    w.take(shifted[:b], out=scratch[:b])
                acc += scratch[:b].sum(axis=0)
            if slice_accs is not None:
                self._accumulate_slices_sparse(strip, b, lanes,
                                               scratch, slice_accs)
            if not pure_hot:
                esc = np.nonzero(cur >= eb)[0]
                if esc.size:
                    cur = cur.copy()
                    self._fix_lanes(strip, syms2, b, pre, cur, esc,
                                    accs, slice_accs)
        return cur.copy()

    @staticmethod
    def _accumulate_slices_sparse(strip: np.ndarray, b: int, lanes: int,
                                  scratch: np.ndarray, slice_accs) -> None:
        """Scatter per-slice weights at the strip's union-final hits.

        Escape cells carry the cold destination's flag and weight slot,
        so hot-loop hits are exact for escaping lanes too; parked cells
        have flag 0 and contribute nothing (their lanes are replayed)."""
        counts2d, rows = slice_accs
        np.bitwise_and(strip[:b], 1, out=scratch[:b])
        tt, ll = np.nonzero(scratch[:b])
        if not tt.size:
            return
        slots = strip[tt, ll].astype(np.int64) >> 1
        for d in range(len(rows)):
            counts2d[d] += np.bincount(
                ll, weights=rows[d, slots],
                minlength=lanes).astype(np.int64)

    def _fix_lanes(self, strip: np.ndarray, syms2: np.ndarray, b: int,
                   pre: np.ndarray, cur: np.ndarray, esc: np.ndarray,
                   accs, slice_accs=None) -> None:
        """Replay escaped lanes through the cold store.

        ``esc`` lists lanes whose strip-exit cell is in the escape
        range.  Two cases: a lane *entered* the strip cold (its parked
        gathers contributed nothing — replay all ``b`` steps from its
        true cold encoding), or it escaped mid-strip at position ``t``
        (everything through ``t`` was counted exactly — replay from
        ``t + 1``).  The replay itself is vectorized across lanes per
        position; its per-step cost is bounded (one sorted probe), so
        the slow path degrades linearly, never pathologically.
        """
        eb = self.escape_base
        m = int(esc.size)
        self.stats["escapes"] += m
        col = strip[:b, esc]
        pre_esc = pre[esc].astype(np.int64)
        first = np.argmax(col >= eb, axis=0)
        cells = col[first, np.arange(m)].astype(np.int64)
        t_start = first.astype(np.int64) + 1
        precold = pre_esc >= eb
        if precold.any():
            cells[precold] = pre_esc[precold]
            t_start[precold] = 0
        extra = [np.zeros(m, dtype=np.int64) for _ in accs]
        extra2d = None
        if slice_accs is not None:
            counts2d, rows = slice_accs
            extra2d = np.zeros((len(rows), m), dtype=np.int64)
        for t in range(int(t_start.min()), b):
            act = np.nonzero(t_start <= t)[0]
            nxt = self._advance(cells[act], syms2[t, esc[act]].astype(np.int64))
            cells[act] = nxt
            for (_, w), ex in zip(accs, extra):
                if w is None:
                    ex[act] += nxt & 1
                else:
                    ex[act] += w[nxt >> 1]
            if extra2d is not None:
                extra2d[:, act] += rows[:, nxt >> 1]
            self.stats["cold_steps"] += int(act.size)
        for (acc, _), ex in zip(accs, extra):
            acc[esc] += ex
        if extra2d is not None:
            counts2d[:, esc] += extra2d
        cur[esc] = cells.astype(np.int32)

    # -- block scanning ----------------------------------------------------------

    def count_arr_per_dfa(self, arr: np.ndarray, chunks: int,
                          entry_states=None,
                          weights: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-slice ``(counts, exit_states)`` from one union
        pass.  ``weights`` is a mode switch matching the fused scanner's
        convention: ``None`` counts final-state entries per slice, any
        array selects the per-slice multiplicity layouts (only the
        table's own layouts are meaningful — per-slice counts are always
        taken through ``slice_weights``/``slice_flags``)."""
        t = self.table
        if t.slice_maps is None:
            raise DFAError("hot/cold table was built without slice maps")
        ndfa = len(t.slice_maps)
        start_imgs = t.slice_maps[:, self.start].astype(np.int64)
        if entry_states is not None:
            states = np.asarray(entry_states, dtype=np.int64)
            if not np.array_equal(states, start_imgs):
                raise DFAError(
                    "hot/cold per-DFA scans enter at the union start "
                    "state; arbitrary per-DFA entry states are not "
                    "realizable in the union state space")
        if arr.size == 0:
            return np.zeros(ndfa, dtype=np.int64), start_imgs
        rows = t.slice_flags if weights is None else t.slice_weights
        totals, exit_state = self._chunked_multi(arr, chunks, rows)
        return totals, t.slice_maps[:, exit_state].astype(np.int64)

    def _chunked_multi(self, arr: np.ndarray, chunks: int,
                       rows: np.ndarray) -> Tuple[np.ndarray, int]:
        """Chunk fixpoint accumulating all D slices per pass; same
        speculation/warm-up/repair semantics as :func:`_chunked_scan`."""
        if chunks < 1:
            raise DFAError("chunks must be >= 1")
        n = int(arr.size)
        ndfa = len(rows)
        chunks = min(n, max(int(chunks),
                            min(hotcold_lanes_target(), n // MIN_PIECE)))
        piece_len = n // chunks
        remainder = n - piece_len * chunks
        head = np.zeros(ndfa, dtype=np.int64)
        ptr = self.pointer(self.start)
        for sym in arr[:remainder].tolist():
            ptr = self.step_scalar(ptr, sym)
            head += rows[:, ptr >> 1]
        cols = np.ascontiguousarray(
            arr[remainder:].reshape(chunks, piece_len).T)
        entry = np.full(chunks, self.pointer(self.start), dtype=np.int32)
        entry[0] = ptr
        if chunks > 1 and piece_len >= 8 * SPECULATION_WARMUP:
            sink = np.zeros(chunks - 1, dtype=np.int64)
            entry[1:] = self.scan_cols(
                np.ascontiguousarray(
                    cols[piece_len - SPECULATION_WARMUP:, :-1]),
                entry[1:].copy(), sink)
        exits = np.empty(chunks, dtype=np.int32)
        counts = np.zeros((ndfa, chunks), dtype=np.int64)
        todo = np.arange(chunks)
        for _ in range(chunks + 1):
            sub = cols if todo.size == chunks else cols[:, todo]
            part = np.zeros((ndfa, todo.size), dtype=np.int64)
            fin = self.scan_cols_slices(sub, entry[todo], part, rows)
            counts[:, todo] = part
            exits[todo] = fin
            wrong = np.nonzero((exits[:-1] >> 1)
                               != (entry[1:] >> 1))[0] + 1
            if wrong.size == 0:
                break
            entry[wrong] = exits[wrong - 1]
            todo = wrong
        else:
            raise DFAError("hot/cold chunk fixpoint failed to converge; "
                           "this indicates a bug, not an input property")
        return head + counts.sum(axis=1), int(self.state_of(exits[-1]))

    # -- multi-stream scanning ---------------------------------------------------

    def run_streams(self, streams: Sequence[bytes],
                    start_states: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`run_windows` over byte streams laid end to end."""
        arr, starts, lens = pack_streams(streams)
        return self.run_windows(arr, starts, lens, start_states, weights)

    def run_windows(self, arr: np.ndarray, starts: np.ndarray,
                    lens: np.ndarray,
                    start_states: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scan independent ragged windows of one raw-byte block over
        the union automaton — window ``k`` is ``arr[starts[k]:][:lens[k]]``.

        Returns ``(counts, final_states)``, both shaped
        ``(num_windows,)`` — the whole dictionary's totals per window
        in one pass, where the plain fused scanner returns a
        ``(D, windows)`` grid it then has to reduce.  States are union
        states; ``start_states`` (one per window) resume earlier scans.
        """
        nstreams = len(lens)
        cols, order, sorted_lens = window_lanes(arr, starts, lens)
        if start_states is not None:
            states = np.asarray(start_states, dtype=np.int64)
            if states.size and (states.min() < 0
                                or states.max() >= self.num_states):
                raise DFAError("start state out of range")
            ptrs = self.table.entry_cells[states[order]].astype(np.int32)
        else:
            ptrs = np.full(nstreams, self.pointer(self.start),
                           dtype=np.int32)
        counts = np.zeros(nstreams, dtype=np.int64)
        for lo, hi, active in _ragged_segments(sorted_lens):
            fin = self.scan_cols(cols[lo:hi, :active], ptrs[:active],
                                 counts[:active], weights=weights)
            ptrs[:active] = fin
        out_counts = np.empty_like(counts)
        out_ptrs = np.empty_like(ptrs)
        out_counts[order] = counts
        out_ptrs[order] = ptrs
        return out_counts, np.asarray(self.state_of(out_ptrs),
                                      dtype=np.int64)
