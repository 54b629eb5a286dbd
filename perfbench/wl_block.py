"""Workload ``block``: the auto-planned scan core on a 16 MB block.

In-process and single-threaded.  A cold ``compile_dictionary`` of a
25-signature exact dictionary (identity fold over 32 symbols), then
repeated auto-planned ``execute()`` over a seeded 16 MB block with one
planted match per 2,000 bytes.  The service layers do no work here.

Correctness: every scan's ``total_matches`` must equal the reference
computed once at set-up by two independent paths (the planned kernel
with the prefilter off, and the ``chunked`` backend), which must agree.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.backends import (_VERIFY_KERNELS, ScanContext,
                                 ScanRequest, _plan, execute)
from repro.core.compiled import COUNTERS, ArtifactCache, \
    compile_dictionary
from repro.core.scan.prefilter import count_segments
from repro.dfa.alphabet import identity_fold
from repro.workloads import plant_matches, random_payload, \
    random_signatures

from .metrics import RunResult, SetupError
from .stats import quantile
from .trace import Tracer

BLOCK_BYTES = 16_000_000
MATCH_EVERY = 2_000
NUM_SIGNATURES = 25
#: The dictionary is part of the workload, not of its seeded traffic:
#: the same one as ``benchmarks/bench_backends.py``, so every seed
#: exercises the same plan.
DICTIONARY_SEED = 90
#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Dictionary swaps after the timed phase; ``reload_p50_ms`` is their
#: median.
SWAPS = 60
#: Leading slice of the block re-scanned after each swap as its check.
PROBE_BYTES = 2_000_000


def _inputs(seed: int):
    patterns = random_signatures(NUM_SIGNATURES, 4, 10,
                                 seed=DICTIONARY_SEED)
    block = plant_matches(random_payload(BLOCK_BYTES, seed=seed),
                          patterns, BLOCK_BYTES // MATCH_EVERY,
                          seed=seed + 1)
    # Entries added on every other swap.  They must never occur in the
    # block, so a swap leaves every expected count unchanged.
    decoys = [d for d in random_signatures(4, 12, 16,
                                           seed=DICTIONARY_SEED + 1)
              if d not in patterns]
    for d in decoys:
        if d in block:
            raise SetupError(f"decoy entry {d!r} occurs in the block")
    return patterns, block, decoys


def run(seed: int, seconds: float, trace: bool, workdir: Path
        ) -> RunResult:
    res = RunResult()
    tally = res.tally
    fold = identity_fold(32)
    patterns, block, decoys = _inputs(seed)
    res.params.update(block_bytes=BLOCK_BYTES, match_every=MATCH_EVERY,
                      signatures=NUM_SIGNATURES, decoys=len(decoys),
                      fold="identity/32", setups=SETUPS, swaps=SWAPS)

    # -- set-up, several times: cold compile -> lazy tables -> first scan
    setups, compiles = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        compiled = compile_dictionary(patterns, fold=fold)
        compiles.append(time.perf_counter() - t0)
        ctx = ScanContext(compiled)
        first = execute(ctx, ScanRequest(data=block))
        setups.append(time.perf_counter() - t0)
    res.samples["setup_s"] = setups

    # -- differential reference (not timed): two independent paths.
    ref_kernel = execute(ctx, ScanRequest(data=block, prefilter=False))
    ref_chunked = execute(ctx, ScanRequest(data=block), backend="chunked")
    if ref_kernel.total_matches != ref_chunked.total_matches:
        raise SetupError(
            f"reference paths disagree: {ref_kernel.backend} "
            f"{ref_kernel.total_matches} vs chunked "
            f"{ref_chunked.total_matches}")
    expected = ref_chunked.total_matches
    probe = block[:PROBE_BYTES]
    probe_expected = execute(ctx, ScanRequest(data=probe),
                             backend="chunked").total_matches
    tally.check(first.total_matches == expected, "wrong-count",
                f"first scan {first.total_matches} != {expected}")
    res.notes["expected_matches"] = expected

    # -- timed phase: repeated auto-planned execute()
    lat, backends = [], {}
    builds0 = COUNTERS["automaton_builds"]
    phase = seconds / 2 if trace else seconds
    t_start = time.perf_counter()
    deadline = t_start + phase
    while True:
        t0 = time.perf_counter()
        out = execute(ctx, ScanRequest(data=block))
        lat.append(time.perf_counter() - t0)
        backends[out.backend] = backends.get(out.backend, 0) + 1
        tally.check(out.total_matches == expected, "wrong-count",
                    f"{out.total_matches} != {expected}")
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - t_start
    res.samples["latency_ms"] = [x * 1e3 for x in lat]
    p50 = quantile(lat, 0.5)
    res.end_to_end.update(
        setup_s=quantile(setups, 0.5),
        gbps=len(block) * 8 / p50 / 1e9,
        rps=1.0 / p50,
        p50_ms=p50 * 1e3,
        p95_ms=quantile(lat, 0.95) * 1e3,
        p99_ms=quantile(lat, 0.99) * 1e3)
    res.notes["mean_gbps"] = len(block) * len(lat) * 8 / wall / 1e9
    layer = res.per_layer
    layer["compiled.automaton_builds"] = \
        COUNTERS["automaton_builds"] - builds0
    for name, n in backends.items():
        layer[f"planner.backend.{name}"] = n
    layer["compiled.compile_s"] = quantile(compiles, 0.5)
    pstats = out.stats.get("prefilter") or {}
    layer["prefilter.segments"] = pstats.get("segments", 0)
    layer["prefilter.candidate_fraction"] = \
        pstats.get("candidate_fraction", 0.0)

    # -- swaps: alternate the dictionary with one carrying decoy entries
    cache = ArtifactCache(workdir / "block-cache")
    sets = [list(patterns) + decoys, list(patterns)]
    swaps = []
    for i in range(SWAPS):
        t0 = time.perf_counter()
        swapped = compile_dictionary(sets[i % 2], fold=fold, cache=cache)
        swapped.hot_cold2_table()
        swapped.prefilter()
        swaps.append(time.perf_counter() - t0)
        with ScanContext(swapped) as sctx:
            got = execute(sctx, ScanRequest(data=probe)).total_matches
        tally.check(got == probe_expected, "wrong-count",
                    f"after swap {i}: {got} != {probe_expected}")
    res.samples["reload_ms"] = [x * 1e3 for x in swaps]
    res.end_to_end["reload_p50_ms"] = quantile(swaps, 0.5) * 1e3

    if trace:
        _traced(res, ctx, patterns, fold, block, expected, seconds / 2,
                quantile(lat, 0.5))
    ctx.close()
    return res


def _traced(res: RunResult, ctx: ScanContext, patterns, fold,
            block: bytes, expected: int, seconds: float,
            client_p50: float) -> None:
    """Per-layer run: span each layer call the auto plan makes, and the
    whole ``execute()`` beside it, on the same block."""
    tracer = res.notes.setdefault("tracer", Tracer())
    tally = res.tally
    arr = np.frombuffer(block, dtype=np.uint8)

    with tracer.span("core.compiled.compile_dictionary"):
        fresh = compile_dictionary(patterns, fold=fold)
    with tracer.span("core.compiled.tables"):
        fresh.hot_cold2_table()
        fresh.prefilter()
    for _ in range(3):
        with tracer.span("core.scan.kernel"):
            bare = execute(ctx, ScanRequest(data=block, prefilter=False))
        tally.check(bare.total_matches == expected, "wrong-count",
                    f"kernel {bare.total_matches} != {expected}")

    pf = ctx.compiled.prefilter()
    request = ScanRequest(data=block)
    deadline = time.perf_counter() + seconds
    rid = 0
    while time.perf_counter() < deadline:
        rid += 1
        with tracer.span("core.backends.execute", request=rid):
            out = execute(ctx, ScanRequest(data=block))
        tally.check(out.total_matches == expected, "wrong-count",
                    f"{out.total_matches} != {expected}")
        with tracer.span("block.scan", request=rid) as root:
            with tracer.span("core.planner.plan_backend", root, rid):
                # The plan and verify kernel execute() picks for this
                # request, so the decomposition follows it.
                plan = _plan(ctx, request, None)
            with tracer.span("core.scan.prefilter.screen", root, rid):
                screened = pf.screen(arr)
            with tracer.span("core.scan.prefilter.count_segments",
                             root, rid):
                kern = ctx.kernel(_VERIFY_KERNELS.get(
                    plan.backend, ctx.batch_kernel_name()))
                total = kern.count_total(arr) if screened.fall_through \
                    else count_segments(kern, arr, screened.segments)
        tally.check(total == expected, "wrong-count",
                    f"decomposed {total} != {expected}")

    p50 = tracer.p50_ms
    layer = res.per_layer
    layer["compiled.compile_s"] = p50("core.compiled.compile_dictionary") / 1e3
    layer["compiled.table_build_s"] = p50("core.compiled.tables") / 1e3
    layer["planner.plan_us"] = p50("core.planner.plan_backend") * 1e3
    layer["prefilter.screen_ms"] = p50("core.scan.prefilter.screen")
    layer["prefilter.verify_ms"] = p50("core.scan.prefilter.count_segments")
    layer["prefilter.segments"] = int(screened.segments.shape[0])
    layer["prefilter.candidate_fraction"] = \
        screened.candidate_bytes / max(1, arr.size)
    layer["kernel.block_ms"] = p50("core.scan.kernel")
    layer["kernel.hot_hit_rate"] = float(bare.stats.get("hot_hit_rate", 0))
    layer["kernel.cold_steps"] = int(bare.stats.get("cold_steps", 0))
    named = (p50("core.planner.plan_backend")
             + p50("core.scan.prefilter.screen")
             + p50("core.scan.prefilter.count_segments"))
    client_ms = client_p50 * 1e3
    layer["trace.unattributed_frac"] = max(0.0, client_ms - named) / client_ms
    layer["trace.overhead_frac"] = \
        p50("core.backends.execute") / client_ms - 1.0
    layer["trace.spans"] = len(tracer.spans)
