"""Vectorized window verification: ``count_segments`` gathers every
candidate window into padded lane matrices and runs them through the
kernel's lockstep lanes.  It must equal scanning each window alone from
the start state, for every kernel and every window layout."""

import numpy as np
import pytest

from repro.core.compiled import compile_dictionary
from repro.core.scan import prefilter as prefilter_mod
from repro.core.scan.kernels import get_kernel
from repro.core.scan.prefilter import count_segments

WORDS = [b"virus", b"worm", b"trojan", b"abab", b"ABABAB", b"tac",
         b"backdoor"]
KERNELS = ("flat", "fused", "hotcold", "hotcold2")


def _block(length, seed):
    """Dictionary words among filler bytes, so short windows match."""
    rng = np.random.default_rng(seed)
    pool = WORDS + [b"x", b" ", b"\x00", b"aba", b"ta"]
    picks = rng.integers(0, len(pool), length)
    return np.frombuffer(b"".join(pool[i] for i in picks)[:length],
                         dtype=np.uint8)


@pytest.fixture(scope="module", params=[1 << 30, 24],
                ids=["one-slice", "partitioned"])
def kernels(request):
    compiled = compile_dictionary(WORDS, max_states=request.param)
    return {name: get_kernel(name).from_compiled(compiled)
            for name in KERNELS}


def _reference(kern, arr, segments):
    return sum(kern.count_total(arr[lo:hi]) if hi > lo else 0
               for lo, hi in np.asarray(segments).reshape(-1, 2).tolist())


def _check(kernels, arr, segments):
    segments = np.asarray(segments, dtype=np.int64).reshape(-1, 2)
    want = _reference(kernels["flat"], arr, segments)
    for name, kern in kernels.items():
        assert _reference(kern, arr, segments) == want, name
        assert count_segments(kern, arr, segments) == want, name
    return want


def test_empty_segment_array(kernels):
    arr = _block(1000, 1)
    assert _check(kernels, arr, np.empty((0, 2), dtype=np.int64)) == 0


def test_windows_at_offset_zero_and_block_end(kernels):
    arr = _block(5000, 2)
    n = arr.size
    assert _check(kernels, arr, [(0, 37), (100, 160), (n - 53, n)]) > 0
    # One window spanning the whole block.
    _check(kernels, arr, [(0, n)])


def test_odd_lengths(kernels):
    """Odd lengths and odd offsets exercise the pair-stride kernel's
    single-step edges at every ragged segment boundary."""
    arr = _block(20_000, 3)
    rng = np.random.default_rng(4)
    segments, pos = [], 1
    while pos < arr.size - 80:
        length = int(rng.integers(1, 40)) * 2 + 1
        segments.append((pos, pos + length))
        pos += length + int(rng.integers(1, 9))
    assert _check(kernels, arr, segments) > 0


def test_many_windows_of_equal_length(kernels):
    arr = _block(40_000, 5)
    segments = [(lo, lo + 24) for lo in range(0, arr.size - 24, 31)]
    assert len(segments) > 1000
    assert _check(kernels, arr, segments) > 0


def test_window_larger_than_group_budget(kernels, monkeypatch):
    monkeypatch.setattr(prefilter_mod, "GROUP_BUDGET_BYTES", 512)
    arr = _block(10_000, 6)
    # One window over the budget (block path), then enough small ones
    # to split into several budget-bounded groups.
    segments = [(0, 3000)] + [(lo, lo + 40)
                              for lo in range(3100, 9900, 45)]
    assert _check(kernels, arr, segments) > 0


def test_run_streams_is_run_windows_over_concatenated_streams(kernels):
    arr = _block(3000, 7)
    bounds = [(0, 0), (0, 17), (17, 900), (900, 901), (901, 3000)]
    streams = [arr[lo:hi].tobytes() for lo, hi in bounds]
    starts = np.array([lo for lo, _ in bounds], dtype=np.int64)
    lens = np.array([hi - lo for lo, hi in bounds], dtype=np.int64)
    for name, kern in kernels.items():
        totals, finals = kern.run_streams(streams)
        w_totals, w_finals = kern.run_windows(arr, starts, lens)
        assert np.array_equal(totals, w_totals), name
        assert np.array_equal(finals, w_finals), name
        assert totals[0] == 0
