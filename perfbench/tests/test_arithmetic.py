"""The benchmark's own arithmetic: quantiles, closed-loop capacity, span
self time, open-loop latency and failure accounting.

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import time

import pytest

from perfbench.stats import Tally, quantile, summarize, tail_supported
from perfbench.trace import Span, Tracer, covered, self_times


# -- nearest-rank quantiles ----------------------------------------------------


def test_nearest_rank_quantiles():
    samples = [7, 1, 10, 3, 5, 2, 9, 4, 8, 6]      # 1..10, unsorted
    assert quantile(samples, 0.5) == 5
    assert quantile(samples, 0.9) == 9
    assert quantile(samples, 0.95) == 10
    assert quantile(samples, 1.0) == 10
    assert quantile(samples, 0.01) == 1
    assert quantile([4.2], 0.99) == 4.2
    # Always an observed value, never an interpolation.
    assert quantile([1.0, 2.0], 0.5) == 1.0


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1], 0.0)


def test_tail_needs_ten_samples_beyond():
    # p95 of 200 samples is rank 190: exactly 10 lie beyond it.
    assert tail_supported(200, 0.95)
    assert not tail_supported(199, 0.95)
    assert tail_supported(1000, 0.99)
    assert not tail_supported(1000, 0.999)
    assert not tail_supported(5, 0.5)
    s = summarize([float(i) for i in range(1, 201)])
    assert s["p95"] == 190
    assert (s["n"], s["median"], s["q1"], s["q3"]) == (200, 100, 50, 150)
    assert s["p95_supported"] and not s["p99_supported"]


def test_capacity_counts_replies_inside_each_phase():
    from perfbench.wl_flow_policy import ClosedPhase, capacity
    # Two 2-second phases; the reply at 12.5 s came after its phase's
    # deadline (it was in flight when the phase ended) and is not
    # counted.
    phases = [ClosedPhase(start=0.0, end=2.0, done=[0.5, 1.0, 1.9],
                          sizes=[100, 100, 100]),
              ClosedPhase(start=10.0, end=12.0, done=[11.0, 12.5],
                          sizes=[1000, 1000])]
    m = capacity(phases)
    assert m["rps"] == pytest.approx(4 / 4.0)
    assert m["gbps"] == pytest.approx(1300 * 8 / 4.0 / 1e9)


# -- span self time ------------------------------------------------------------


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 3.0, 1, 1),
        Span(3, "b", 2.0, 5.0, 1, 1),      # overlaps a: union [1, 5]
        Span(4, "c", 8.0, 12.0, 1, 1),     # reaches past the root's end
        Span(5, "a.inner", 1.5, 2.5, 2, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 4 - 2)
    assert own[2] == pytest.approx(2 - 1)      # grandchild only hits a
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(4)
    assert own[5] == pytest.approx(1)


def test_covered_merges_and_clips():
    assert covered((0, 10), []) == 0
    assert covered((0, 10), [(2, 4), (3, 6), (6, 7)]) == pytest.approx(5)
    assert covered((0, 10), [(-5, -1), (11, 12)]) == 0
    assert covered((0, 10), [(-5, 20)]) == pytest.approx(10)


def test_tracer_table_and_disabled_tracer():
    tracer = Tracer()
    with tracer.span("outer", request=1) as root:
        with tracer.span("inner", root, 1):
            time.sleep(0.002)
    table = tracer.layer_table()
    assert table["outer"]["count"] == 1
    assert table["outer"]["self_p50_ms"] < table["outer"]["p50_ms"]
    assert table["inner"]["self_p50_ms"] == table["inner"]["p50_ms"]
    off = Tracer(enabled=False)
    with off.span("x") as sid:
        assert sid is None
    off.record("y", 0.0, 1.0)
    assert off.spans == []


# -- open loop and failure accounting --------------------------------------------


class FakeConn:
    """A connection whose daemon answers in order, the first reply
    stalled by ``stall`` seconds; ``wrong`` packet indexes get a wrong
    verdict."""

    def __init__(self, stall: float, wrong=()) -> None:
        self.stall = stall
        self.wrong = set(wrong)
        self.queue = asyncio.Queue()
        self.served = 0
        self.sent = 0

        class _Writer:
            async def drain(self_inner):
                return None

        self.writer = _Writer()

    def send(self, header, payload=b"", parent=None):
        self.sent += 1
        self.queue.put_nowait(dict(header, id=self.sent))
        return self.sent

    async def read_body(self):
        header = await self.queue.get()
        if self.served == 0:
            await asyncio.sleep(self.stall)
        self.served += 1
        return header, time.perf_counter()

    def decode(self, header, parent=None, request=None):
        action = "drop" if header.get("index") in self.wrong \
            else "forward"
        return {"id": header["id"], "ok": True, "action": action}


def _items(n, spacing):
    from perfbench.wl_flow_policy import Item
    return [Item(t=k * spacing, kind="flow",
                 header={"verb": "FLOW", "flow": "t0-flow-0", "index": k},
                 payload=b"x" * 10, expect="forward", index=k)
            for k in range(n)]


def _run_open_loop(conn, items):
    from perfbench.wl_flow_policy import _open_loop
    tally = Tally()
    phase = asyncio.run(
        _open_loop([conn], [items], tally, Tracer(enabled=False),
                   timeout=10))
    return tally, phase.lat, phase.late, phase.actions


def test_open_loop_latency_counts_from_scheduled_send():
    # Requests due every 10 ms; the first reply stalls 100 ms.  Later
    # requests were sent on time but queue behind the stall, and their
    # latency must include that wait: request k is answered ~100 ms
    # after the start, i.e. ~(100 - 10k) ms after it was due.
    tally, lat, late, _ = _run_open_loop(FakeConn(0.1), _items(5, 0.01))
    flow = lat["flow"]
    assert len(flow) == 5 and tally.failed == 0
    for k, x in enumerate(flow):
        assert x >= 0.1 - 0.01 * k - 0.005
    assert flow[4] >= 0.05
    # The sender itself kept to the schedule.
    assert max(late) < 0.05


def test_wrong_reply_counts_into_error_frac():
    tally, lat, _, actions = _run_open_loop(FakeConn(0.0, wrong={2}),
                                            _items(4, 0.001))
    assert tally.attempted == 4 and tally.failed == 1
    assert tally.error_frac == pytest.approx(0.25)
    assert tally.failures == {"wrong-verdict": 1}
    assert actions == {"forward": 3, "drop": 1}


def test_tally_counts_every_reason():
    t = Tally()
    t.check(True, "wrong-count")
    t.fail("busy", "refused")
    t.check(False, "wrong-count", "3 != 4")
    assert (t.attempted, t.failed) == (3, 2)
    assert t.failures == {"busy": 1, "wrong-count": 1}
    assert t.error_frac == pytest.approx(2 / 3)
    assert Tally().error_frac == 0.0
