"""Live scan service under closed-loop load.

Hosts the daemon in-process (:class:`~repro.service.daemon.ServiceThread`),
drives it with the closed-loop load generator in both one-shot ``SCAN``
and sessioned ``FLOW`` modes, and fires hot reloads while the load runs.
The acceptance bar of the service layer:

* **zero failed requests**, including across dictionary swaps (the
  lease/promote guarantee of the registry);
* **warm swap** — re-deploying a rule set already in the artifact cache
  does zero automaton builds (checked against ``compiled.COUNTERS``);
* **STATS consistency** — the daemon's own counters agree with the
  client-side view of the run.

Emits ``BENCH_service.json`` with throughput, p50/p95/p99 latency and
the daemon's final metrics snapshot.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1``        — small run: the CI smoke job.
* ``REPRO_BENCH_LOAD_CONNS``     — closed-loop connections (default 4).
* ``REPRO_BENCH_LOAD_REQUESTS``  — requests per connection.
"""

import os
import threading
import time

from repro.analysis import metrics_table
from repro.core.compiled import COUNTERS
from repro.service import (ScanService, ServiceClient, ServiceConfig,
                           ServiceThread, run_load)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CONNECTIONS = int(os.environ.get("REPRO_BENCH_LOAD_CONNS", "4"))
REQUESTS = int(os.environ.get("REPRO_BENCH_LOAD_REQUESTS",
                              "50" if SMOKE else "400"))

PATTERNS = ["virus", "worm", "trojan", "backdoor", "exploit"]
ALT_PATTERNS = PATTERNS + ["rootkit", "phishing"]


def test_service_load_report(report, report_json, tmp_path):
    config = ServiceConfig(port=0, max_pending=256,
                           scan_threads=min(4, os.cpu_count() or 1))
    service = ScanService(PATTERNS, config=config,
                          cache=tmp_path / "artifacts")
    with ServiceThread(service) as handle:
        with ServiceClient(handle.host, handle.port) as admin:
            # -- hot-reload correctness, measured synchronously --------
            cold = admin.reload(ALT_PATTERNS)
            assert not cold.warm
            builds_before = COUNTERS["automaton_builds"]
            warm = admin.reload(PATTERNS)     # compiled at startup
            assert warm.warm, "cached rule set re-deployed cold"
            assert COUNTERS["automaton_builds"] == builds_before, \
                "warm swap ran automaton builds"

            # -- SCAN load with reloads firing mid-run -----------------
            stop = threading.Event()

            def _reloader():
                sets = [ALT_PATTERNS, PATTERNS]
                for i in range(500):            # paced by the load below
                    admin.reload(sets[i % 2])   # all warm by now
                    if stop.wait(0.01):
                        break

            reloader = threading.Thread(target=_reloader, daemon=True)
            reloader.start()
            scan = run_load(handle.host, handle.port,
                            connections=CONNECTIONS,
                            requests_per_connection=REQUESTS,
                            patterns=[p.encode() for p in PATTERNS],
                            match_fraction=0.3, seed=17)
            stop.set()
            reloader.join(timeout=30)

            # -- FLOW load on the same daemon --------------------------
            flow = run_load(handle.host, handle.port, mode="flow",
                            connections=CONNECTIONS,
                            requests_per_connection=max(10, REQUESTS // 4),
                            flows_per_connection=8,
                            patterns=[p.encode() for p in PATTERNS],
                            match_fraction=0.3, seed=18)

            stats = admin.stats()

    # Zero failed requests across every swap.
    assert scan.errors == 0, scan.error_codes
    assert flow.errors == 0, flow.error_codes
    assert len(scan.generations) >= 2, \
        "no reload landed during the scan phase"

    # STATS agrees with the client-side view.
    metrics = stats["metrics"]
    assert metrics["requests"]["SCAN"] == scan.requests
    assert metrics["requests"]["FLOW"] == flow.requests
    assert metrics["bytes_scanned"] == scan.bytes_sent + flow.bytes_sent
    assert metrics["reloads"]["count"] >= 3
    assert metrics["reloads"]["warm"] >= metrics["reloads"]["count"] - 1
    assert metrics["errors"] == 0

    text = "\n".join([
        f"Service load, {os.cpu_count()} host core(s), "
        f"{CONNECTIONS} connection(s) x {REQUESTS} request(s)",
        f"  scan : {scan.summary()}",
        f"  flow : {flow.summary()}",
        f"  swaps: {metrics['reloads']['count']} "
        f"({metrics['reloads']['warm']} warm), cold "
        f"{cold.seconds * 1e3:.1f} ms / warm {warm.seconds * 1e3:.1f} ms",
        "",
        metrics_table(metrics),
    ])
    report("service", text)
    report_json("service", {
        "host_cores": os.cpu_count(),
        "connections": CONNECTIONS,
        "requests_per_connection": REQUESTS,
        "scan": scan.to_payload(),
        "flow": flow.to_payload(),
        "reload": {
            "cold_seconds": round(cold.seconds, 4),
            "warm_seconds": round(warm.seconds, 4),
            "count": metrics["reloads"]["count"],
            "warm_count": metrics["reloads"]["warm"],
        },
        "stats": metrics,
    })


POOL_SWEEP = [1, 2] if SMOKE else [1, 2, 4]


def test_pool_worker_sweep(report, report_json):
    """Gateway + worker-pool mode across pool sizes.

    Per-worker load is held constant (two closed-loop connections per
    worker) so the single-worker p99 is comparable across rows; the
    largest pool additionally takes hot reloads mid-load and must
    finish with **zero failed requests**.  Every worker must report
    zero automaton builds — the compile-once / attach-everywhere
    contract of the shared-memory pool.  Scaling itself is *recorded*,
    not asserted: the regression gate (``check_bench_regression.py``)
    judges it against ``REPRO_BENCH_POOL_MIN`` only when the host has
    the cores to deliver a speedup.
    """
    requests = max(20, REQUESTS // 2)
    rows = []
    for w in POOL_SWEEP:
        config = ServiceConfig(port=0, max_pending=256,
                               pool_workers=w)
        service = ScanService(PATTERNS, config=config)
        with ServiceThread(service) as handle:
            stop = threading.Event()
            reloader = admin = None
            if w == POOL_SWEEP[-1]:
                admin = ServiceClient(handle.host, handle.port)

                def _reloader():
                    sets = [ALT_PATTERNS, PATTERNS]
                    for i in range(500):     # paced by the load below
                        admin.reload(sets[i % 2])
                        if stop.wait(0.02):
                            break

                reloader = threading.Thread(target=_reloader,
                                            daemon=True)
                reloader.start()
            result = run_load(handle.host, handle.port,
                              connections=2 * w,
                              requests_per_connection=requests,
                              patterns=[p.encode() for p in PATTERNS],
                              match_fraction=0.3, seed=23)
            stop.set()
            if reloader is not None:
                reloader.join(timeout=60)
                admin.close()
            with ServiceClient(handle.host, handle.port) as client:
                stats = client.stats()
        assert result.errors == 0, result.error_codes
        pool = stats["pool"]
        assert pool["size"] == w
        assert pool["restarts"] == 0, "worker crashed during the sweep"
        for worker in pool["workers"]:
            assert worker["automaton_builds"] == 0, \
                f"worker {worker['index']} built an automaton " \
                f"(shared-memory attach contract broken)"
        if w == POOL_SWEEP[-1]:
            assert len(result.generations) >= 2, \
                "no reload landed during the max-pool run"
        rows.append({
            "workers": w,
            "connections": 2 * w,
            "requests": result.requests,
            "rps": round(result.requests_per_second, 1),
            "p99_ms": round(result.p99_ms, 3),
            "gbps": round(result.gbps, 4),
        })
    base_rps = rows[0]["rps"] or 1.0
    for row in rows:
        row["scaling"] = round(row["rps"] / base_rps, 3)
        row["scaling_efficiency"] = round(
            row["scaling"] / row["workers"], 3)

    lines = [f"Worker-pool sweep, {os.cpu_count()} host core(s), "
             f"2 connections/worker x {requests} request(s)"]
    for row in rows:
        lines.append(
            f"  {row['workers']} worker(s): {row['rps']:8.0f} req/s, "
            f"p99 {row['p99_ms']:7.2f} ms, scaling {row['scaling']:.2f}x"
            f" (efficiency {row['scaling_efficiency']:.2f})")
    lines.append("  (largest pool took hot reloads mid-load — "
                 "zero failed requests asserted)")
    report("service_pool", "\n".join(lines))
    report_json("service", {
        "pool_sweep": {
            "host_cores": os.cpu_count(),
            "requests_per_connection": requests,
            "rows": rows,
        },
    }, merge=True)


def test_benchmark_oneshot_scan_rtt(benchmark):
    """Round-trip time of one SCAN over the local socket — the
    service-layer overhead on top of the backend's scan time."""
    payload = (b"x" * 1400).replace(b"xx", b"vi", 1)
    with ServiceThread(ScanService(PATTERNS)) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            client.scan(payload)              # warm the path

            def _roundtrip():
                return client.scan(payload)

            result = benchmark.pedantic(_roundtrip, rounds=20,
                                        iterations=5)
    assert result.matches >= 0


def test_reload_does_not_stall_scans():
    """Latency guard: scans issued while a reload is in flight must not
    wait for the compile — the active generation keeps serving."""
    with ServiceThread(ScanService(PATTERNS)) as handle:
        with ServiceClient(handle.host, handle.port) as admin:
            with ServiceClient(handle.host, handle.port) as client:
                baseline = []
                for _ in range(20):
                    t0 = time.perf_counter()
                    client.scan(b"quiet traffic " * 50)
                    baseline.append(time.perf_counter() - t0)

                done = threading.Event()

                def _reload_loop():
                    big = [f"sig{i:04d}{os.urandom(4).hex()}"
                           for i in range(300)]
                    admin.reload(big)
                    done.set()

                t = threading.Thread(target=_reload_loop, daemon=True)
                t.start()
                during = []
                while not done.is_set() and len(during) < 200:
                    t0 = time.perf_counter()
                    client.scan(b"quiet traffic " * 50)
                    during.append(time.perf_counter() - t0)
                t.join(timeout=60)

    assert during, "reload finished before any concurrent scan"
    base = sorted(baseline)[len(baseline) // 2]
    worst = max(during)
    # Generous bound: a scan overlapping the swap may pay scheduling
    # noise, but never the full compile (hundreds of ms).
    assert worst < max(20 * base, 0.25), \
        f"scan stalled {worst * 1e3:.1f} ms during reload " \
        f"(baseline p50 {base * 1e3:.1f} ms)"
