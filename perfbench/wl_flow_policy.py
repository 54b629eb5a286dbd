"""Workload ``flow_policy``: tenant FLOW packets against a pooled
``repro serve``, open loop, with dictionary and policy swaps under load.

The daemon runs ``repro serve --pool-workers 2 --tenants-json`` in its
own process, with one tenant: a 1,000-entry ``ascii_keywords``
dictionary and drop, alert and rate-limit rule groups.  One load
process sends seeded ``tenant_traffic`` FLOW packets (HTTP-shaped, 512
flows, 10% carrying a planted attack) on a fixed schedule at
:data:`RATE` requests/s over 2 connections, from one thread.  Every
flow stays on one connection, so its packets reach the daemon in
order.  On connection 0 a tenant-dictionary RELOAD and a POLICY swap
alternate every :data:`ADMIN_PERIOD_S` seconds.  Latency is timed from
each request's scheduled send time; how late the sender ran is
reported as ``loadgen.late_ms_p95``, and a run whose sender fell more
than :data:`LATE_LIMIT_MS` behind is flagged.  The open loop sets
``p50_ms`` and ``reload_p50_ms``.  Its throughput is the offered rate,
so ``rps`` and ``gbps`` come from closed-loop phases instead: each
connection keeps :data:`CAPACITY_DEPTH` FLOWs in flight, and the two
connections together measure how many FLOWs per second the daemon
completes.  The timed phase is :data:`ROUNDS` rounds of open loop then
closed loop, so both kinds of phase sample the whole run: the host's
speed drifts over tens of seconds, and a single closed-loop phase at
the end would measure only its last stretch.

Correctness: every FLOW verdict must equal the planted-attack ground
truth.  Rules are first-match with threshold 1, so a flow forwards
until its first planted attack and then keeps that attack's group
action; the rate-limit bucket is sized never to run dry.  The swapped
dictionaries differ only by entries the traffic never contains, and
the two policies only by a rule on such an entry; set-up verifies that
every rule and swap entry occurs in each flow's byte stream exactly as
often as it was planted.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import compile_dictionary
from repro.core.planner import plan_backend
from repro.policy import Rule, RuleSet, Tenant
from repro.service.protocol import encode_patterns
from repro.service.sessions import SessionScanner
from repro.workloads.dictionary import ascii_keywords
from repro.workloads.traffic import tenant_traffic

from .metrics import RunResult, SetupError
from .service import Conn, ping_rtts, start_daemons
from .stats import quantile
from .trace import Tracer

TENANT = "t0"
DICTIONARY = 1000
#: The tenant dictionary is part of the workload; only the traffic
#: follows the run's seed.
DICTIONARY_SEED = 7
GROUP = 20                      # entries per rule group
FLOWS = 512
ATTACK_FRACTION = 0.1
MIN_BODY, MAX_BODY = 256, 1200
CONNECTIONS = 2
POOL_WORKERS = 2
#: Offered FLOW rate (req/s), about a third of the closed-loop FLOW
#: capacity measured on a 2-core host.
RATE = 120.0
#: A RELOAD or a POLICY swap every this many seconds, alternating.
ADMIN_PERIOD_S = 0.5
#: Share of the timed phase that measures closed-loop FLOW capacity.
CAPACITY_SHARE = 1 / 3
#: Open-loop/closed-loop rounds the timed phase is cut into.
ROUNDS = 6
#: FLOWs each connection keeps in flight in the capacity phase: enough
#: that both pool workers always have work queued.
CAPACITY_DEPTH = 4
#: A sender more than this late at p95 flags the run: its latencies
#: are still timed from the schedule, but the load it offered was
#: burstier than planned.
LATE_LIMIT_MS = 10.0
SETUPS = 5
WARMUP_PACKETS = 100
#: Packets replayed in-process for the per-layer split.
REPLAY_PACKETS = 400
PINGS = 200


@dataclass
class Item:
    """One scheduled request."""

    t: float                     # due time, seconds from start
    kind: str                    # flow / reload / policy
    header: Dict[str, object]
    payload: bytes = b""
    expect: str = ""             # expected verdict action (flow)
    index: int = -1              # packet index (flow)


def _isolated(candidates: List[bytes], dictionary: List[bytes],
              count: int) -> List[bytes]:
    """The first ``count`` candidates that neither contain nor sit
    inside another dictionary entry, so a match of one is never also a
    match of another."""
    out = []
    for c in candidates:
        if all(c == d or (c not in d and d not in c) for d in dictionary):
            out.append(c)
            if len(out) == count:
                return out
    raise SetupError("not enough isolated dictionary entries")


def _inputs(seed: int, packets: int):
    kw = ascii_keywords(DICTIONARY, seed=DICTIONARY_SEED)
    if not all(k.isalpha() and k.isupper() for k in kw):
        raise SetupError("keywords must be upper-case letters only")
    picked = _isolated(kw, kw, 3 * GROUP + 1)
    groups = {"drop": picked[:GROUP], "alert": picked[GROUP:2 * GROUP],
              "rate-limit": picked[2 * GROUP:3 * GROUP]}
    decoy_rule = picked[-1]
    extras = [k for k in ascii_keywords(DICTIONARY + 50,
                                        seed=DICTIONARY_SEED + 1)
              if k not in set(kw)][:8]
    rules = [
        Rule(name="drop-malware", action="drop",
             patterns=tuple(groups["drop"])),
        Rule(name="alert-recon", action="alert",
             patterns=tuple(groups["alert"])),
        # Bucket sized never to run dry within a run: the verdict of a
        # rate-limited flow stays "rate-limit", independent of timing.
        Rule(name="throttle-scan", action="rate-limit",
             patterns=tuple(groups["rate-limit"]), rate=1e6,
             burst=10 ** 9),
    ]
    alt_rules = rules + [Rule(name="mirror-decoy", action="mirror",
                              patterns=(decoy_rule,))]
    attacks = [p for g in groups.values() for p in g]
    action_of = {p: a for a, g in groups.items() for p in g}

    traffic = tenant_traffic(
        [TENANT], packets + WARMUP_PACKETS, flows_per_tenant=FLOWS,
        attack_patterns={TENANT: attacks},
        attack_fraction=ATTACK_FRACTION, min_body=MIN_BODY,
        max_body=MAX_BODY, seed=seed)
    warm = traffic[:WARMUP_PACKETS]
    for p in warm:
        p.flow = "warm-" + p.flow
    traffic = traffic[WARMUP_PACKETS:]

    # Verify: each rule and swap entry occurs in each flow's stream
    # exactly as often as it was planted.  Entries are letters only,
    # and the case fold maps only letters to letter symbols, so an
    # upper-cased substring count is exact.
    streams: Dict[str, List[bytes]] = collections.defaultdict(list)
    planted: Dict[str, collections.Counter] = \
        collections.defaultdict(collections.Counter)
    for p in warm + traffic:
        streams[p.flow].append(p.payload)
        planted[p.flow].update(p.attacks)
    watched = attacks + [decoy_rule] + extras
    for flow, parts in streams.items():
        text = b"".join(parts).upper()
        for w in watched:
            if text.count(w) != planted[flow][w]:
                raise SetupError(f"{w!r} occurs {text.count(w)}x in "
                                 f"{flow}, planted "
                                 f"{planted[flow][w]}x")
    return dict(kw=kw, extras=extras, rules=rules, alt_rules=alt_rules,
                action_of=action_of, warm=warm, traffic=traffic)


def _expected_actions(packets, action_of) -> List[str]:
    """Ground-truth verdict of each packet, in per-flow send order."""
    latched: Dict[str, str] = {}
    out = []
    for p in packets:
        if p.attacks and p.flow not in latched:
            latched[p.flow] = action_of[p.attacks[0]]
        out.append(latched.get(p.flow, "forward"))
    return out


def _connection_of(flow: str) -> int:
    return int(flow.rsplit("-", 1)[1]) % CONNECTIONS


def _flow_items(packets, actions, rate: float, t0: float) -> List[Item]:
    return [Item(t=t0 + k / rate, kind="flow",
                 header={"verb": "FLOW", "flow": p.flow,
                         "tenant": TENANT},
                 payload=p.payload, expect=actions[k], index=k)
            for k, p in enumerate(packets)]


def _admin_items(inp, seconds: float, t0: float, first: int = 0
                 ) -> List[Item]:
    """RELOADs and POLICY swaps, alternating every
    :data:`ADMIN_PERIOD_S` (or faster, so a short phase still holds one
    of each), each back and forth between the two variants.  ``first``
    is the number of swaps already sent, so consecutive phases carry
    on the alternation: every swap changes what the daemon holds."""
    sets = [inp["kw"] + inp["extras"], inp["kw"]]
    policies = [inp["alt_rules"], inp["rules"]]
    period = min(ADMIN_PERIOD_S, seconds / 2)
    items = []
    j = first
    while (j - first + 0.5) * period < seconds:
        t = t0 + (j - first + 0.5) * period
        k = j // 2
        if j % 2 == 0:
            items.append(Item(t=t, kind="reload",
                              header={"verb": "RELOAD", "regex": False,
                                      "tenant": TENANT},
                              payload=encode_patterns(sets[k % 2])))
        else:
            items.append(Item(t=t, kind="policy", header={
                "verb": "POLICY", "op": "set", "tenant": TENANT,
                "mode": "first-match",
                "rules": [r.to_spec() for r in policies[k % 2]]}))
        j += 1
    return items


@dataclass
class OpenPhase:
    """Per-request samples of one open-loop phase."""

    start: float
    lat: Dict[str, List[float]] = field(default_factory=lambda: {
        "flow": [], "reload": [], "policy": []})
    late: List[float] = field(default_factory=list)
    actions: Dict[str, int] = field(default_factory=dict)


async def _open_loop(conns: List[Conn], plan: List[List[Item]],
                     tally, tracer: Tracer, timeout: float):
    """Send every connection's items on schedule, pipelined, and pair
    replies with requests in order."""
    ph = OpenPhase(start=time.perf_counter())
    lat, late, actions = ph.lat, ph.late, ph.actions

    async def sender(conn: Conn, items: List[Item], pending) -> None:
        for item in items:
            due = ph.start + item.t
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            late.append(sent - due)
            root = tracer.reserve()
            rid = conn.send(item.header, item.payload, parent=root)
            pending.append((item, due, root, rid))
            await conn.writer.drain()

    async def receiver(conn: Conn, count: int, pending) -> None:
        for _ in range(count):
            body, arrived = await conn.read_body()
            item, due, root, rid = pending.popleft()
            reply = conn.decode(body, parent=root, request=rid)
            tracer.record(f"client.{item.kind}", due, arrived,
                          span_id=root)
            if reply.get("id") != rid:
                tally.fail("transport", f"reply id {reply.get('id')} "
                                        f"for request {rid}")
                continue
            if not reply.get("ok"):
                tally.fail(str(reply.get("code")),
                           f"{item.kind}: {reply.get('error')}")
                continue
            lat[item.kind].append(arrived - due)
            if item.kind != "flow":
                tally.ok()
                continue
            got = str(reply.get("action"))
            actions[got] = actions.get(got, 0) + 1
            tally.check(got == item.expect, "wrong-verdict",
                        f"packet {item.index} ({item.header['flow']}): "
                        f"{got} != {item.expect}")

    tasks = []
    for conn, items in zip(conns, plan):
        pending = collections.deque()
        tasks.append(sender(conn, items, pending))
        tasks.append(receiver(conn, len(items), pending))
    await asyncio.wait_for(asyncio.gather(*tasks), timeout)
    return ph


@dataclass
class ClosedPhase:
    """Per-request samples of one closed-loop capacity phase."""

    start: float
    end: float
    lat: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)


def capacity(phases: List[ClosedPhase]) -> Dict[str, float]:
    """FLOWs per second and payload Gbit/s completed over ``phases``:
    the replies that arrived before their phase's deadline, over the
    phases' summed length.  Replies to requests still in flight at the
    deadline are drained but not counted."""
    seconds = sum(ph.end - ph.start for ph in phases)
    done = nbytes = 0
    for ph in phases:
        for t, size in zip(ph.done, ph.sizes):
            if t < ph.end:
                done += 1
                nbytes += size
    return {"rps": done / seconds, "gbps": nbytes * 8 / seconds / 1e9}


async def _closed_loop(conns: List[Conn], packets, actions,
                       seconds: float, tally, tracer: Tracer, tag: int
                       ) -> ClosedPhase:
    """Each connection keeps :data:`CAPACITY_DEPTH` FLOWs in flight
    until the deadline, cycling through its own flows of ``packets``.
    Every pass renames the flows (``tag`` tells phases apart), so it
    starts fresh sessions and the expected verdicts repeat.  A
    connection's replies come back in order, so each pairs with the
    oldest request in flight."""
    start = time.perf_counter()
    ph = ClosedPhase(start=start, end=start + seconds)

    async def one(ci: int, conn: Conn) -> None:
        order = [k for k, p in enumerate(packets)
                 if _connection_of(p.flow) == ci]
        window = asyncio.Semaphore(CAPACITY_DEPTH)
        pending: asyncio.Queue = asyncio.Queue()

        async def sender() -> None:
            n = 0
            while True:
                await window.acquire()
                if time.perf_counter() >= ph.end:
                    break
                rnd, k = divmod(n, len(order))
                k = order[k]
                n += 1
                p = packets[k]
                root = tracer.reserve()
                t0 = time.perf_counter()
                rid = conn.send({"verb": "FLOW",
                                 "flow": f"cap{tag}.{rnd}-{p.flow}",
                                 "tenant": TENANT}, p.payload, parent=root)
                pending.put_nowait((k, rnd, t0, root, rid))
                await conn.writer.drain()
            pending.put_nowait(None)

        async def receiver() -> None:
            while True:
                sent = await pending.get()
                if sent is None:
                    return
                k, rnd, t0, root, rid = sent
                reply, t1 = await conn.recv(parent=root, request=rid)
                window.release()
                tracer.record("client.flow_closed", t0, t1, request=rid,
                              span_id=root)
                if reply.get("id") != rid:
                    tally.fail("transport", f"reply id {reply.get('id')} "
                                            f"for request {rid}")
                    continue
                if not reply.get("ok"):
                    tally.fail(str(reply.get("code")),
                               str(reply.get("error")))
                    continue
                ph.lat.append(t1 - t0)
                ph.done.append(t1)
                ph.sizes.append(len(packets[k].payload))
                got = str(reply.get("action"))
                tally.check(got == actions[k], "wrong-verdict",
                            f"capacity packet {k} (pass {rnd}, "
                            f"{packets[k].flow}): {got} != {actions[k]}")

        await asyncio.gather(sender(), receiver())

    await asyncio.wait_for(
        asyncio.gather(*(one(i, c) for i, c in enumerate(conns))),
        seconds + 60.0)
    return ph


def _split(items: List[Item]) -> List[List[Item]]:
    plan: List[List[Item]] = [[] for _ in range(CONNECTIONS)]
    for it in items:
        ci = 0 if it.kind != "flow" \
            else _connection_of(str(it.header["flow"]))
        plan[ci].append(it)
    for p in plan:
        p.sort(key=lambda it: it.t)
    return plan


def run(seed: int, seconds: float, trace: bool, workdir: Path
        ) -> RunResult:
    return asyncio.run(_run(seed, seconds, trace, workdir))


async def _run(seed: int, seconds: float, trace: bool, workdir: Path
               ) -> RunResult:
    res = RunResult()
    tally = res.tally
    phase = seconds / 2 if trace else seconds
    capacity_s = phase * CAPACITY_SHARE
    open_s = phase - capacity_s
    packets = int(RATE * open_s)
    traced_packets = int(RATE * seconds / 2) if trace else 0
    inp = _inputs(seed, packets + traced_packets)
    traffic = inp["traffic"]
    actions_exp = _expected_actions(inp["warm"] + traffic,
                                    inp["action_of"])
    warm_exp, actions_exp = (actions_exp[:WARMUP_PACKETS],
                             actions_exp[WARMUP_PACKETS:])
    res.params.update(
        tenant_dictionary=DICTIONARY, rule_group=GROUP, flows=FLOWS,
        attack_fraction=ATTACK_FRACTION, min_body=MIN_BODY,
        max_body=MAX_BODY, connections=CONNECTIONS,
        pool_workers=POOL_WORKERS, loop="open", rate_rps=RATE,
        admin_period_s=ADMIN_PERIOD_S, rounds=ROUNDS,
        capacity_share=CAPACITY_SHARE, capacity_loop="closed",
        capacity_depth=CAPACITY_DEPTH,
        late_limit_ms=LATE_LIMIT_MS,
        packets=packets, setups=SETUPS)

    tenants = {TENANT: {"patterns": [k.decode() for k in inp["kw"]],
                        "rules": [r.to_spec() for r in inp["rules"]]}}
    tenants_path = workdir / "tenants.json"
    tenants_path.write_text(json.dumps(tenants))
    args = ["--pattern", "flowbench-default", "--pool-workers",
            str(POOL_WORKERS), "--tenants-json", str(tenants_path)]
    tracer = Tracer(enabled=False)
    setups, daemon, conn0 = await start_daemons(
        workdir, args, "flow", tracer, SETUPS)
    conns = [conn0]
    try:
        res.samples["setup_s"] = setups
        res.end_to_end["setup_s"] = quantile(setups, 0.5)
        for _ in range(CONNECTIONS - 1):
            conns.append(await Conn.open(daemon.host, daemon.port, tracer))

        # Warm-up on flows of their own, closed enough to settle the
        # workers, checked like the rest.
        warm_items = _flow_items(inp["warm"], warm_exp, RATE, 0.0)
        await _open_loop(conns, _split(warm_items), tally, tracer,
                         timeout=60.0)
        # One swap to each dictionary and policy and back, so the
        # artifact cache holds both dictionaries and every timed swap
        # is warm; the cold compile is part of setup_s.
        warm_swaps = _admin_items(inp, 4 * ADMIN_PERIOD_S, 0.0)
        for item in warm_swaps:
            await conn0.call(item.header, item.payload)
            tally.ok()

        # Rounds of FLOW load with the swaps beside it, each followed by
        # closed-loop capacity on the same packets under fresh names.
        per_round = packets // ROUNDS
        swaps = len(warm_swaps)
        flow_lat: List[float] = []
        admin: Dict[str, List[float]] = {"reload": [], "policy": []}
        late: List[float] = []
        actions: Dict[str, int] = {}
        closed: List[ClosedPhase] = []
        for r in range(ROUNDS):
            lo, hi = r * per_round, (r + 1) * per_round
            admin_items = _admin_items(inp, open_s / ROUNDS, 0.0, swaps)
            swaps += len(admin_items)
            ph = await _open_loop(
                conns, _split(_flow_items(traffic[lo:hi],
                                          actions_exp[lo:hi], RATE, 0.0)
                              + admin_items),
                tally, tracer, timeout=phase + 60.0)
            flow_lat += ph.lat["flow"]
            for kind in admin:
                admin[kind] += ph.lat[kind]
            late += ph.late
            for name, n in ph.actions.items():
                actions[name] = actions.get(name, 0) + n
            closed.append(await _closed_loop(
                conns, traffic[:packets], actions_exp[:packets],
                capacity_s / ROUNDS, tally, tracer, tag=r))
        res.samples["latency_ms"] = [x * 1e3 for x in flow_lat]
        res.samples["reload_ms"] = [x * 1e3 for x in admin["reload"]]
        res.samples["policy_ms"] = [x * 1e3 for x in admin["policy"]]
        res.samples["late_ms"] = [x * 1e3 for x in late]
        res.samples["capacity_latency_ms"] = \
            [x * 1e3 for ph in closed for x in ph.lat]
        res.end_to_end.update(capacity(closed))
        res.end_to_end.update(
            p50_ms=quantile(flow_lat, 0.5) * 1e3,
            p95_ms=quantile(flow_lat, 0.95) * 1e3,
            p99_ms=quantile(flow_lat, 0.99) * 1e3,
            reload_p50_ms=quantile(admin["reload"], 0.5) * 1e3)
        res.notes["open_loop_offered_rps"] = RATE
        res.notes["client_actions"] = actions
        late_p95 = quantile(late, 0.95) * 1e3
        layer = res.per_layer
        layer["loadgen.late_ms_p95"] = late_p95
        layer["policy.swap_p50_ms"] = quantile(admin["policy"], 0.5) * 1e3
        if late_p95 > LATE_LIMIT_MS:
            res.flag = (f"open-loop sender fell behind schedule: "
                        f"late p95 {late_p95:.2f} ms > "
                        f"{LATE_LIMIT_MS} ms")

        if trace:
            tracer.enabled = True
            res.notes["tracer"] = tracer
            t_items = _flow_items(traffic[packets:],
                                  actions_exp[packets:], RATE, 0.0) \
                + _admin_items(inp, seconds / 2, 0.0, swaps)
            t_phase = await _open_loop(
                conns, _split(t_items), tally, tracer,
                timeout=seconds / 2 + 60.0)
            tracer.enabled = False
            pings = await ping_rtts(conn0, PINGS)
        stats = await conn0.call({"verb": "STATS"})
    finally:
        for c in conns:
            await c.close()
        daemon.stop()

    _stats_layers(res, stats)
    if trace:
        _replay(res, inp, quantile(flow_lat, 0.5),
                quantile(t_phase.lat["flow"], 0.5), quantile(pings, 0.5),
                tracer)
    return res


def _stats_layers(res: RunResult, stats: Dict[str, object]) -> None:
    m = stats["metrics"]
    layer = res.per_layer
    adm = m["admission"]
    layer["daemon.queue_high_water"] = adm["queue_high_water"]
    layer["daemon.rejected"] = adm["rejected"]
    layer["daemon.timeouts"] = adm["timeouts"]
    flow_hist = m.get("backends", {}).get("flow", {})
    layer["daemon.backend_p50_ms"] = flow_hist.get("p50_ms", 0.0)
    layer["pool.worker_p50_ms"] = flow_hist.get("p50_ms", 0.0)
    layer["pool.hop_ms"] = res.end_to_end["p50_ms"] \
        - flow_hist.get("p50_ms", 0.0)
    pool = stats.get("pool", {})
    layer["pool.restarts"] = pool.get("restarts", 0)
    layer["pool.automaton_builds"] = sum(
        int(w.get("automaton_builds", 0)) for w in pool.get("workers", []))
    rl = m["reloads"]
    layer["registry.swap_p50_ms"] = rl["swap_latency"]["p50_ms"]
    layer["registry.warm_frac"] = rl["warm"] / max(1, rl["count"])
    layer["sessions.evictions"] = m.get("flow_evictions", 0)
    tm = m.get("tenants", {}).get(TENANT, {})
    layer["policy.verdict_p50_ms"] = \
        tm.get("verdict_latency", {}).get("p50_ms", 0.0)
    for action, n in tm.get("actions", {}).items():
        layer[f"policy.actions.{action}"] = n
    res.notes["stats_metrics"] = m
    res.notes["stats_pool"] = pool


def _replay(res: RunResult, inp, client_p50: float, traced_p50: float,
            ping_p50: float, tracer: Tracer) -> None:
    """Replay the first packets through the session and policy layers
    in-process, each call spanned, and split client p50 between them.
    The same payloads also go through the planner and a stateless
    auto-planned ``execute()``: the packet-sized path a SCAN takes."""
    tracer.enabled = True
    packets = inp["traffic"][:REPLAY_PACKETS]
    with tracer.span("core.compiled.compile_dictionary"):
        compiled = compile_dictionary(inp["kw"])
    sessions = SessionScanner(compiled)
    tenant = Tenant(TENANT, inp["kw"], rules=RuleSet(tuple(inp["rules"])))
    try:
        with ScanContext(compiled) as ctx:
            # Interleaved per packet, so drift in host speed hits all
            # alike.
            for i, p in enumerate(packets):
                with tracer.span("service.sessions.scan_packet",
                                 request=i):
                    sessions.scan_packet(p.flow, p.payload)
                with tracer.span("policy.Tenant.scan_packet", request=i):
                    tenant.scan_packet(p.flow, p.payload)
                with tracer.span("core.planner.plan_backend", request=i):
                    plan_backend(nbytes=len(p.payload),
                                 num_slices=compiled.num_slices,
                                 exact=compiled.supports_hot_cold,
                                 fused_bytes=compiled.fused_table_bytes,
                                 pair_fit=compiled.pair_table_fits())
                with tracer.span("core.backends.execute", request=i):
                    execute(ctx, ScanRequest(data=p.payload))
    finally:
        tenant.close()
    tracer.enabled = False
    p50 = tracer.p50_ms
    layer = res.per_layer
    client_ms = client_p50 * 1e3
    encode, decode = (p50("service.protocol.encode_frame"),
                      p50("service.protocol.decode_frame"))
    sess_ms = p50("service.sessions.scan_packet")
    pol_ms = p50("policy.Tenant.scan_packet")
    ping_ms = ping_p50 * 1e3
    layer["compiled.compile_s"] = \
        p50("core.compiled.compile_dictionary") / 1e3
    layer["planner.plan_us"] = p50("core.planner.plan_backend") * 1e3
    layer["execute.packet_us"] = p50("core.backends.execute") * 1e3
    layer["protocol.encode_us"] = encode * 1e3
    layer["protocol.decode_us"] = decode * 1e3
    layer["sessions.packet_us"] = sess_ms * 1e3
    layer["policy.packet_us"] = pol_ms * 1e3
    layer["policy.verdict_us"] = (pol_ms - sess_ms) * 1e3
    layer["daemon.ping_rtt_us"] = ping_ms * 1e3
    layer["daemon.unattributed_ms"] = client_ms - pol_ms - ping_ms
    named = encode + decode + pol_ms + ping_ms
    layer["trace.unattributed_frac"] = max(0.0, client_ms - named) / client_ms
    layer["trace.overhead_frac"] = traced_p50 / client_p50 - 1.0
    layer["trace.spans"] = len(tracer.spans)
