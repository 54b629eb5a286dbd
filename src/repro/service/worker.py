"""Scan workers: the per-request op table and the two hosts that run it.

:class:`RequestOps` holds SCAN, FLOW and CLOSE_FLOW, each written once.
In-process mode runs it through one :class:`InlineWorker` on the
daemon's scan threads; pool mode runs it in forked worker processes.

A pool worker is the paper's SPE: the gateway (PPE) compiles the
dictionary once, places it in shared memory as a ``SharedArrayBundle``,
and each worker process *attaches* — it rebuilds a
:class:`~repro.core.compiled.CompiledDictionary` from the shared views
with **zero** automaton builds (``COUNTERS["automaton_builds"]`` is
reset at worker entry and reported over the ready handshake and STATS,
so the compile-once/map-everywhere contract is provable end to end).

A pool worker is deliberately single-threaded: it owns a duplex pipe to
the gateway and serves one message at a time, so a generation swap can
never race a scan *within* a worker — the cross-worker ordering is the
gateway's job (workers lease the new bundle before the gateway retires
the old one).  Flow sessions and verdict state live here, placed by
the gateway's consistent hash, which is what keeps a flow's DFA state
core-local across its lifetime.

Wire format (over ``multiprocessing.Pipe``): requests are
``(kind, seq, meta, payload)`` tuples, responses ``(seq, ok, result)``
where ``result`` is a picklable dict (an error descriptor with
``code``/``error`` when ``ok`` is false).  ``seq == -1`` is the ready
handshake.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..core.backends import BackendError, ScanRequest, execute
from ..core.compiled import COUNTERS, CompileError
from ..core.flows import FlowError
from ..core.scan.bundle import SharedArrayBundle, compiled_from_bundle
from ..policy.rules import PolicyError, RuleSet
from ..policy.tenants import Tenant, TenantError, TenantManager
from .metrics import ServiceMetrics
from .protocol import ProtocolError
from .registry import DictionaryRegistry, RegistryError

__all__ = ["InlineWorker", "RequestOps", "error_reply", "worker_main"]


def error_reply(exc: BaseException) -> Tuple[str, str]:
    """The service's error taxonomy: ``(code, message)`` for a failed
    request.  Applied worker-side in pool mode and by the daemon for
    its own verbs, so clients see the same codes in either mode."""
    if isinstance(exc, (BackendError, ProtocolError, RegistryError,
                        CompileError, PolicyError, TenantError,
                        ValueError)):
        return "bad-request", str(exc)
    if isinstance(exc, FlowError):
        return "flow-error", str(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


class RequestOps:
    """The per-request op table: SCAN, FLOW and CLOSE_FLOW, each
    written once.

    Both scan hosts run it — a pool worker over its attached replicas
    and private metrics, and the in-process daemon's
    :class:`InlineWorker` over the gateway's own registry, tenants and
    metrics — so the two modes build every reply with the same code.
    Each op takes ``(meta, payload)`` and returns the reply fields
    (the daemon adds ``id``/``ok``).
    """

    def __init__(self, registry: DictionaryRegistry,
                 tenants: TenantManager, metrics: ServiceMetrics,
                 max_events: int) -> None:
        self.registry = registry
        self.tenants = tenants
        self.metrics = metrics
        self.max_events = max_events
        self.table = {"scan": self.scan, "flow": self.flow,
                      "close_flow": self.close_flow}

    def _tenant(self, name) -> Optional[Tenant]:
        return self.tenants.get(str(name)) if name else None

    def scan(self, meta: Dict, payload: bytes) -> Dict:
        tenant = self._tenant(meta.get("tenant"))
        with_events = bool(meta.get("events"))
        request = ScanRequest(data=payload,
                              workers=int(meta.get("workers", 1)),
                              with_events=with_events)
        registry = tenant.registry if tenant is not None else self.registry
        with registry.lease() as gen:
            outcome = execute(gen.ctx, request, meta.get("backend"))
            self.metrics.record_scan(
                outcome.backend, outcome.seconds,
                outcome.bytes_scanned, outcome.total_matches)
            header: Dict[str, object] = {
                "generation": gen.gen_id,
                "matches": outcome.total_matches,
                "bytes": outcome.bytes_scanned,
                "backend": outcome.backend,
                "workers": outcome.workers,
                "seconds": outcome.seconds,
            }
            if tenant is not None:
                self.metrics.record_tenant_request(
                    tenant.name, outcome.bytes_scanned,
                    outcome.total_matches)
                header["tenant"] = tenant.name
            if with_events and outcome.events is not None:
                cap = self.max_events
                header["events"] = [[e.end, e.pattern]
                                    for e in outcome.events[:cap]]
                if len(outcome.events) > cap:
                    header["events_truncated"] = \
                        len(outcome.events) - cap
            return header

    def flow(self, meta: Dict, payload: bytes) -> Dict:
        flow_id = meta["flow"]
        tenant = self._tenant(meta.get("tenant"))
        if tenant is not None:
            t0 = time.perf_counter()
            verdict, gen_id, evicted = tenant.scan_packet(flow_id,
                                                          payload)
            seconds = time.perf_counter() - t0
            self.metrics.record_scan("flow", seconds, len(payload),
                                     verdict.new_matches)
            self.metrics.record_tenant_request(
                tenant.name, len(payload), verdict.new_matches)
            self.metrics.record_verdict(tenant.name, verdict.action,
                                        verdict.seconds)
            self.metrics.record_flow_evictions(evicted)
            header: Dict[str, object] = {
                "generation": gen_id,
                "tenant": tenant.name,
                "flow": flow_id,
                "matches": verdict.new_matches,
                "flow_total": verdict.flow_total,
                "bytes": len(payload),
                "seconds": seconds,
                "action": verdict.action,
            }
            if verdict.rule is not None:
                header["rule"] = verdict.rule
            if verdict.triggered:
                header["triggered"] = list(verdict.triggered)
            return header
        with self.registry.lease() as gen:
            t0 = time.perf_counter()
            new, total, evicted = gen.sessions.scan_packet(flow_id,
                                                           payload)
            seconds = time.perf_counter() - t0
            self.metrics.record_scan("flow", seconds, len(payload), new)
            self.metrics.record_flow_evictions(evicted)
            return {"generation": gen.gen_id,
                    "flow": flow_id,
                    "matches": new,
                    "flow_total": total,
                    "bytes": len(payload),
                    "seconds": seconds}

    def close_flow(self, meta: Dict, payload: bytes) -> Dict:
        flow_id = meta["flow"]
        tenant = self._tenant(meta.get("tenant"))
        if tenant is not None:
            nbytes, matches, action = tenant.close_flow(flow_id)
            header = {"generation": tenant.registry.generation,
                      "tenant": tenant.name,
                      "flow": flow_id,
                      "bytes_seen": nbytes,
                      "matches": matches}
            if action is not None:
                header["action"] = action
            return header
        with self.registry.lease() as gen:
            nbytes, matches = gen.sessions.close_flow(flow_id)
            return {"generation": gen.gen_id,
                    "flow": flow_id,
                    "bytes_seen": nbytes,
                    "matches": matches}


class InlineWorker:
    """In-process mode's one worker: the :class:`RequestOps` table run
    on a pool of scan threads (numpy releases the GIL in the hot
    gather loops).

    It has the ``call(kind, meta, payload)`` / ``depth`` surface of a
    pool :class:`~repro.service.pool.WorkerHandle`, so the daemon's
    verbs admit, dispatch and reply the same way in both modes.  The
    payload stays a zero-copy view: there is no process boundary to
    cross.
    """

    index = 0

    def __init__(self, ops: RequestOps, threads: int) -> None:
        self._table = ops.table
        self._executor = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-scan")
        self.depth = 0

    async def call(self, kind: str, meta: Optional[Dict] = None,
                   payload=b"") -> Dict:
        op = self._table[kind]
        self.depth += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, op, meta or {}, payload)
        finally:
            self.depth -= 1

    def shutdown(self) -> None:
        """Wait for running ops and release the threads."""
        self._executor.shutdown(wait=True)


class _PoolWorker:
    """One worker process's state: attached dictionary generations,
    flow sessions, tenant replicas and private metrics."""

    def __init__(self, conn, init: Dict) -> None:
        self.conn = conn
        config = dict(init.get("config", {}))
        # Attached segments, keyed by scope ("" = the default
        # dictionary, else the tenant name).  Exactly one live bundle
        # per scope; a reload swaps the attachment after the new
        # generation is promoted.
        self._bundles: Dict[str, SharedArrayBundle] = {}
        bundle = SharedArrayBundle.attach(init["bundle_meta"])
        self._bundles[""] = bundle
        self.registry = DictionaryRegistry(
            compiled=compiled_from_bundle(bundle),
            first_generation=int(init.get("generation", 1)),
            max_flows=int(config.get("max_flows", 65536)),
            session_policy=config.get("session_policy", "lru"))
        self.tenants = TenantManager(
            max_flows=int(config.get("max_flows", 65536)),
            session_policy=config.get("session_policy", "lru"))
        for spec in init.get("tenants", []):
            self._attach_tenant(spec)
        self.metrics = ServiceMetrics()
        requests = RequestOps(self.registry, self.tenants, self.metrics,
                              int(config.get("max_events", 1000)))
        self._ops = dict(
            requests.table,
            ping=self._op_ping,
            reload=self._op_reload,
            tenant_create=self._op_tenant_create,
            tenant_delete=self._op_tenant_delete,
            policy_set=self._op_policy_set,
            stats=self._op_stats)

    def _attach_tenant(self, spec: Dict):
        bundle = SharedArrayBundle.attach(spec["bundle_meta"])
        rules = None
        if spec.get("rules"):
            rules = RuleSet.from_specs(
                spec["rules"], mode=spec.get("mode", "first-match"))
        tenant = self.tenants.create(
            spec["name"], rules=rules,
            compiled=compiled_from_bundle(bundle),
            first_generation=int(spec.get("generation", 1)))
        self._bundles[spec["name"]] = bundle
        return tenant

    # -- control ops ----------------------------------------------------------------

    def _op_ping(self, meta: Dict, payload: bytes) -> Dict:
        return {"generation": self.registry.generation,
                "automaton_builds": COUNTERS["automaton_builds"],
                "pid": os.getpid()}

    def _op_reload(self, meta: Dict, payload: bytes) -> Dict:
        """Generation swap: attach the new bundle (lease) *before* the
        old attachment is dropped, preserving the drain semantics — a
        single-threaded worker has no scan in flight here, so the
        retired generation drains inline."""
        bundle = SharedArrayBundle.attach(meta["bundle_meta"])
        compiled = compiled_from_bundle(bundle)
        scope = str(meta.get("tenant") or "")
        generation = int(meta["generation"])
        try:
            if scope:
                result = self.tenants.get(scope).load_compiled(
                    compiled, generation=generation)
            else:
                result = self.registry.load_compiled(
                    compiled, generation=generation)
        except BaseException:
            bundle.close()
            raise
        old = self._bundles.get(scope)
        self._bundles[scope] = bundle
        if old is not None:
            old.close()
        # The gateway records the end-to-end reload (compile + fan-out)
        # in its own metrics; recording here too would double-count in
        # the merged STATS view.
        return {"generation": result.generation,
                "flows_carried": result.flows_carried,
                "warm": result.warm}

    def _op_tenant_create(self, meta: Dict, payload: bytes) -> Dict:
        tenant = self._attach_tenant(meta)
        return {"generation": tenant.registry.generation,
                "policy_generation": tenant.policy_generation}

    def _op_tenant_delete(self, meta: Dict, payload: bytes) -> Dict:
        name = str(meta["name"])
        self.tenants.drop(name)
        self.metrics.forget_tenant(name)
        bundle = self._bundles.pop(name, None)
        if bundle is not None:
            bundle.close()
        return {"deleted": True}

    def _op_policy_set(self, meta: Dict, payload: bytes) -> Dict:
        tenant = self.tenants.get(str(meta["tenant"]))
        rules = RuleSet.from_specs(
            meta.get("rules", []),
            mode=str(meta.get("mode", "first-match")))
        return {"policy_generation": tenant.set_rules(rules)}

    def _op_stats(self, meta: Dict, payload: bytes) -> Dict:
        registry = self.registry.describe()
        tenants = self.tenants.describe()
        flows = int(registry["flows"]) + sum(
            int(t["registry"]["flows"]) for t in tenants.values())
        return {"metrics": self.metrics.state(),
                "registry": registry,
                "tenants": tenants,
                "flows": flows,
                "generation": self.registry.generation,
                "automaton_builds": COUNTERS["automaton_builds"],
                "pid": os.getpid()}

    # -- serve loop -----------------------------------------------------------------

    def _send(self, seq: int, ok: bool, result: Dict) -> None:
        try:
            self.conn.send((seq, ok, result))
        except (OSError, ValueError, BrokenPipeError):
            pass

    def run(self) -> None:
        while True:
            try:
                kind, seq, meta, payload = self.conn.recv()
            except (EOFError, OSError):
                break
            if kind == "stop":
                self._send(seq, True, {"stopped": True})
                break
            handler = self._ops.get(kind)
            if handler is None:
                self._send(seq, False, {"code": "bad-verb",
                                        "error": f"unknown op {kind!r}"})
                continue
            try:
                self._send(seq, True, handler(meta or {}, payload))
            except Exception as exc:
                code, message = error_reply(exc)
                self._send(seq, False, {"code": code, "error": message})
        self.close()

    def close(self) -> None:
        self.registry.close()
        self.tenants.close()
        for bundle in self._bundles.values():
            bundle.close()
        self._bundles.clear()
        try:
            self.conn.close()
        except OSError:
            pass


def worker_main(conn, init: Dict) -> None:
    """Process entry point (forked by the gateway's WorkerPool)."""
    # The gateway handles SIGINT/SIGTERM and drains the pool with an
    # explicit "stop" message; a stray terminal signal must not drop a
    # worker mid-request.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Child-private counter reset: everything this worker builds from
    # here on is its own doing, so a nonzero value after startup would
    # disprove the compile-once/attach-everywhere contract.
    COUNTERS["automaton_builds"] = 0
    try:
        worker = _PoolWorker(conn, init)
    except BaseException as exc:
        try:
            conn.send((-1, False, {"code": "worker-init",
                                   "error": f"{type(exc).__name__}: "
                                            f"{exc}"}))
        except (OSError, ValueError, BrokenPipeError):
            pass
        return
    conn.send((-1, True, {
        "pid": os.getpid(),
        "generation": worker.registry.generation,
        "automaton_builds": COUNTERS["automaton_builds"],
    }))
    worker.run()
