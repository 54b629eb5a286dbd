"""The live scan daemon: asyncio TCP front end over the scan workers.

This is the paper's deployment story running end to end: a resident
compiled dictionary filters traffic from many concurrent clients while
the *next* dictionary compiles and swaps in underneath — dynamic STT
replacement (§6) serving live requests instead of a modelled schedule.

The daemon is the paper's PPE: it places work and never scans.  Every
SCAN, FLOW and CLOSE_FLOW runs one op of
:class:`~repro.service.worker.RequestOps` on a *target* — the one
:class:`~repro.service.worker.InlineWorker` in-process, or a pool
worker process — and each verb does only this: choose the target,
admit the request, await ``target.call``, stamp ``id``/``ok`` on the
reply.  Both modes therefore build every reply with the same code.

Layering:

* the event loop owns connections, framing and admission control —
  it never touches a DFA;
* in-process, the inline worker runs the ops on a thread pool (numpy
  releases the GIL in the hot gather loops) over the daemon's own
  registry, tenants and metrics;
* reloads, tenant create/delete and policy swaps run on a dedicated
  single thread, so neither a large dictionary build nor the locks it
  holds can stall the event loop, then promote atomically via
  :class:`~repro.service.registry.DictionaryRegistry`;
* :class:`~repro.service.metrics.ServiceMetrics` observes everything
  and the ``STATS`` verb serves the snapshot;
* the ``TENANT``/``POLICY`` verbs drive a
  :class:`~repro.policy.tenants.TenantManager`: each tenant gets an
  isolated dictionary registry, ruleset generation and verdict engine,
  and ``SCAN``/``FLOW``/``CLOSE_FLOW``/``RELOAD`` route to it when the
  request names a ``tenant`` (tenant-less requests serve from the
  default registry — the differential suite pins the rule-free tenant
  path to it bit for bit).

**Admission control**: each target takes at most its cap of requests
in flight (``max_pending`` for the inline worker, an even split of it
per pool worker); beyond that the daemon either rejects immediately
with a ``busy`` error (``admission="reject"``, the default — shed load
early, the NIDS stance) or queues the request up to
``request_timeout`` seconds (``admission="wait"``, the batch stance).
**Graceful drain**: shutdown stops accepting, lets in-flight requests
finish (bounded by ``drain_timeout``), then closes connections and
releases pools.

**Pool mode** (``pool_workers > 0``): the daemon becomes a gateway in
front of a fleet of scan worker *processes* — the paper's PPE/SPE
split.  The gateway keeps the network, admission and compile roles;
each worker attaches to the compiled dictionary through shared memory
(compile once, map everywhere — workers do **zero** automaton builds,
and STATS proves it per worker), owns the flow sessions that
consistent-hashing places on it, and serves scans from its own
process so the fleet scales across cores without sharing a GIL.
Stateless ``SCAN`` stripes to the idlest worker; ``FLOW`` and
``CLOSE_FLOW`` pin to the hash owner; ``RELOAD`` fans a generation
swap out to every worker, which leases the new tables before the
gateway retires the old segment; ``STATS`` merges per-worker
histograms bucket-wise.
"""

from __future__ import annotations

import asyncio
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.backends import get_backend
from ..core.scan.bundle import bundle_from_compiled
from ..policy.rules import RuleSet
from ..policy.tenants import Tenant, TenantManager
from .metrics import ServiceMetrics
from .pool import WorkerCrashError, WorkerOpError, WorkerPool
from .protocol import (MAX_FRAME_BYTES, RELOAD_STRATEGY, Frame,
                       ProtocolError, decode_patterns, encode_frame,
                       split_body)
from .registry import DictionaryRegistry
from .worker import InlineWorker, RequestOps, error_reply

__all__ = ["ServiceConfig", "ScanService", "ServiceThread"]

_LEN_PREFIX = struct.Struct(">I")


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = let the OS pick
    #: Default backend for SCAN (``None`` = execution planner).
    backend: Optional[str] = None
    #: Worker processes for the pooled/streaming backends.
    workers: int = 1
    #: Admission control: concurrent scan requests in flight.
    max_pending: int = 64
    #: ``"reject"`` sheds load immediately; ``"wait"`` queues up to
    #: ``request_timeout`` seconds.
    admission: str = "reject"
    request_timeout: float = 5.0
    #: Grace period for in-flight requests at shutdown.
    drain_timeout: float = 10.0
    #: Scan threads of the in-process inline worker (numpy releases
    #: the GIL in the hot loop).
    scan_threads: int = 4
    #: Flow-session table bound and eviction policy per generation.
    max_flows: int = 65536
    session_policy: str = "lru"
    #: Cap on match events returned per SCAN response.
    max_events: int = 1000
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Worker processes behind the gateway (0 = serve in-process).
    #: Pool mode compiles dictionaries once in the gateway and attaches
    #: every worker to the same shared-memory tables; flows stay
    #: worker-local by consistent hash of ``(tenant, flow_id)``.
    pool_workers: int = 0

    def validate(self) -> None:
        if self.admission not in ("reject", "wait"):
            raise ValueError(
                f"admission must be 'reject' or 'wait', got "
                f"{self.admission!r}")
        if self.max_pending < 1:
            raise ValueError("max_pending must be positive")
        if self.scan_threads < 1:
            raise ValueError("scan_threads must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.pool_workers < 0:
            raise ValueError("pool_workers must be >= 0")


class ScanService:
    """One daemon: a registry of dictionary generations behind a
    length-prefixed TCP protocol.  Construct, :meth:`start` on an event
    loop (or wrap in :class:`ServiceThread`), connect with
    :class:`~repro.service.client.ServiceClient`."""

    def __init__(self, patterns: Sequence, *,
                 config: Optional[ServiceConfig] = None,
                 fold=None, regex: bool = False, cache=None,
                 max_states: int = 1 << 30,
                 tenants: Optional[Dict[str, Dict]] = None) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        if self.config.backend is not None:
            get_backend(self.config.backend)   # fail fast on typos
        self.registry = DictionaryRegistry(
            patterns, fold=fold, regex=regex, max_states=max_states,
            cache=cache, max_flows=self.config.max_flows,
            session_policy=self.config.session_policy)
        # Tenant-scoped dictionaries + policies; the default registry
        # above keeps serving tenant-less requests unchanged.
        self.tenants = TenantManager(
            cache=cache, max_flows=self.config.max_flows,
            session_policy=self.config.session_policy,
            max_states=max_states)
        for name, spec in (tenants or {}).items():
            rules = spec.get("rules")
            if rules is not None and not isinstance(rules, RuleSet):
                rules = RuleSet.from_specs(
                    rules, mode=spec.get("mode", "first-match"))
            self.tenants.create(
                name, spec["patterns"], rules=rules,
                regex=bool(spec.get("regex", False)))
        self.metrics = ServiceMetrics()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._reload_pool: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()
        self._pending = 0
        self._draining = False
        self._slot_event: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._pool: Optional[WorkerPool] = None
        self._inline: Optional[InlineWorker] = None
        #: Requests one target may hold in flight (see :meth:`_admit`).
        self._cap = self.config.max_pending
        self._verbs = {
            "PING": self._verb_ping,
            "SCAN": self._verb_scan,
            "FLOW": self._verb_flow,
            "CLOSE_FLOW": self._verb_close_flow,
            "RELOAD": self._verb_reload,
            "TENANT": self._verb_tenant,
            "POLICY": self._verb_policy,
            "STATS": self._verb_stats,
            "SHUTDOWN": self._verb_shutdown,
        }

    def _tenant_of(self, frame: Frame) -> Optional[Tenant]:
        """Resolve the optional ``tenant`` header field (None = the
        default, tenant-less registry)."""
        name = frame.header.get("tenant")
        if name is None:
            return None
        return self.tenants.get(str(name))

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; returns once the socket is listening
        (``self.port`` then holds the real port, even for port 0)."""
        self._slot_event = asyncio.Event()
        self._stopped = asyncio.Event()
        if self.config.pool_workers > 0:
            # Fork the fleet before anything else: a forked child must
            # not inherit executor threads or the listening socket.
            self._pool = WorkerPool(self)
            await self._pool.start()
            self._cap = self._pool.per_worker_cap
        else:
            self._inline = InlineWorker(
                RequestOps(self.registry, self.tenants, self.metrics,
                           self.config.max_events),
                self.config.scan_threads)
        self._reload_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-reload")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def serve(self) -> None:
        """Start and run until :meth:`shutdown` (the CLI entry point)."""
        await self.start()
        await self.wait_stopped()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight requests
        (bounded by ``drain_timeout``), release every resource."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._until(lambda: self._pending == 0),
                timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            pass
        for writer in list(self._connections):
            writer.close()
        if self._pool is not None:
            await self._pool.stop()
        else:
            self._inline.shutdown()
        self._reload_pool.shutdown(wait=True)
        self.registry.close()
        self.tenants.close()
        self._stopped.set()

    # -- connection handling -------------------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader
                          ) -> Optional[Frame]:
        try:
            prefix = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        frame_len = _LEN_PREFIX.unpack(prefix)[0]
        if frame_len > self.config.max_frame_bytes:
            raise ProtocolError(
                f"frame of {frame_len} bytes exceeds the "
                f"{self.config.max_frame_bytes}-byte limit")
        body = await reader.readexactly(frame_len)
        # Zero-copy ingestion: the payload stays a memoryview over the
        # receive buffer; every scan path consumes buffers directly and
        # the view keeps the body alive for exactly one request.
        return split_body(body, zero_copy=True)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    frame = await self._read_frame(reader)
                except ProtocolError as exc:
                    self.metrics.record_error()
                    writer.write(encode_frame(
                        {"ok": False, "code": "protocol",
                         "error": str(exc)}))
                    await writer.drain()
                    break
                if frame is None:
                    break
                header, payload = await self._dispatch(frame)
                shutdown_after = header.pop("_shutdown", False)
                writer.write(encode_frame(header, payload))
                await writer.drain()
                if shutdown_after:
                    asyncio.create_task(self.shutdown())
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- dispatch ------------------------------------------------------------------

    @staticmethod
    def _error(rid, code: str, message: str) -> Tuple[Dict, bytes]:
        return ({"id": rid, "ok": False, "code": code,
                 "error": message}, b"")

    async def _dispatch(self, frame: Frame) -> Tuple[Dict, bytes]:
        rid = frame.header.get("id")
        verb = frame.verb
        handler = self._verbs.get(verb)
        if handler is None:
            self.metrics.record_error()
            return self._error(rid, "bad-verb",
                               f"unknown verb {verb!r}")
        self.metrics.record_request(verb)
        try:
            return await handler(rid, frame)
        except WorkerCrashError as exc:
            # Accounted loss, never silent: the rejection counter
            # carries it (once per client request) and the client gets
            # a retryable error — the replacement worker (or a ring
            # neighbour) takes the retry.
            self.metrics.record_error()
            self.metrics.record_rejected()
            self._pool.crashed_requests += 1
            return self._error(rid, exc.code, str(exc))
        except WorkerOpError as exc:
            # A pool worker already classified the failure.
            self.metrics.record_error()
            return self._error(rid, exc.code, str(exc))
        except Exception as exc:  # keep the daemon up, report the verb
            self.metrics.record_error()
            return self._error(rid, *error_reply(exc))

    # -- admission control ---------------------------------------------------------

    async def _admit(self, rid, target) -> Optional[Tuple[Dict, bytes]]:
        """Take one slot on ``target``; returns an error response when
        the request cannot be admitted.  Backpressure tracks the target
        that will run the request: in pool mode a hot hash span
        rejects while the rest of the fleet keeps absorbing load."""
        if self._draining:
            return self._error(rid, "draining",
                               "service is shutting down")
        if target.depth >= self._cap:
            if self.config.admission == "reject":
                self.metrics.record_rejected()
                return self._error(
                    rid, "busy",
                    f"worker {target.index} queue full ({self._cap} in "
                    f"flight); retry")
            try:
                # Soft cap: waiters waking together may briefly
                # overshoot it, which only deepens a mailbox.  A
                # crashed worker's depth drops to 0, so its waiters
                # wake and fail fast.
                await asyncio.wait_for(
                    self._until(lambda: target.depth < self._cap),
                    timeout=self.config.request_timeout)
            except asyncio.TimeoutError:
                self.metrics.record_timeout()
                return self._error(
                    rid, "timeout",
                    f"no slot on worker {target.index} within "
                    f"{self.config.request_timeout:.3g}s")
            if self._draining:
                return self._error(rid, "draining",
                                   "service is shutting down")
        self._pending += 1
        self.metrics.set_queue_depth(self._pending)
        return None

    def slot_freed(self) -> None:
        """A request slot freed (event loop only): wake every waiter
        of :meth:`_until`.  Pool workers call it when their depth
        drops."""
        self._slot_event.set()
        self._slot_event = asyncio.Event()

    async def _until(self, ready) -> None:
        """Wait until ``ready()`` holds, re-testing it after every
        freed slot."""
        while not ready():
            await self._slot_event.wait()

    async def _run_op(self, rid, target, kind: str, meta: Dict,
                      payload=b"") -> Tuple[Dict, bytes]:
        """Admit one request on ``target`` and run its op there."""
        admission = await self._admit(rid, target)
        if admission is not None:
            return admission
        try:
            result = await target.call(kind, meta, payload)
        finally:
            self._pending -= 1
            self.metrics.set_queue_depth(self._pending)
            self.slot_freed()
        return dict(result, id=rid, ok=True), b""

    # -- verbs ---------------------------------------------------------------------

    async def _verb_ping(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        return ({"id": rid, "ok": True,
                 "generation": self.registry.generation}, b"")

    async def _verb_scan(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        """Stateless SCAN: in pool mode it stripes to the idlest
        worker."""
        header = frame.header
        meta = {"tenant": header.get("tenant"),
                "backend": header.get("backend") or self.config.backend,
                "workers": int(header.get("workers")
                               or self.config.workers),
                "events": bool(header.get("events"))}
        target = self._inline if self._pool is None \
            else self._pool.least_loaded()
        return await self._run_op(rid, target, "scan", meta,
                                  frame.payload)

    async def _verb_flow(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        return await self._flow_op(rid, frame, "flow")

    async def _verb_close_flow(self, rid,
                               frame: Frame) -> Tuple[Dict, bytes]:
        return await self._flow_op(rid, frame, "close_flow")

    async def _flow_op(self, rid, frame: Frame,
                       kind: str) -> Tuple[Dict, bytes]:
        """FLOW / CLOSE_FLOW: in pool mode they pin to the
        consistent-hash owner of ``(tenant, flow_id)`` so the session's
        DFA state never leaves its worker."""
        flow_id = frame.header.get("flow")
        if flow_id is None:
            return self._error(rid, "bad-request",
                               f"{frame.verb} needs a 'flow' id")
        tenant = frame.header.get("tenant")
        target = self._inline if self._pool is None \
            else self._pool.place(str(tenant or ""), flow_id)
        return await self._run_op(rid, target, kind,
                                  {"tenant": tenant, "flow": flow_id},
                                  frame.payload)

    def _on_reload_thread(self, fn, *args) -> "asyncio.Future":
        """Run a swap-side call on the single reload thread.  Compiles,
        policy swaps and tenant drops wait on registry and tenant swap
        locks; holding them here serializes the swaps and keeps the
        event loop answering while a large compile runs."""
        return asyncio.get_running_loop().run_in_executor(
            self._reload_pool, fn, *args)

    async def _verb_reload(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        patterns = decode_patterns(frame.payload)
        regex = bool(frame.header.get("regex"))
        tenant = self._tenant_of(frame)
        pooled = self._pool is not None

        def _compile():
            # Compile, promote and (in pool mode) export the new
            # generation's shared segment inside one task on the
            # single-threaded reload executor, so a concurrent RELOAD
            # cannot promote a different generation between the
            # compile and the export.
            if tenant is not None:
                result = tenant.load_dictionary(patterns, regex=regex)
                active = tenant.registry.active.compiled
            else:
                result = self.registry.load(patterns, regex=regex)
                active = self.registry.active.compiled
            bundle = bundle_from_compiled(active) if pooled else None
            return result, bundle

        result, bundle = await self._on_reload_thread(_compile)
        flows_carried = result.flows_carried
        if pooled:
            # Fan the swap out: every worker attaches + promotes
            # before acking; the gateway retires the old segment only
            # after the last ack.  Flow sessions live in the workers,
            # so the carried-flow count is theirs.
            flows_carried = await self._pool.swap(
                tenant.name if tenant is not None else "",
                bundle, result.generation)
        self.metrics.record_reload(result.seconds, result.warm)
        header = {"id": rid, "ok": True,
                  "generation": result.generation,
                  "seconds": result.seconds,
                  "warm": result.warm,
                  "patterns": result.patterns,
                  "slices": result.slices,
                  "states": result.states,
                  "flows_carried": flows_carried}
        if tenant is not None:
            header["tenant"] = tenant.name
        return header, b""

    async def _verb_tenant(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        op = str(frame.header.get("op", "list"))
        if op == "list":
            return ({"id": rid, "ok": True,
                     "tenants": self.tenants.names()}, b"")
        name = frame.header.get("name")
        if not name:
            return self._error(rid, "bad-request",
                               f"TENANT {op} needs a 'name'")
        name = str(name)
        if op == "create":
            patterns = decode_patterns(frame.payload)
            rules = None
            if frame.header.get("rules"):
                rules = RuleSet.from_specs(
                    frame.header["rules"],
                    mode=str(frame.header.get("mode", "first-match")))
            pooled = self._pool is not None

            def _create():
                tenant = self.tenants.create(
                    name, patterns, rules=rules,
                    regex=bool(frame.header.get("regex")))
                bundle = bundle_from_compiled(
                    tenant.registry.active.compiled) if pooled else None
                return tenant, bundle

            tenant, bundle = await self._on_reload_thread(_create)
            if pooled:
                await self._pool.tenant_create(
                    name, bundle, tenant.registry.generation,
                    tenant.ruleset.to_specs(), tenant.ruleset.mode)
            return ({"id": rid, "ok": True, "tenant": name,
                     "generation": tenant.registry.generation,
                     "policy_generation": tenant.policy_generation,
                     "rules": len(tenant.ruleset.rules),
                     "patterns": len(patterns)}, b"")
        if op == "delete":
            await self._on_reload_thread(self.tenants.drop, name)
            self.metrics.forget_tenant(name)
            if self._pool is not None:
                await self._pool.tenant_delete(name)
            return ({"id": rid, "ok": True, "tenant": name,
                     "deleted": True}, b"")
        if op == "info":
            tenant = self.tenants.get(name)
            return ({"id": rid, "ok": True, "tenant": name,
                     "info": tenant.describe()}, b"")
        return self._error(rid, "bad-request",
                           f"unknown TENANT op {op!r} (create/delete/"
                           f"list/info)")

    async def _verb_policy(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        name = frame.header.get("tenant")
        if not name:
            return self._error(rid, "bad-request",
                               "POLICY needs a 'tenant'")
        tenant = self.tenants.get(str(name))
        op = str(frame.header.get("op", "get"))
        if op == "get":
            return ({"id": rid, "ok": True, "tenant": tenant.name,
                     "policy_generation": tenant.policy_generation,
                     "mode": tenant.ruleset.mode,
                     "rules": tenant.ruleset.to_specs()}, b"")
        if op == "set":
            rules = RuleSet.from_specs(
                frame.header.get("rules", []),
                mode=str(frame.header.get("mode", "first-match")))
            generation = await self._on_reload_thread(tenant.set_rules,
                                                      rules)
            if self._pool is not None:
                # The gateway validated the swap; replicate the
                # canonical specs so every worker's verdict engine
                # promotes the same policy generation.
                await self._pool.broadcast(
                    "policy_set", {"tenant": tenant.name,
                                   "rules": rules.to_specs(),
                                   "mode": rules.mode})
            return ({"id": rid, "ok": True, "tenant": tenant.name,
                     "policy_generation": generation,
                     "rules": len(rules)}, b"")
        return self._error(rid, "bad-request",
                           f"unknown POLICY op {op!r} (set/get)")

    async def _verb_stats(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        header: Dict[str, object] = {
            "id": rid, "ok": True,
            "generation": self.registry.generation,
            "registry": self.registry.describe(),
            "tenants": self.tenants.describe(),
            "reload_strategy": RELOAD_STRATEGY,
            "config": {
                "backend": self.config.backend or "auto",
                "workers": self.config.workers,
                "max_pending": self.config.max_pending,
                "admission": self.config.admission,
                "max_flows": self.config.max_flows,
                "session_policy": self.config.session_policy,
                "pool_workers": self.config.pool_workers,
            }}
        if self._pool is not None:
            # Pool-wide view: worker histograms merge bucket-wise with
            # the gateway's own counters, so p50/p95/p99 are computed
            # over the union of samples, not averaged per worker.
            acks = await self._pool.broadcast("stats")
            header["metrics"] = ServiceMetrics.merged_snapshot(
                [self.metrics.state()]
                + [ack["metrics"] for _, ack in acks])
            header["pool"] = self._pool.describe(acks)
        else:
            header["metrics"] = self.metrics.snapshot()
        return header, b""

    async def _verb_shutdown(self, rid,
                             frame: Frame) -> Tuple[Dict, bytes]:
        return ({"id": rid, "ok": True, "draining": True,
                 "generation": self.registry.generation,
                 "_shutdown": True}, b"")


class ServiceThread:
    """Run a :class:`ScanService` on a dedicated event-loop thread.

    This is how synchronous callers (tests, ``repro bench-load``, the
    load generator) host a daemon in-process::

        with ServiceThread(ScanService(["virus"])) as handle:
            client = ServiceClient(handle.host, handle.port)
            ...

    ``stop()`` performs the daemon's graceful drain.
    """

    def __init__(self, service: ScanService) -> None:
        self.service = service
        self._thread = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = None
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def start(self) -> "ServiceThread":
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.service.port is None:
            raise RuntimeError("service failed to start within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            self._loop.close()
            return
        self._started.set()
        try:
            self._loop.run_until_complete(self.service.wait_stopped())
        finally:
            self._loop.close()

    def stop(self) -> None:
        """Graceful drain from any thread (idempotent)."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive() and not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self._loop)
            try:
                future.result(timeout=30)
            except Exception:
                pass
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
