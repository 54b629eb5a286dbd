"""Gateway-side worker pool: fork, route, reload, restart.

The multi-process topology mirrors the paper's Cell layout: the
gateway is the PPE — it owns the network, compiles every dictionary
exactly once and orchestrates generation swaps — while each worker
process is an SPE that *attaches* to the compiled tables through
shared memory (:class:`~repro.core.scan.bundle.SharedArrayBundle`)
and runs the scan loops against its private flow state.

Three pieces live here:

* :class:`ConsistentHashRing` — flow placement.  ``(tenant, flow_id)``
  hashes onto a ring of virtual nodes so a flow's session state stays
  on one worker for its lifetime; a worker that dies and restarts
  reclaims exactly its old ring span (the ring is keyed by worker
  *index*, not pid), and while it is down its span drains to ring
  neighbours instead of rehashing the world.
* :class:`WorkerHandle` — one worker process plus its duplex pipe.  A
  sender thread drains an outbound queue, a receiver thread parks in
  ``recv`` and resolves pending futures on the gateway's event loop;
  an EOF fails every in-flight future with :class:`WorkerCrashError`
  (the daemon counts each failed client request once, as a reject —
  never a silent drop) and triggers an automatic restart.
* :class:`WorkerPool` — the fleet: spawn-before-serving (workers fork
  before the gateway creates executors or binds its socket), bundle
  ownership (the gateway's copy of each generation's segment is
  unlinked only after every worker has attached the successor),
  striping for stateless scans and crash/restart bookkeeping.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import math
import multiprocessing as mp
import queue
import threading
from typing import Dict, List, Optional, Tuple

from ..core.scan.bundle import SharedArrayBundle, bundle_from_compiled
from .worker import worker_main

__all__ = ["ConsistentHashRing", "WorkerCrashError", "WorkerOpError",
           "WorkerHandle", "WorkerPool", "PoolError"]


class PoolError(Exception):
    """Raised for unusable pool configurations or a dead fleet."""


class WorkerCrashError(Exception):
    """The worker died with requests in flight (or before accepting
    one).  The daemon surfaces this as a ``worker-crash`` error and
    counts it as a rejection — the client sees the failure, retries,
    and lands on the restarted worker or a ring neighbour."""

    code = "worker-crash"


class WorkerOpError(Exception):
    """A worker-side operation failed; carries the worker's error code
    so the gateway can echo the daemon's normal error taxonomy."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Consistent hashing over worker indices with virtual nodes.

    ~``vnodes`` points per worker keep the per-worker key share within
    a few percent of uniform; placement walks clockwise from the key's
    position to the first *alive* owner, so a dead worker's span
    spreads over its ring successors and snaps back when it returns.
    """

    def __init__(self, size: int, vnodes: int = 64) -> None:
        if size < 1:
            raise PoolError("ring needs at least one worker")
        points: List[Tuple[int, int]] = []
        for worker in range(size):
            for v in range(vnodes):
                points.append((_hash64(b"worker-%d-vnode-%d"
                                       % (worker, v)), worker))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [w for _, w in points]

    @staticmethod
    def key(tenant: str, flow_id: object) -> bytes:
        return ("%s\x00%r" % (tenant, flow_id)).encode()

    def place(self, tenant: str, flow_id: object,
              alive: List[bool]) -> int:
        """Worker index owning ``(tenant, flow_id)`` among ``alive``."""
        start = bisect.bisect_right(self._hashes,
                                    _hash64(self.key(tenant, flow_id)))
        n = len(self._owners)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if alive[owner]:
                return owner
        raise PoolError("no alive workers in the pool")


class WorkerHandle:
    """One forked worker process and its message plumbing.

    All future bookkeeping (``_pending``, ``depth``) is confined to the
    gateway's event loop: ``call`` runs on the loop and pipe events are
    marshalled back with ``call_soon_threadsafe``.
    """

    def __init__(self, index: int, ctx, init: Dict,
                 loop: asyncio.AbstractEventLoop,
                 on_down, on_slot) -> None:
        self.index = index
        self.loop = loop
        self.generation = int(init.get("generation", 1))
        self.alive = False
        self.stopping = False
        self.depth = 0
        self.info: Dict[str, object] = {}
        self._on_down = on_down
        self._on_slot = on_slot
        self._seq = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self._send_q: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self.ready: asyncio.Future = loop.create_future()
        self._conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=worker_main, args=(child, init),
                                daemon=True,
                                name=f"repro-pool-worker-{index}")
        self.proc.start()
        child.close()
        self._sender = threading.Thread(
            target=self._send_loop, daemon=True,
            name=f"repro-pool-send-{index}")
        self._receiver = threading.Thread(
            target=self._recv_loop, daemon=True,
            name=f"repro-pool-recv-{index}")
        self._sender.start()
        self._receiver.start()

    # -- pipe threads ---------------------------------------------------------------

    def _send_loop(self) -> None:
        while True:
            msg = self._send_q.get()
            if msg is None:
                break
            try:
                self._conn.send(msg)
            except (OSError, ValueError, BrokenPipeError):
                break

    def _recv_loop(self) -> None:
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError, ValueError, TypeError):
                # ValueError/TypeError: the gateway closed the handle
                # (nulling its fd) between our recv calls during shutdown.
                break
            self.loop.call_soon_threadsafe(self._deliver, msg)
        self.loop.call_soon_threadsafe(self._on_eof)

    # -- event-loop side ------------------------------------------------------------

    def _deliver(self, msg: tuple) -> None:
        seq, ok, result = msg
        if seq == -1:
            if not self.ready.done():
                if ok:
                    self.alive = True
                    self.info = dict(result)
                    self.ready.set_result(result)
                else:
                    self.ready.set_exception(WorkerOpError(
                        result.get("code", "worker-init"),
                        str(result.get("error", "worker init failed"))))
            return
        fut = self._pending.pop(seq, None)
        if fut is None:
            return
        self.depth -= 1
        self._on_slot()
        if fut.done():
            return
        if ok:
            fut.set_result(result)
        else:
            fut.set_exception(WorkerOpError(
                result.get("code", "internal"),
                str(result.get("error", "worker error"))))

    def _on_eof(self) -> None:
        was_alive = self.alive
        self.alive = False
        if not self.ready.done():
            self.ready.set_exception(
                WorkerCrashError(f"worker {self.index} died during "
                                 f"startup"))
        pending, self._pending = self._pending, {}
        self.depth = 0
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(WorkerCrashError(
                    f"worker {self.index} died with the request in "
                    f"flight"))
        if pending:
            self._on_slot()
        if was_alive and not self.stopping:
            self._on_down(self)

    def call(self, kind: str, meta: Optional[Dict] = None,
             payload=b"") -> "asyncio.Future":
        """Issue one op; resolves with the worker's result dict."""
        # The pipe transport pickles; a zero-copy memoryview payload
        # materializes exactly once, here at the process boundary.
        payload = bytes(payload) if payload else b""
        if not self.alive:
            fut = self.loop.create_future()
            fut.set_exception(WorkerCrashError(
                f"worker {self.index} is down"))
            return fut
        self._seq += 1
        fut = self.loop.create_future()
        self._pending[self._seq] = fut
        self.depth += 1
        self._send_q.put((kind, self._seq, meta or {}, payload))
        return fut

    def shutdown(self, timeout: float = 5.0) -> None:
        """Tear down the process and pipe threads (blocking; called
        off the hot path during service shutdown)."""
        self.stopping = True
        self.alive = False
        self._send_q.put(None)
        try:
            self._conn.close()
        except OSError:
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)


class WorkerPool:
    """The gateway's fleet of scan workers.

    Owns the shared-memory bundles (one per scope: ``""`` for the
    default dictionary, tenant name otherwise) and the placement ring.
    Every public coroutine runs on the gateway's event loop.
    """

    def __init__(self, service) -> None:
        cfg = service.config
        if "fork" not in mp.get_all_start_methods():
            raise PoolError(
                "pool mode needs the fork start method (shared-memory "
                "attach without resource-tracker duplication)")
        self.service = service
        self.size = int(cfg.pool_workers)
        if self.size < 1:
            raise PoolError("pool_workers must be >= 1 in pool mode")
        self._ctx = mp.get_context("fork")
        self.ring = ConsistentHashRing(self.size)
        self.handles: List[WorkerHandle] = []
        #: scope -> (generation id, owned bundle)
        self._bundles: Dict[str, Tuple[int, SharedArrayBundle]] = {}
        #: Backpressure is budgeted per worker: the service-wide
        #: max_pending splits evenly so one hot hash span cannot
        #: starve the rest of the fleet.
        self.per_worker_cap = max(1, math.ceil(cfg.max_pending
                                               / self.size))
        self.restarts = 0
        #: Client requests failed by a worker crash (counted by the
        #: daemon, once per request, alongside its rejection).
        self.crashed_requests = 0
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Export bundles and fork the fleet.

        Must run before the gateway creates thread pools or binds its
        socket: fork duplicates the calling thread only, and a child
        must never inherit live executor threads or server FDs.
        """
        self._loop = asyncio.get_running_loop()
        compiled = self.service.registry.active.compiled
        self._bundles[""] = (self.service.registry.generation,
                             bundle_from_compiled(compiled))
        for name in self.service.tenants.names():
            tenant = self.service.tenants.get(name)
            self._bundles[name] = (
                tenant.registry.generation,
                bundle_from_compiled(tenant.registry.active.compiled))
        for index in range(self.size):
            self.handles.append(self._spawn(index))
        await asyncio.gather(*(h.ready for h in self.handles))

    def _init_for(self, index: int) -> Dict:
        cfg = self.service.config
        gen, bundle = self._bundles[""]
        init: Dict[str, object] = {
            "bundle_meta": bundle.meta(),
            "generation": gen,
            "config": {
                "max_flows": cfg.max_flows,
                "session_policy": cfg.session_policy,
                "max_events": cfg.max_events,
            },
            "tenants": [],
        }
        for name, (tgen, tbundle) in self._bundles.items():
            if not name:
                continue
            try:
                tenant = self.service.tenants.get(name)
            except Exception:
                continue
            init["tenants"].append({
                "name": name,
                "bundle_meta": tbundle.meta(),
                "generation": tgen,
                "rules": tenant.ruleset.to_specs(),
                "mode": tenant.ruleset.mode,
            })
        return init

    def _spawn(self, index: int) -> WorkerHandle:
        return WorkerHandle(index, self._ctx, self._init_for(index),
                            self._loop, self._worker_down,
                            self.service.slot_freed)

    def _worker_down(self, handle: WorkerHandle) -> None:
        """Crash callback (event loop): bring a replacement up on the
        same ring position.  The requests it dropped fail their
        callers with :class:`WorkerCrashError`; the daemon counts
        them."""
        self.restarts += 1
        if not self._stopping:
            self._loop.create_task(self._restart(handle.index))

    async def _restart(self, index: int) -> None:
        handle = self._spawn(index)
        self.handles[index] = handle
        try:
            await asyncio.wait_for(asyncio.shield(handle.ready), 30.0)
        except (WorkerCrashError, WorkerOpError, asyncio.TimeoutError):
            # Replacement failed too; its span keeps draining to ring
            # neighbours and the next crash cycle may retry.
            pass

    async def stop(self) -> None:
        """Graceful drain: every live worker acks a ``stop`` (closing
        its sessions and attachments), then processes and owned
        segments are torn down."""
        self._stopping = True
        futs = []
        for handle in self.handles:
            handle.stopping = True
            if handle.alive:
                futs.append(handle.call("stop"))
        if futs:
            await asyncio.wait(futs, timeout=10.0)
        for handle in self.handles:
            handle.shutdown()
        for _, bundle in self._bundles.values():
            bundle.close()
        self._bundles.clear()

    # -- placement ------------------------------------------------------------------

    def _alive_mask(self) -> List[bool]:
        return [h.alive for h in self.handles]

    def place(self, tenant: Optional[str], flow_id: object
              ) -> WorkerHandle:
        """The worker owning this flow's hash span."""
        index = self.ring.place(tenant or "", flow_id,
                                self._alive_mask())
        return self.handles[index]

    def least_loaded(self) -> WorkerHandle:
        """Stripe a stateless request to the idlest live worker."""
        alive = [h for h in self.handles if h.alive]
        if not alive:
            raise WorkerCrashError("no alive workers in the pool")
        return min(alive, key=lambda h: h.depth)

    # -- fleet ops ------------------------------------------------------------------

    async def broadcast(self, kind: str, meta: Optional[Dict] = None,
                        payload: bytes = b""
                        ) -> List[Tuple[int, Dict]]:
        """Fan one op out to every live worker; returns
        ``(index, result)`` pairs for the workers that acked.  A worker
        crashing mid-broadcast is skipped — its replacement is
        re-initialized from the pool's current state, which already
        includes whatever this broadcast is installing."""
        calls = [(h.index, h.call(kind, meta, payload))
                 for h in self.handles if h.alive]
        acks: List[Tuple[int, Dict]] = []
        for index, fut in calls:
            try:
                acks.append((index, await fut))
            except WorkerCrashError:
                continue
        return acks

    async def swap(self, scope: str, bundle: SharedArrayBundle,
                   generation: int) -> int:
        """Install a new dictionary generation fleet-wide.

        Lease-before-retire across processes: the pool's scope entry is
        flipped *first* (so a worker restarting mid-swap initializes on
        the new generation), every worker attaches and promotes before
        acking, and only after the last ack does the gateway close the
        superseded segment.  Returns the total flows carried across the
        swap, summed over workers.
        """
        old = self._bundles.get(scope)
        self._bundles[scope] = (generation, bundle)
        meta: Dict[str, object] = {"bundle_meta": bundle.meta(),
                                   "generation": generation}
        if scope:
            meta["tenant"] = scope
        try:
            acks = await self.broadcast("reload", meta)
        except WorkerOpError:
            # A worker refused the generation (validation failure).
            # The gateway-side compile already validated, so this is
            # exceptional; keep the new bundle installed for restarts
            # and surface the error.
            raise
        finally:
            if old is not None:
                old[1].close()
        if not scope:
            for handle in self.handles:
                if handle.alive:
                    handle.generation = generation
        return sum(int(ack.get("flows_carried", 0))
                   for _, ack in acks)

    async def tenant_create(self, name: str,
                            bundle: SharedArrayBundle,
                            generation: int,
                            rules: List[Dict], mode: str) -> None:
        self._bundles[name] = (generation, bundle)
        await self.broadcast("tenant_create", {
            "name": name,
            "bundle_meta": bundle.meta(),
            "generation": generation,
            "rules": rules,
            "mode": mode,
        })

    async def tenant_delete(self, name: str) -> None:
        await self.broadcast("tenant_delete", {"name": name})
        entry = self._bundles.pop(name, None)
        if entry is not None:
            entry[1].close()

    # -- observability --------------------------------------------------------------

    def describe(self, stats: Optional[List[Tuple[int, Dict]]] = None
                 ) -> Dict[str, object]:
        """The STATS ``pool`` section; ``stats`` are per-worker
        ``stats`` op acks to fold in (flows, builds, generation)."""
        by_index = dict(stats or ())
        workers = []
        for handle in self.handles:
            ack = by_index.get(handle.index, {})
            workers.append({
                "index": handle.index,
                "pid": handle.proc.pid,
                "alive": handle.alive,
                "depth": handle.depth,
                "generation": ack.get("generation",
                                      handle.generation),
                "flows": ack.get("flows", 0),
                "automaton_builds": ack.get(
                    "automaton_builds",
                    handle.info.get("automaton_builds", 0)),
            })
        return {
            "size": self.size,
            "per_worker_cap": self.per_worker_cap,
            "restarts": self.restarts,
            "crashed_requests": self.crashed_requests,
            "flows": sum(int(w["flows"]) for w in workers),
            "workers": workers,
        }
