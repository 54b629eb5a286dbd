"""Drive ``repro serve`` from outside: a child daemon process and an
asyncio client speaking the wire protocol.

:class:`Daemon` starts the daemon through the public CLI in its own
process group, with a private ``--cache`` directory and ``--port 0``,
and reads the bound port from its log.  :meth:`Daemon.stop` drains it
with SIGTERM and then checks that no shared-memory segment that
appeared while it ran outlives it; a leak or a daemon that will not
drain raises :class:`DaemonError`, which fails the run.

:class:`Conn` is one client connection.  It frames requests with the
protocol layer's own ``encode_frame`` / ``split_body`` (timed as the
``service.protocol`` layer in traced runs), and supports pipelining:
:meth:`Conn.send` writes a frame without waiting, :meth:`Conn.recv`
reads the next reply.  The daemon answers each connection's frames in
order, so replies pair with requests first-in first-out.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.service.protocol import encode_frame, split_body

from .trace import Tracer

#: The checkout the benchmark runs from; the daemon runs its ``src/``.
ROOT = Path(__file__).resolve().parent.parent
_PREFIX = struct.Struct(">I")
_SERVING = re.compile(r"^serving .* on ([0-9.]+):(\d+) ", re.M)
SHM_DIR = Path("/dev/shm")

#: Seconds to wait for the daemon's "serving" line, and for its drain.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class DaemonError(Exception):
    """The daemon failed to start, to drain, or leaked a segment."""


def shm_segments() -> Set[str]:
    """Names of the shared-memory segments that exist now."""
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


class Daemon:
    """One ``repro serve`` child process."""

    def __init__(self, workdir: Path, args: List[str],
                 label: str) -> None:
        self.workdir = workdir
        self.args = args
        self.label = label
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.log_path = workdir / f"{label}.log"
        self._shm_before: Set[str] = set()

    def spawn(self) -> None:
        """Start the process; :meth:`wait_listening` finds its port."""
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        cache = self.workdir / f"{self.label}-cache"
        cache.mkdir(parents=True, exist_ok=True)
        self._shm_before = shm_segments()
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", str(cache)] + self.args,
            cwd=str(self.workdir), env=env, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True)

    async def wait_listening(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise DaemonError(
                    f"{self.label}: daemon exited with "
                    f"{self.proc.returncode}: {self.log_tail()}")
            m = _SERVING.search(self.log_path.read_text(errors="replace"))
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                return
            await asyncio.sleep(0.005)
        raise DaemonError(f"{self.label}: no 'serving' line within "
                          f"{START_TIMEOUT_S:.0f}s: {self.log_tail()}")

    def log_tail(self, lines: int = 8) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])

    def stop(self) -> None:
        """Drain with SIGTERM, reap, and check for leaked segments.
        Falls back to SIGKILL of the whole process group (and raises)
        when the daemon does not exit in time."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        error = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                error = f"{self.label}: daemon ignored SIGTERM"
        # Pool workers share the daemon's process group: reap any
        # straggler so no process outlives the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        self._log.close()
        if error is None and proc.returncode != 0:
            error = (f"{self.label}: daemon exited with "
                     f"{proc.returncode}: {self.log_tail()}")
        leaked = self._leaked_segments()
        if leaked:
            error = (f"{self.label}: shared-memory segment(s) outlived "
                     f"the daemon: {sorted(leaked)}")
        if error:
            raise DaemonError(error)

    def _leaked_segments(self) -> Set[str]:
        deadline = time.monotonic() + 2.0
        while True:
            leaked = shm_segments() - self._shm_before
            if not leaked or time.monotonic() > deadline:
                return leaked
            time.sleep(0.05)


class ReplyError(Exception):
    """The daemon answered with an error frame."""

    def __init__(self, header: Dict[str, object]) -> None:
        super().__init__(f"{header.get('code')}: {header.get('error')}")
        self.code = str(header.get("code", "error"))


class Conn:
    """One pipelining client connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, tracer: Tracer) -> None:
        self.reader = reader
        self.writer = writer
        self.tracer = tracer
        self._rid = 0

    @classmethod
    async def open(cls, host: str, port: int, tracer: Tracer) -> "Conn":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, tracer)

    def send(self, header: Dict[str, object], payload: bytes = b"",
             parent: Optional[int] = None) -> int:
        """Frame and write one request; returns its request id."""
        self._rid += 1
        header = dict(header, id=self._rid)
        with self.tracer.span("service.protocol.encode_frame", parent,
                              self._rid):
            frame = encode_frame(header, payload)
        self.writer.write(frame)
        return self._rid

    async def read_body(self) -> Tuple[bytes, float]:
        """Read the next reply frame's body; returns it with its
        arrival time."""
        prefix = await self.reader.readexactly(4)
        body = await self.reader.readexactly(_PREFIX.unpack(prefix)[0])
        return body, time.perf_counter()

    def decode(self, body: bytes, parent: Optional[int] = None,
               request: Optional[int] = None) -> Dict[str, object]:
        with self.tracer.span("service.protocol.decode_frame", parent,
                              request):
            return split_body(body).header

    async def recv(self, parent: Optional[int] = None,
                   request: Optional[int] = None
                   ) -> Tuple[Dict[str, object], float]:
        """Read and decode the next reply; returns its header and
        arrival time."""
        body, arrived = await self.read_body()
        return self.decode(body, parent, request), arrived

    async def call(self, header: Dict[str, object], payload: bytes = b""
                   ) -> Dict[str, object]:
        """One request, one reply; raises :class:`ReplyError` on an
        error reply."""
        rid = self.send(header, payload)
        await self.writer.drain()
        reply, _ = await self.recv()
        if reply.get("id") != rid:
            raise ReplyError({"code": "transport",
                              "error": f"reply id {reply.get('id')} for "
                                       f"request {rid}"})
        if not reply.get("ok"):
            raise ReplyError(reply)
        return reply

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def ping_rtts(conn: Conn, count: int) -> List[float]:
    """Round-trip times of ``count`` PINGs, one at a time."""
    rtts = []
    for _ in range(count):
        t0 = time.perf_counter()
        await conn.call({"verb": "PING"})
        rtts.append(time.perf_counter() - t0)
    return rtts


async def start_daemons(workdir: Path, args: List[str], label: str,
                        tracer: Tracer, setups: int
                        ) -> Tuple[List[float], Daemon, Conn]:
    """Start the daemon ``setups`` times, timing each start from spawn
    to its first PING reply; every start but the last is drained again
    at once.  Returns the set-up times and the running daemon with its
    first connection."""
    times: List[float] = []
    for i in range(setups):
        daemon = Daemon(workdir, args, f"{label}{i}")
        try:
            t0 = time.perf_counter()
            daemon.spawn()
            await daemon.wait_listening()
            conn = await Conn.open(daemon.host, daemon.port, tracer)
            await conn.call({"verb": "PING"})
            times.append(time.perf_counter() - t0)
        except BaseException:
            daemon.stop()
            raise
        if i + 1 == setups:
            return times, daemon, conn
        await conn.close()
        daemon.stop()
    raise ValueError("setups must be positive")
