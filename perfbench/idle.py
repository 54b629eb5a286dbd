"""Keep every CPU busy at the lowest scheduling priority while a run
measures.

On a virtualized host a CPU with nothing to run halts, and waking it
again waits for the hypervisor to schedule it.  The service workloads
sleep and wake on every request, so that wait would be charged to the
daemon, and it swings with the load of other machines on the host: on
the 2-core host this benchmark was built on, a closed loop of
packet-sized SCANs against ``repro serve`` ran at 430-620 replies/s
with 14-20% of CPU time stolen by the hypervisor, and at 810-1,020
replies/s with 2-7% stolen when every CPU was kept busy like this.

Each spinner is a process under ``SCHED_IDLE``: the kernel runs it
only when no other task wants that CPU and preempts it as soon as one
does, so it takes no CPU time from the program under test; it only
keeps the CPU from halting.  A spinner exits at once where
``SCHED_IDLE`` is not available, and on its own when its parent is
gone.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from typing import Iterator

_SPIN = """\
import os, sys
parent = os.getppid()
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


def cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def idle_spinners(count: int) -> Iterator[None]:
    """Run ``count`` spinners for the duration of the block; kill and
    reap every one of them on the way out."""
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN],
                              stdin=subprocess.DEVNULL)
             for _ in range(count)]
    try:
        yield
    finally:
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()
