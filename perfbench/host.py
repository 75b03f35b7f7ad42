"""Host reference loop and the stamp every result carries."""

from __future__ import annotations

import ctypes
import heapq
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List

#: Keys of the reference loop's table: distinct, in a scrambled order.
REF_KEYS = [(i * 7919 % 50021, i % 97) for i in range(40_000)]

#: A typical reference-loop time on the 2-core Intel Xeon host (CPython
#: 3.11) the benchmark was tuned on, where it read 0.035-0.10 s as the
#: host's speed changed.  A time divided by the reference loops around
#: it and multiplied by this reads as seconds on that host.
REF_NOMINAL_S = 0.06


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python job: the host's current speed.

    It fills a 40k-entry dict of tuples, keeps a small heap over it and
    walks it in sorted order -- the allocation, hashing and pointer
    chasing the measured layers spend their time on, so a neighbour that
    slows the program slows it alike.  A tight integer loop's time
    swung more than the program's did, and dividing by it
    over-corrected (see README.md).
    """
    start = time.perf_counter()
    table = {}
    for key in REF_KEYS:
        table[key] = (key[1], [key[0]])
    heap: List = []
    for key, value in table.items():
        heapq.heappush(heap, (value[0], key))
        if len(heap) > 64:
            heapq.heappop(heap)
    total = 0
    for key in sorted(table, key=lambda k: table[k][0]):
        total += table[key][1][0]
    return time.perf_counter() - start


#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux).
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Have descendants that outlive their parent re-parented to this
    process rather than to init, so :func:`stop_children` waits for them
    too.  A no-op where ``prctl`` is unavailable."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _child_pids() -> List[int]:
    """Live (or unreaped) children of this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # ended while we looked
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The shared-memory sweep starts multiprocessing's resource tracker,
    which is built to outlive its parent; it is stopped first, the way
    its own shutdown does it (close its pipe, then wait).  Pool workers
    are joined by the pool itself; anything else still alive gets
    SIGTERM, then SIGKILL after *grace_s*, and is reaped.
    """
    resource_tracker._resource_tracker._stop()
    for child in multiprocessing.active_children():
        child.join(grace_s)
    deadline = time.monotonic() + grace_s
    while True:
        pids = _child_pids()
        if not pids:
            return
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # not ours to reap, or already reaped
                pass


def git_revision(root: Path) -> str:
    """``HEAD`` of *root* when it is a git work tree, else ``"unknown"``."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def stamp(root: Path, nproc: int, seed: int, ops: int, refs: List[float]) -> Dict:
    import numpy
    import scipy

    quartiles = statistics.quantiles(refs, n=4) if len(refs) > 1 else refs * 3
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": git_revision(root),
        "seed": seed,
        "ops": ops,
        "ref_quartiles_s": [round(q, 6) for q in quartiles],
    }
