"""Host-speed yardsticks: fixed, stdlib-only work timed between timed ops.

On a shared host the speed available to one process moves by tens of
percent in phases of seconds to minutes, and the benchmark's host times
move with it.  Each yardstick does the same kind of work as the ops it
is timed beside, but none of the program's code, so a change to the
program cannot move it while a change of host speed does; ``run.py``
scales each op's host seconds by the yardstick times around it.

:func:`kernel`
    For simulator cells, timed in the sim child after each cell: a
    heap-ordered event loop calling small methods on slotted objects
    and a dict-backed LRU page map.
:func:`timed_spawn`
    For service jobs, whose time goes mostly to starting client
    processes and importing modules: starts Python processes that
    import the standard-library modules the CLI and the service use.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time
from typing import Dict, List, Tuple

#: Events per kernel call.
EVENTS = 12_000
#: Seconds one kernel call takes on the reference host (median over a
#: 300-second run on a 2-core x86-64 VM, CPython 3.11).  Host times are
#: reported as seconds on that host.
REFERENCE_S = 0.0297
#: Seconds :func:`timed_spawn` takes on the reference host (median over
#: 85 calls between service jobs on the same VM, pinned to one CPU).
SPAWN_REFERENCE_S = 0.227
#: Processes one :func:`timed_spawn` call starts, one after another.
SPAWNS = 2
SPAWN_ARGV = [sys.executable, "-c",
              "import argparse, http.server, json, sqlite3, urllib.request"]
#: Page-map capacity and key space: a working set of a few hundred KB.
CAPACITY = 4096
KEYS = 3 * CAPACITY


class _Page:
    __slots__ = ("key", "hits", "dirty")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.dirty = False


class _Cache:
    """LRU page map: a dict kept in recency order."""

    def __init__(self) -> None:
        self.pages: Dict[int, _Page] = {}
        self.misses = 0
        self.writebacks = 0

    def access(self, key: int, write: bool) -> int:
        page = self.pages.pop(key, None)
        if page is None:
            self.misses += 1
            page = _Page(key)
            if len(self.pages) >= CAPACITY:
                victim = self.pages.pop(next(iter(self.pages)))
                self.writebacks += victim.dirty
        page.hits += 1
        page.dirty = page.dirty or write
        self.pages[key] = page
        return 50 if page.hits > 1 else 3000


def kernel() -> Tuple[int, int]:
    """Run a fixed event loop; returns ``(misses, writebacks)``, which are
    the same on every call."""
    cache = _Cache()
    queue: List[Tuple[int, int, int]] = []
    state = 12345
    for thread in range(8):
        heapq.heappush(queue, (0, thread, thread))
    seq = 8
    for _ in range(EVENTS):
        now, _, thread = heapq.heappop(queue)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = (state >> 4) % KEYS
        latency = cache.access(key, write=state & 3 == 0)
        seq += 1
        heapq.heappush(queue, (now + latency, seq, thread))
    return cache.misses, cache.writebacks


def timed_kernel() -> float:
    """Seconds one :func:`kernel` call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def timed_spawn() -> float:
    """Seconds :data:`SPAWNS` Python processes take to start, import
    :data:`SPAWN_ARGV`'s modules and exit, one after another."""
    t0 = time.perf_counter()
    for _ in range(SPAWNS):
        subprocess.run(SPAWN_ARGV, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0
