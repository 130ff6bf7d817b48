"""Helpers shared by run.py, its child programs and the tests.

Stdlib only: the run.py process never imports the simulator, so its own
memory and start-up stay out of every measured number.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import re
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name: str) -> bool:
    """A metric/workload name: starts with a letter or digit, at most 64
    of letters, digits, ``_``, ``.`` and ``-``."""
    return bool(_NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT_RE.match(unit))


def tail_percentile(n: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten of
    ``n`` samples beyond it; 50 (the median) when ``n`` is too small
    for any tail."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return q
    return 50.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def op_percentiles(samples: Dict[str, List[float]]) -> Tuple[float, float, float, int]:
    """``(p50_s, tail_s, tail_pct, n)`` over op samples grouped by kind.

    Ops of one workload come in kinds of very different size (a
    Base-CSSD cell runs a third of a SkyByte-Full cell's records), and
    every kind is timed equally often.  A pooled median would then fall
    in the gap between kinds, where one stray sample moves it.  So the
    p50 is the geometric mean of each kind's median, and the tail scales
    it by the tail percentile of every sample's ratio to its own kind's
    median, pooled over all ``n`` samples.
    """
    kind_medians = {k: median(v) for k, v in samples.items() if v}
    ratios = [t / kind_medians[k] for k, v in samples.items() for t in v]
    p50 = geomean(kind_medians.values())
    q = tail_percentile(len(ratios))
    return p50, p50 * percentile(ratios, q), q, len(ratios)


def host_factors(yardstick: Sequence[float], reference: float,
                 window: int) -> List[float]:
    """Per-op factors that turn host seconds into seconds on a host where
    the yardstick kernel takes ``reference`` seconds.

    ``yardstick[i]`` is the kernel's time right after op ``i``.  Op ``i``
    is scaled by ``reference`` over the mean kernel time of the
    ``window`` ops around it (clipped at either end of the run), so a
    phase of slow or fast host shrinks or stretches every op inside it
    alike while a slower program still reads slower.
    """
    n = len(yardstick)
    window = max(1, min(window, n))
    factors = []
    for i in range(n):
        lo = max(0, min(i - window // 2, n - window))
        near = yardstick[lo:lo + window]
        factors.append(reference * len(near) / sum(near))
    return factors


def digest(result_dict: Dict[str, object]) -> str:
    """Content digest of a ``RunResult.to_dict()`` (or its JSON
    round-trip, which is identical: floats serialise by ``repr``)."""
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# -- child processes ----------------------------------------------------------


class Children:
    """Every process one benchmark run starts.

    Each child gets its own session (so a stop signal reaches whatever it
    forks), and :meth:`stop_all` -- run on every exit path of the
    parent -- terminates, kills if need be, and reaps each one.  The pids
    of long-lived children are kept in ``pidfile`` while they live, so
    the next run can refuse to start beside a survivor.
    """

    def __init__(self, pidfile: Path) -> None:
        self.pidfile = pidfile
        self.procs: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self.procs.append(proc)
        self._write_pidfile()
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 5.0) -> Optional[float]:
        """Stop and reap ``proc``.  Returns the peak resident set, in MB,
        of the child and of every descendant it reaped (``ru_maxrss`` of
        ``wait4``), or ``None`` if the child had been reaped before."""
        peak_mb = None
        if proc.returncode is None:
            _signal_group(proc, signal.SIGTERM)
            usage = _wait4(proc, grace)
            if usage is None and proc.returncode is None:
                _signal_group(proc, signal.SIGKILL)
                usage = _wait4(proc, None)
            if usage is not None:
                peak_mb = usage.ru_maxrss / 1024.0
        # Reap anything the child left behind in its session.
        _signal_group(proc, signal.SIGKILL)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self.procs:
            self.procs.remove(proc)
        self._write_pidfile()
        return peak_mb

    def stop_all(self) -> None:
        for proc in list(self.procs):
            self.stop(proc, grace=2.0)

    def _write_pidfile(self) -> None:
        live = [p.pid for p in self.procs if p.poll() is None]
        if live:
            self.pidfile.write_text("\n".join(map(str, live)) + "\n")
        elif self.pidfile.exists():
            self.pidfile.unlink()


def _wait4(proc: subprocess.Popen, timeout: Optional[float]):
    """Reap ``proc`` within ``timeout`` seconds (``None``: no limit) and
    return its ``resource.struct_rusage``; ``None`` if it still runs or
    was reaped elsewhere."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while proc.returncode is None:
        try:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        except ChildProcessError:  # reaped elsewhere
            proc.returncode = 0
            return None
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if deadline is not None and time.monotonic() >= deadline:
            return None
        time.sleep(0.01)
    return None


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def survivors(pidfile: Path) -> List[int]:
    """Pids listed in a previous run's pidfile that are still alive."""
    if not pidfile.exists():
        return []
    alive = []
    for token in pidfile.read_text().split():
        try:
            cmdline = Path(f"/proc/{int(token)}/cmdline").read_bytes()
        except (OSError, ValueError):
            continue  # gone (or not a pid)
        # A recycled pid running something else is not a survivor.
        if b"repro" in cmdline or b"cellbench" in cmdline:
            alive.append(int(token))
    return alive


class LineReader:
    """Lines of a child's stdout, read on a daemon thread so the parent
    can wait for the next one with a timeout."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(proc.stdout,),
                                        daemon=True)
        self._thread.start()

    def _pump(self, stream) -> None:
        try:
            for line in stream:
                self._lines.put(line)
        except (OSError, ValueError):  # closed under us by Children.stop
            pass
        self._lines.put(None)

    def next(self, timeout: float) -> Optional[str]:
        """The next line, ``None`` at EOF; raises ``TimeoutError``."""
        try:
            return self._lines.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise TimeoutError("child went silent") from None
