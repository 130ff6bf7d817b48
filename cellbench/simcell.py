"""Child program: simulate a fixed list of cells in this process.

Run as ``python3 -m cellbench.simcell '<plan JSON>'`` with the
simulator's ``src`` directory on ``PYTHONPATH``.  It prints one JSON
line when set-up is done (``{"event": "ready"}``), then one with every
result (``{"event": "done", ...}``).  The plan's keys:

``cells``
    ``[{"workload", "variant", "kwargs"}]``, passed to ``run_workload``.
``seconds``
    Timed interval: whole round-robin rounds over the cells, started at
    cell ``start``, until this many seconds have passed (0: none).  Each
    op is followed by a garbage collection and one call of the host-speed
    yardstick (:mod:`cellbench.calibrate`), each timed apart.
``scalar_cell``
    Index of a cell re-run on the scalar reference path, or ``null``.
``count``
    Indices of cells for the call-counting pass (``sys.setprofile``).
``trace``
    Seconds of alternating untraced/traced rounds for the layer
    attribution (0: none).

Set-up is one untimed round: it imports the simulator, synthesises each
cell's traces (memoized for the timed rounds), preconditions each
device, and records each cell's digest and simulated counts.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Dict, List

from cellbench.calibrate import timed_kernel
from cellbench.common import digest, vm_hwm_mb
from cellbench.layers import LayerTracer

def _emit(payload: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(plan: Dict[str, object]) -> None:
    from repro.experiments import runner
    from repro.sim import engine, fastpath

    cells: List[Dict[str, object]] = plan["cells"]

    def run(i: int):
        cell = cells[i]
        return runner.run_workload(cell["workload"], cell["variant"],
                                   **cell["kwargs"])

    # -- set-up round -------------------------------------------------------
    setup: List[Dict[str, object]] = []
    for i in range(len(cells)):
        before = engine.events_processed()
        result = run(i)
        events = engine.events_processed() - before
        stats = result.stats
        records = result.threads * int(cells[i]["kwargs"]["records_per_thread"])
        setup.append({
            "digest": digest(result.to_dict()),
            "records": records,
            "throughput_ipns": stats.throughput_ipns,
            "erases": stats.flash_block_erases,
            "model": {
                "events": events,
                "flash_page_reads": stats.flash_page_reads,
                "flash_page_writes": stats.flash_page_writes,
                "gc_erases": stats.flash_block_erases,
                "write_amplification": stats.write_amplification,
                "context_switches": stats.context_switches,
                "pages_promoted": stats.pages_promoted,
            },
        })
    _emit({"event": "ready"})

    from repro.experiments.overall import PAPER_EXPECTED

    out: Dict[str, object] = {
        "event": "done",
        "setup": setup,
        "paper_speedup": PAPER_EXPECTED["fig14"]["skybyte_full_geomean_speedup"],
    }

    # -- timed rounds -------------------------------------------------------
    seconds = float(plan.get("seconds") or 0)
    if seconds > 0:
        order = [(int(plan.get("start", 0)) + k) % len(cells)
                 for k in range(len(cells))]
        # One [cell, op_s, collect_s, yardstick_s] per op, in time order.
        ops: List[List[float]] = []
        mismatches = 0
        clock = time.perf_counter
        gc.collect()
        timed_kernel()
        began = clock()
        while clock() - began < seconds:
            for i in order:
                t0 = clock()
                result = run(i)
                op_s = clock() - t0
                if digest(result.to_dict()) != setup[i]["digest"]:
                    mismatches += 1
                del result
                # Each op's garbage is collected right after it and timed
                # apart: the op samples stay free of full collections
                # (which sweep the memoized traces) that would otherwise
                # land at random on a later cell, and the collector's
                # cost is still billed to throughput.
                t0 = clock()
                gc.collect()
                collect_s = clock() - t0
                ops.append([i, op_s, collect_s, timed_kernel()])
        out["ops"] = ops
        out["mismatches"] = mismatches
    # Peak memory of set-up and the timed ops; the checks below run other
    # code paths (scalar, profiling) that are not the workload's.
    out["vm_hwm_mb"] = vm_hwm_mb(os.getpid())

    # -- scalar reference ---------------------------------------------------
    if plan.get("scalar_cell") is not None:
        i = int(plan["scalar_cell"])
        with fastpath.forced_mode("scalar"):
            result = run(i)
        out["scalar_ok"] = digest(result.to_dict()) == setup[i]["digest"]

    # -- call counting ------------------------------------------------------
    if plan.get("count"):
        out["py_calls"] = {str(i): count_calls(lambda i=i: run(i))
                           for i in plan["count"]}

    # -- layer attribution --------------------------------------------------
    if float(plan.get("trace") or 0) > 0:
        out["layers"] = attribute(runner, cells, setup, float(plan["trace"]))

    _emit(out)


def count_calls(thunk) -> int:
    """Python-level calls made while running ``thunk`` (deterministic:
    the interpreter reports every ``call`` event, timing-independent)."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls[0]


def attribute(runner, cells, setup, seconds: float) -> Dict[str, object]:
    """Alternate untraced and traced rounds for ``seconds``.

    Each round starts with the trace memo cleared, so trace synthesis --
    set-up work on the timed path -- is attributed to ``workloads``.
    """
    tracer = LayerTracer()
    untraced_s = traced_s = 0.0
    rounds = 0
    mismatches = 0
    clock = time.perf_counter
    began = clock()
    while rounds == 0 or clock() - began < seconds:
        for traced in (False, True):
            runner._TRACE_MEMO.clear()
            if traced:
                tracer.install()
            try:
                t0 = clock()
                results = [
                    runner.run_workload(c["workload"], c["variant"], **c["kwargs"])
                    for c in cells
                ]
                wall = clock() - t0
            finally:
                if traced:
                    tracer.remove()
            if traced:
                traced_s += wall
            else:
                untraced_s += wall
            mismatches += sum(digest(r.to_dict()) != s["digest"]
                              for r, s in zip(results, setup))
        rounds += 1
    attributed = sum(tracer.self_s.values())
    return {
        "rounds": rounds,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "unattributed_s": traced_s - attributed,
        "digest_mismatches": mismatches,
        "removed": not tracer.installed,
    }


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
