"""Continuous speed benchmarking: ``python -m repro bench``.

Measures end-to-end figure-driver throughput — cells per second and
engine events per second — in both simulator modes (the vectorized
default and the scalar reference path, see :mod:`repro.sim.fastpath`)
and emits ``BENCH_speed.json``, the speed companion to the fidelity
report's ``BENCH_fidelity.json``.

Protocol
--------
Each driver runs ``repeats`` times per mode and the *best* wall time
wins.  The first repetition doubles as warmup: the vectorized path
memoizes trace synthesis and FTL preconditioning across cells exactly
like a long ``repro report`` invocation does, so best-of-N measures the
steady state users actually experience, while the scalar reference —
which by design shares nothing between runs — measures the old cost.
All cells execute serially in-process (``jobs=1``, no result cache) so
the numbers compare across machines with different core counts.

Regression gating
-----------------
Absolute cells/sec depends on the host, so CI gates on the *speedup
ratio* (vector over scalar on the same host, same process), which is
machine-independent.  ``compare()`` fails a run when any driver's ratio
drops more than ``threshold`` (default 25%) below the committed
baseline ``benchmarks/BENCH_speed.baseline.json``.  Refresh the
baseline after an intentional change with ``repro bench
--update-baseline`` (or ``REPRO_UPDATE_SPEED_BASELINE=1``), mirroring
the golden-file flow of ``REPRO_UPDATE_GOLDEN``.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

SCHEMA_VERSION = 1
DEFAULT_OUT = "BENCH_speed.json"
DEFAULT_BASELINE = "benchmarks/BENCH_speed.baseline.json"
#: A driver regresses when its vector/scalar speedup falls more than
#: this fraction below the committed baseline's.
DEFAULT_THRESHOLD = 0.25
UPDATE_ENV = "REPRO_UPDATE_SPEED_BASELINE"


@dataclass(frozen=True)
class DriverSpec:
    """One benchmarked figure driver.

    ``cells`` is the static cell count for drivers that do not sweep
    through the orchestrator (figs. 5/6 replay traces directly and have
    no progress callback); sweep drivers report their cells live.
    """

    name: str
    records: int
    repeats: int = 3
    cells: Optional[int] = None
    kwargs: Dict[str, object] = field(default_factory=dict)


#: figs. 5/6: 4 workloads x 4 cache ratios.
_LOCALITY_CELLS = 16

# The sweep drivers run 5 repetitions: their per-rep wall is small
# enough that the extra cost is trivial, and a deeper best-of-N keeps
# the speedup ratio stable on noisy CI runners.
QUICK_SPECS: Tuple[DriverSpec, ...] = (
    DriverSpec("fig2", records=250, repeats=5),
    DriverSpec("fig5", records=1000, cells=_LOCALITY_CELLS),
    DriverSpec("fig6", records=1000, cells=_LOCALITY_CELLS),
    DriverSpec("promotion-threshold", records=250, repeats=5),
    DriverSpec("prefetch-ablation", records=250, repeats=5),
    # Deep-path coverage: one flat and one deep cell on two workload
    # shapes, so BENCH_speed tracks the queueing scheduler's cells/sec.
    DriverSpec("flash-sensitivity", records=250, repeats=3,
               kwargs={"workloads": ("tab1-bc", "tab1-ycsb"),
                       "models": ("flat", "deep")}),
)

FULL_SPECS: Tuple[DriverSpec, ...] = QUICK_SPECS + (
    DriverSpec("fig9", records=500),
    DriverSpec("fig14", records=500),
)


def _default_figures() -> Mapping[str, Callable]:
    # Imported lazily so ``repro.bench`` stays importable for unit tests
    # that inject a fake registry.
    from repro.cli import FIGURES

    return FIGURES


def _driver_kwargs(
    fn: Callable,
    spec: DriverSpec,
    progress: Callable,
) -> Tuple[Dict[str, object], bool]:
    """The subset of bench options ``fn`` understands, plus whether it
    accepts a progress callback (i.e. reports cells live)."""
    accepted = inspect.signature(fn).parameters
    candidates: Dict[str, object] = {
        "records": spec.records,
        "jobs": 1,
        "cache": False,
        "progress": progress,
        **spec.kwargs,
    }
    kwargs = {k: v for k, v in candidates.items() if k in accepted}
    return kwargs, "progress" in accepted


class BenchError(RuntimeError):
    """A driver spec that cannot be measured (no cell accounting)."""


def measure_driver(
    spec: DriverSpec,
    figures: Optional[Mapping[str, Callable]] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Dict[str, object]:
    """Benchmark one driver in both simulator modes.

    Returns the per-driver entry for ``BENCH_speed.json``:
    best-of-``repeats`` wall time, cells/sec and events/sec for the
    vectorized path, the scalar reference numbers, and their ratio.
    """
    # Imported here: ``repro bench`` options join the CLI parser, which
    # must not load the simulator.
    from repro.sim import engine as engine_mod
    from repro.sim import fastpath

    figures = figures if figures is not None else _default_figures()
    if spec.name not in figures:
        raise BenchError(f"unknown figure driver: {spec.name}")
    fn = figures[spec.name]

    counted = 0

    def progress(job: object, source: str) -> None:
        nonlocal counted
        counted += 1

    kwargs, live_cells = _driver_kwargs(fn, spec, progress)
    if not live_cells and spec.cells is None:
        raise BenchError(
            f"driver {spec.name} has no progress callback; "
            "its spec needs a static `cells` count"
        )

    # Paired measurement: each repetition times the scalar reference and
    # the vectorized path back to back, so a contended window on a noisy
    # host (CI runners especially) skews both sides of the speedup ratio
    # alike instead of whichever mode it happened to land on.
    modes: Dict[str, Dict[str, float]] = {
        mode: {"wall_s": math.inf, "events": 0, "cells": spec.cells or 0}
        for mode in ("scalar", "vector")
    }
    for _rep in range(max(1, spec.repeats)):
        for mode, best in modes.items():
            with fastpath.forced_mode(mode):
                counted = 0
                events_before = engine_mod.events_processed()
                t0 = clock()
                fn(**kwargs)
                wall = clock() - t0
                events = engine_mod.events_processed() - events_before
            if live_cells:
                best["cells"] = counted
            if wall < best["wall_s"]:
                best["wall_s"] = wall
                best["events"] = events
    for best in modes.values():
        wall_s = max(best["wall_s"], 1e-9)
        best["wall_s"] = wall_s
        best["cells_per_sec"] = best["cells"] / wall_s
        best["events_per_sec"] = best["events"] / wall_s

    vector = modes["vector"]
    scalar = modes["scalar"]
    return {
        "records": spec.records,
        "repeats": spec.repeats,
        "cells": vector["cells"],
        "wall_s": vector["wall_s"],
        "cells_per_sec": vector["cells_per_sec"],
        "events": vector["events"],
        "events_per_sec": vector["events_per_sec"],
        "scalar": {
            "wall_s": scalar["wall_s"],
            "cells_per_sec": scalar["cells_per_sec"],
            "events": scalar["events"],
            "events_per_sec": scalar["events_per_sec"],
        },
        "speedup": scalar["wall_s"] / vector["wall_s"],
    }


def run_bench(
    specs: Sequence[DriverSpec],
    figures: Optional[Mapping[str, Callable]] = None,
    clock: Callable[[], float] = time.perf_counter,
    quick: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run every spec and assemble the ``BENCH_speed.json`` payload."""
    from repro.sim import fastpath

    drivers: Dict[str, Dict[str, object]] = {}
    for spec in specs:
        if echo:
            echo(f"== bench {spec.name} (records={spec.records}, "
                 f"repeats={spec.repeats})")
        entry = measure_driver(spec, figures=figures, clock=clock)
        drivers[spec.name] = entry
        if echo:
            echo(f"   {entry['cells']} cells, {entry['wall_s']:.3f}s, "
                 f"{entry['cells_per_sec']:.1f} cells/s, "
                 f"speedup {entry['speedup']:.2f}x")

    total_wall = sum(d["wall_s"] for d in drivers.values())
    total_cells = sum(d["cells"] for d in drivers.values())
    total_events = sum(d["events"] for d in drivers.values())
    speedups = [d["speedup"] for d in drivers.values()]
    geomean = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else 0.0
    )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "speed",
        "quick": quick,
        "backend": "serial",
        "sim_path_default": fastpath.mode(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "drivers": drivers,
        "overall": {
            "drivers": len(drivers),
            "wall_s": total_wall,
            "cells": total_cells,
            "cells_per_sec": total_cells / total_wall if total_wall else 0.0,
            "events": total_events,
            "events_per_sec": total_events / total_wall if total_wall else 0.0,
            "speedup_geomean": geomean,
            "speedup_min": min(speedups) if speedups else 0.0,
        },
    }


def compare(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Regression check against the committed baseline.

    Returns a list of human-readable problems (empty = pass).  Only the
    machine-independent speedup ratio gates; absolute cells/sec is
    informational.  Drivers present in the baseline must be present in
    the current run; new drivers in the current run are fine (they gate
    once the baseline is refreshed).
    """
    problems: List[str] = []
    base_drivers = baseline.get("drivers", {})
    cur_drivers = current.get("drivers", {})
    for name, base in base_drivers.items():
        cur = cur_drivers.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current bench run")
            continue
        floor = base["speedup"] * (1.0 - threshold)
        if cur["speedup"] < floor:
            problems.append(
                f"{name}: speedup {cur['speedup']:.2f}x regressed more "
                f"than {threshold:.0%} below baseline "
                f"{base['speedup']:.2f}x (floor {floor:.2f}x)"
            )
    return problems


def load_json(path: os.PathLike) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


def write_json(path: os.PathLike, payload: Mapping[str, object]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def add_arguments(parser) -> None:
    """Register the bench options (shared by ``repro bench`` and the
    standalone ``python -m repro.bench`` entry)."""
    parser.add_argument("--quick", action="store_true",
                        help="small driver set at low record counts (CI)")
    parser.add_argument("--names", action="append",
                        help="benchmark only these drivers (repeat/comma-separate)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override repetitions per mode (default 3)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"committed baseline (default {DEFAULT_BASELINE})")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) on regression vs the baseline")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional speedup drop (default 0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run "
                             f"(also: {UPDATE_ENV}=1)")


def run_from_args(
    args,
    figures: Optional[Mapping[str, Callable]] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> int:
    """Execute a parsed bench invocation; returns the exit code."""
    specs: Sequence[DriverSpec] = QUICK_SPECS if args.quick else FULL_SPECS
    if args.names:
        wanted = []
        for value in args.names:
            wanted.extend(part for part in value.split(",") if part)
        known = {s.name for s in specs}
        unknown = [n for n in wanted if n not in known]
        if unknown:
            print(f"unknown bench driver(s): {', '.join(unknown)}; "
                  f"available: {', '.join(sorted(known))}", file=sys.stderr)
            return 2
        specs = [s for s in specs if s.name in wanted]
    if args.repeats is not None:
        specs = [
            DriverSpec(s.name, s.records, max(1, args.repeats), s.cells,
                       dict(s.kwargs))
            for s in specs
        ]

    payload = run_bench(specs, figures=figures, clock=clock,
                        quick=args.quick, echo=print)
    write_json(args.out, payload)
    print(f"wrote {args.out}")

    update = args.update_baseline or os.environ.get(UPDATE_ENV, "") not in ("", "0")
    if update:
        write_json(args.baseline, payload)
        print(f"updated baseline {args.baseline}")
        return 0

    if args.check:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}; commit one with "
                  "--update-baseline", file=sys.stderr)
            return 1
        problems = compare(payload, load_json(baseline_path),
                           threshold=args.threshold)
        if problems:
            print("speed regression detected:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"speed check passed ({len(payload['drivers'])} drivers, "
              f"threshold {args.threshold:.0%})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point: ``python -m repro.bench``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="measure figure-driver throughput and emit BENCH_speed.json",
    )
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
