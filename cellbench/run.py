"""End-to-end benchmark of the SkyByte reproduction: simulator cells and
the sweep service, timed from outside ``src/``.

    python3 cellbench/run.py --workload sim --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; nothing is built or installed.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from a separate traced run) with ``--trace 1``.
``BENCHMARK.json`` at the checkout root names every metric, its unit,
its better direction and which layer should move it.

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``sim``
    Fixed simulator cells, run in one child process, timed one cell at a
    time in round-robin order: a read-path group (flat device model, no
    GC) and a write/GC group (deep device model, GC forced active).  The
    seed picks the round-robin start, the cell re-checked on the scalar
    reference path, and the hash seeds of the two processes whose call
    counts must agree.  Op times are scaled to the reference host by the
    yardstick kernel timed after each op (``cellbench/calibrate.py``).
``service-cached`` / ``service-cold``
    ``repro serve`` plus one dial-in ``repro worker``, driven by one
    closed-loop client running real ``repro job submit/wait/result``
    processes.  Cached jobs re-submit the warm-up spec; cold job *i*
    simulates with trace seed ``seed + i``.  Every process of the run
    shares one CPU, and job times are scaled by the process-start
    yardstick timed here on that CPU after each job.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from cellbench.calibrate import (  # noqa: E402
    REFERENCE_S, SPAWN_REFERENCE_S, timed_spawn,
)
from cellbench.common import (  # noqa: E402
    Children, LineReader, digest, geomean, host_factors, median, metric,
    op_percentiles, survivors, vm_hwm_mb,
)
from cellbench.layers import LAYERS  # noqa: E402

SRC = REPO / "src"
WORK = REPO / ".cellbench"
PIDFILE = WORK / "live.pids"

#: Spawns per run whose spawn-to-ready times give ``setup_s`` (median).
SETUPS = 3
#: Trace seed of every sim cell and of the service warm-up spec: fixed,
#: so simulated counts, call counts and the paper gap repeat exactly.
SIM_SEED = 42
#: Read-path apps on the flat model: read-dominated, zero GC erases.
READ_APPS = ("bc", "ycsb")
#: Write-path apps on the deep model with GC forced active.
WRITE_GC_APPS = ("tpcc", "srad")
VARIANTS = ("Base-CSSD", "SkyByte-Full")
SIM_RECORDS = 1000
#: GC forced active on the deep model: at the default threshold the
#: preconditioned device never erases a block within a cell.
WRITE_GC_KWARGS = {
    "device_model": "deep",
    "ssd_overrides": {"gc_threshold": 0.3, "gc_free_fraction": 0.02},
}
SERVICE_APPS = ("bc", "ycsb")
SERVICE_RECORDS = 300
CHILD_TIMEOUT = 150.0
#: Jobs whose yardstick times scale one service job's seconds.
SERVICE_WINDOW = 4
#: How long a client waits for one service job.  A job whose cells keep
#: failing never ends (the lone worker is quarantined), so the wait must
#: give up for the run to go on and count the job as failed.
JOB_TIMEOUT = 30.0

#: Per-layer metrics that only one family of workloads can measure; the
#: other family reports them as 0.
SERVICE_LAYER_METRICS = (
    ("client.submit_s", "s"), ("client.wait_s", "s"), ("client.result_s", "s"),
    ("client.modules_imported", "count"), ("client.wait_lag_s", "s"),
    ("service.queue_wait_s", "s"), ("cache.hit_ratio", "ratio"),
    ("service.run_s", "s"), ("worker.cell_s", "s"),
    ("backend.dispatch_s", "s"), ("backend.retries", "count"),
    ("worker.quarantines", "count"),
)
MODEL_UNITS = {
    "events": "1/record", "flash_page_reads": "1/record",
    "flash_page_writes": "1/record", "gc_erases": "1/record",
    "write_amplification": "ratio", "context_switches": "1/record",
    "pages_promoted": "1/record",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def log(message: str) -> None:
    print(f"cellbench: {message}", file=sys.stderr, flush=True)


def child_env(**extra: str) -> Dict[str, str]:
    """Environment of every child: the checkout's sources, and none of
    the caller's ``REPRO_*`` knobs (record counts, sim path, logging)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{REPO}"
    env.update(extra)
    return env


def sim_cells() -> List[Dict[str, object]]:
    cells = []
    for apps, extra in ((READ_APPS, {}), (WRITE_GC_APPS, WRITE_GC_KWARGS)):
        cells += [
            {"workload": app, "variant": variant,
             "kwargs": {"records_per_thread": SIM_RECORDS, "seed": SIM_SEED,
                        **extra}}
            for app in apps for variant in VARIANTS
        ]
    return cells


def gc_cells_without_erases(cells: List[Dict[str, object]],
                            setup: List[Dict[str, object]]) -> List[int]:
    """Indices of write/GC cells whose set-up run erased no block."""
    return [i for i, (c, s) in enumerate(zip(cells, setup))
            if c["workload"] in WRITE_GC_APPS and s["erases"] <= 0]


def service_cells(seed: int) -> List[Dict[str, object]]:
    """The cells of one service job, as ``run_workload`` arguments."""
    return [
        {"workload": app, "variant": variant,
         "kwargs": {"records_per_thread": SERVICE_RECORDS, "seed": seed}}
        for app in SERVICE_APPS for variant in VARIANTS
    ]


def speedup_err_log(cells: List[Dict[str, object]], setup: List[Dict[str, object]],
                    paper: float) -> float:
    """``|ln(geomean SkyByte-Full/Base-CSSD speedup / paper)|`` over the
    apps of ``cells``."""
    thr = {(c["workload"], c["variant"]): s["throughput_ipns"]
           for c, s in zip(cells, setup)}
    apps = sorted({c["workload"] for c in cells})
    speedup = geomean(thr[(a, "SkyByte-Full")] / thr[(a, "Base-CSSD")] for a in apps)
    return abs(math.log(speedup / paper))


# -- the simcell child --------------------------------------------------------


def run_simcell(children: Children, plan: Dict[str, object],
                hash_seed: Optional[int] = None) -> Tuple[float, Dict[str, object]]:
    """Spawn one ``cellbench.simcell`` child; return its spawn-to-ready
    seconds and its final report."""
    env = child_env(PYTHONHASHSEED=str((hash_seed or 0) % 2**32))
    started = time.monotonic()
    proc = children.spawn(
        [sys.executable, "-m", "cellbench.simcell", json.dumps(plan)],
        cwd=str(REPO), env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        lines = LineReader(proc)
        deadline = started + CHILD_TIMEOUT
        first = lines.next(deadline - time.monotonic())
        ready_s = time.monotonic() - started
        if first is None or json.loads(first).get("event") != "ready":
            raise BenchError(f"simcell child failed during set-up: {first!r}")
        last = lines.next(deadline - time.monotonic())
        if last is None:
            raise BenchError("simcell child exited without a report")
        report = json.loads(last)
        if proc.wait(timeout=max(deadline - time.monotonic(), 1.0)) != 0:
            raise BenchError(f"simcell child exited with {proc.returncode}")
        return ready_s, report
    finally:
        children.stop(proc)


def sim_workload(children: Children, seed: int, seconds: float,
                 trace: bool) -> Dict[str, object]:
    cells = sim_cells()
    if trace:
        _, report = run_simcell(children, {"cells": cells, "trace": seconds}, seed)
        outcome = layer_metrics(cells, report)
        outcome["failed"] += len(gc_cells_without_erases(cells, report["setup"]))
        return outcome

    # The seed picks one cell to re-check: on the scalar path in the main
    # child, and by call count in another process under another hash seed.
    # Every set-up child records each cell's digest and simulated counts,
    # which must agree across the three processes and their hash seeds.
    check = (seed // len(cells)) % len(cells)
    hash_seeds = [2 * seed + 1, 2 * seed + 2]
    ready: List[float] = []
    other_setups = []
    for k in range(SETUPS - 1):
        plan = {"cells": cells, "count": [check] if k == 0 else []}
        ready_s, report = run_simcell(children, plan,
                                      hash_seeds[0] if k == 0 else None)
        ready.append(ready_s)
        other_setups.append(report["setup"])
        if k == 0:
            other_calls = report["py_calls"][str(check)]
    plan = {
        "cells": cells,
        "seconds": seconds,
        "start": seed % len(cells),
        "scalar_cell": check,
        "count": list(range(len(cells))),
    }
    ready_s, report = run_simcell(children, plan, hash_seeds[1])
    ready.append(ready_s)
    counts_agree = report["py_calls"][str(check)] == other_calls
    setups_agree = all(other == report["setup"] for other in other_setups)

    setup = report["setup"]
    # Host seconds of each op, scaled to the reference host by the
    # yardstick timed around it (see cellbench/calibrate.py).
    ops = report["ops"]
    factors = host_factors([o[3] for o in ops], REFERENCE_S, len(cells))
    samples: List[List[float]] = [[] for _ in cells]
    timed_s = raw_s = 0.0
    for (i, op_s, collect_s, _), factor in zip(ops, factors):
        samples[int(i)].append(op_s * factor)
        # Throughput bills the collection that follows each op; the op
        # percentiles do not.
        timed_s += (op_s + collect_s) * factor
        raw_s += op_s + collect_s
    timed_ops = len(ops)
    failed = report["mismatches"]
    failed += sum(len(samples[i]) for i in gc_cells_without_erases(cells, setup))
    failed += 0 if report["scalar_ok"] else 1
    failed += 0 if counts_agree else 1
    failed += 0 if setups_agree else 1
    attempted = timed_ops + 3

    records = sum(len(s) * c["records"] for s, c in zip(samples, setup))
    kinds = {f'{c["workload"]}/{c["variant"]}': s for c, s in zip(cells, samples)}
    p50, tail, tail_pct, n = op_percentiles(kinds)
    log(f"sim: ops took {raw_s / timed_s:.3f}x their time on the reference host; "
        f"unscaled {records / raw_s:.1f} records/s")
    log(f"sim: {n} cell samples, tail at p{tail_pct:g}; "
        f"scalar check {'ok' if report['scalar_ok'] else 'FAILED'}; "
        f"call counts {'agree' if counts_agree else 'DIFFER'}; "
        f"set-up digests and model counts "
        f"{'agree' if setups_agree else 'DIFFER'} across processes")
    calls = sum(report["py_calls"].values())
    round_records = sum(c["records"] for c in setup)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(median(ready), "s"),
            "records_per_s": metric(records / timed_s, "records/s"),
            "op_p50_s": metric(p50, "s"),
            "op_tail_s": metric(tail, "s"),
            "peak_rss_mb": metric(report["vm_hwm_mb"], "MB"),
            "ops_ok_frac": metric((attempted - failed) / attempted, "ratio"),
            "py_calls_per_record": metric(calls / round_records, "calls/record"),
            "speedup_err_log": metric(
                speedup_err_log(cells, setup, report["paper_speedup"]), "log-ratio"),
        },
    }


def layer_metrics(cells: List[Dict[str, object]], report: Dict[str, object],
                  fixed_cells: Optional[int] = None) -> Dict[str, object]:
    """Per-layer metrics from a simcell report that ran ``trace``; the
    ``model.*`` counts cover the first ``fixed_cells`` cells (those with
    a fixed trace seed), by default all."""
    layers = report["layers"]
    setup = report["setup"]
    rounds = layers["rounds"]
    round_records = sum(c["records"] for c in setup)
    traced_s = layers["traced_s"]
    out: Dict[str, Dict[str, object]] = {}
    for layer in LAYERS:
        self_s = layers["self_s"][layer]
        out[f"{layer}.self_s"] = metric(self_s / rounds, "s")
        out[f"{layer}.share"] = metric(self_s / traced_s, "ratio")
        out[f"{layer}.calls_per_record"] = metric(
            layers["calls"][layer] / (rounds * round_records), "calls/record")
    out["unattributed.share"] = metric(layers["unattributed_s"] / traced_s, "ratio")
    out["trace.overhead_s"] = metric(
        (traced_s - layers["untraced_s"]) / rounds, "s")
    fixed = setup[:fixed_cells]
    fixed_records = sum(c["records"] for c in fixed)
    for name, unit in MODEL_UNITS.items():
        values = [c["model"][name] for c in fixed]
        value = (sum(values) / len(values) if unit == "ratio"
                 else sum(values) / fixed_records)
        out[f"model.{name}"] = metric(value, unit)
    attempted = 2 * rounds * len(cells)
    # Self times plus the remainder are the traced wall time by
    # construction; a negative part would mean the accounting broke.
    consistent = layers["unattributed_s"] >= -1e-6 and all(
        v >= -1e-6 for v in layers["self_s"].values())
    failed = (layers["digest_mismatches"] + (0 if layers["removed"] else 1)
              + (0 if consistent else 1))
    return {"attempted": attempted, "failed": failed, "metrics": out}


# -- the service --------------------------------------------------------------


def http_json(url: str, body: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST" if data is not None else "GET")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def http_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode()


def scrape(text: str, name: str) -> float:
    """Sum of every sample of metric ``name`` in a Prometheus exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in (" ", "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


class Service:
    """One ``repro serve`` plus one dial-in ``repro worker``, each in its
    own session, with fresh state and cache directories."""

    def __init__(self, children: Children, root: Path, trace: bool) -> None:
        self.children = children
        root.mkdir(parents=True)
        self.serve = children.spawn(
            [sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0",
             "--listen", "127.0.0.1:0", "--state-dir", str(root / "state"),
             "--cache-dir", str(root / "cache")],
            cwd=str(root), env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.serve_lines = LineReader(self.serve)
        banner = self.serve_lines.next(CHILD_TIMEOUT)
        if not banner or "listening on http://" not in banner:
            raise BenchError(f"repro serve did not start: {banner!r}")
        self.url = banner.split("listening on ", 1)[1].split()[0]
        listen = banner.split("listen=", 1)[1].split(",", 1)[0]
        self.worker_log = root / "worker.log"
        with open(self.worker_log, "w") as stderr:
            self.worker = children.spawn(
                [sys.executable, "-m", "repro", "worker", "--connect", listen,
                 "--no-cache"],
                cwd=str(root),
                env=child_env(**({"REPRO_LOG": "debug"} if trace else {})),
                stdout=subprocess.DEVNULL, stderr=stderr,
            )

    def submit_and_wait(self, spec: Dict[str, object]) -> Dict[str, object]:
        job = http_json(f"{self.url}/api/jobs", {"kind": "sweep", "spec": spec})
        deadline = time.monotonic() + CHILD_TIMEOUT
        while time.monotonic() < deadline:
            row = http_json(f"{self.url}/api/jobs/{job['id']}")
            if row["state"] in ("done", "failed", "cancelled"):
                return row
            time.sleep(0.02)
        raise BenchError(f"warm-up job {job['id']} did not finish")

    def worker_cells(self) -> List[float]:
        """Seconds of every ``worker.cell`` span the worker logged."""
        spans = []
        for line in self.worker_log.read_text().splitlines():
            if line.startswith("{"):
                record = json.loads(line)
                if record.get("event") == "worker.cell":
                    spans.append(float(record["seconds"]))
        return spans

    def close(self) -> Optional[float]:
        """Stop both daemons.  Returns the worker's peak RSS in MB, taken
        over the worker and every cell child it forked and reaped."""
        worker_mb = self.children.stop(self.worker)
        self.children.stop(self.serve)
        return worker_mb


def spec_for(seed: int) -> Dict[str, object]:
    return {"workloads": list(SERVICE_APPS), "variants": list(VARIANTS),
            "records": SERVICE_RECORDS, "seed": seed}


def cli_job(url: str, *args: str, check: bool = True) -> Tuple[float, int, str]:
    """Run one ``repro job`` client process; return (seconds, exit code,
    stdout).  A non-zero exit raises unless ``check`` is off."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "job", "--server", url, *args],
        cwd=str(REPO), env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT, start_new_session=True,
    )
    elapsed = time.monotonic() - started
    if check and proc.returncode != 0:
        raise BenchError(f"repro job {args[0]} failed: {proc.stderr.strip()}")
    return elapsed, proc.returncode, proc.stdout


def service_workload(children: Children, tmp: Path, workload: str, seed: int,
                     seconds: float, trace: bool) -> Dict[str, object]:
    cached = workload == "service-cached"
    # Every process of the service (serve, worker, cell children, clients)
    # inherits this one CPU, on which the yardstick below is timed too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warm_spec = spec_for(SIM_SEED)
    ready: List[float] = []
    service: Optional[Service] = None
    try:
        for k in range(SETUPS):
            if service is not None:
                service.close()
            started = time.monotonic()
            service = Service(children, tmp / f"service-{k}", trace)
            warm = service.submit_and_wait(warm_spec)
            ready.append(time.monotonic() - started)
            if warm["state"] != "done":
                raise BenchError(f"warm-up job failed: {warm.get('error')}")
        warm_results = http_json(f"{service.url}/api/jobs/{warm['id']}/result")["results"]
        warm_bytes = json.dumps(warm_results, sort_keys=True)

        jobs: List[Dict[str, object]] = []
        began = time.monotonic()
        i = 0
        while time.monotonic() - began < seconds:
            i += 1
            job_seed = SIM_SEED if cached else seed + i
            if not cached and job_seed == SIM_SEED:
                continue  # would hit the warm-up's cache entries
            jobs.append(run_job(service, tmp, job_seed, len(jobs)))
            check_job(service, jobs[-1], cached, warm_bytes)
            jobs[-1]["yardstick_s"] = timed_spawn()

        done = [j for j in jobs if j["done"]]
        if not done:
            raise BenchError(f"none of {len(jobs)} service jobs finished")
        serve_mb = vm_hwm_mb(service.serve.pid)
        extra = service_layer_metrics(service, jobs, done, warm) if trace else None
        worker_mb = service.close()
        service = None
        if worker_mb is None:
            raise BenchError("the worker exited before the run ended")
        peak_rss = serve_mb + worker_mb
    finally:
        if service is not None:
            service.close()

    # In-process reference: the warm-up cells (call counts, paper gap,
    # digests against the service's payload) and, on cold jobs, one
    # seed-chosen cell of a seed-chosen job.
    cells = service_cells(SIM_SEED)
    warm_cells = len(cells)
    expected = [digest(r) for r in warm_results]
    if not cached:
        job = done[seed % len(done)]
        k = (seed // len(done)) % len(cells)
        cells.append(service_cells(job["seed"])[k])
        expected.append(job["digests"][k])
    plan = {"cells": cells, "count": list(range(warm_cells)),
            "trace": seconds / 3 if trace else 0}
    _, report = run_simcell(children, plan, seed)
    reference_ok = [s["digest"] for s in report["setup"]] == expected

    attempted = len(jobs) + 1
    failed = sum(1 for j in jobs if not j["ok"]) + (0 if reference_ok else 1)
    log(f"{workload}: {len(jobs)} jobs; reference cells "
        f"{'match' if reference_ok else 'DIFFER'}")
    if trace:
        layered = layer_metrics(cells, report, warm_cells)
        layered["metrics"].update(extra)
        attempted += layered["attempted"]
        failed += layered["failed"]
        return {"attempted": attempted, "failed": failed,
                "metrics": layered["metrics"]}

    setup = report["setup"][:warm_cells]
    records = sum(j["records"] for j in done)
    # Host seconds of each job, scaled to the reference host by the
    # yardstick timed on the same CPU after the jobs around it.
    factors = host_factors([j["yardstick_s"] for j in jobs], SPAWN_REFERENCE_S,
                           SERVICE_WINDOW)
    scaled = [j["op_s"] * f for j, f in zip(jobs, factors) if j["done"]]
    raw = [j["op_s"] for j in done]
    p50, tail, tail_pct, n = op_percentiles({"job": scaled})
    log(f"{workload}: jobs took {sum(raw) / sum(scaled):.3f}x their time on "
        f"the reference host; unscaled {records / sum(raw):.1f} records/s, "
        f"p50 {median(raw):.4f} s")
    log(f"{workload}: tail at p{tail_pct:g} of {n} finished jobs")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(median(ready), "s"),
            "records_per_s": metric(records / sum(scaled), "records/s"),
            "op_p50_s": metric(p50, "s"),
            "op_tail_s": metric(tail, "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "ops_ok_frac": metric((attempted - failed) / attempted, "ratio"),
            "py_calls_per_record": metric(
                sum(report["py_calls"].values()) / sum(s["records"] for s in setup),
                "calls/record"),
            "speedup_err_log": metric(
                speedup_err_log(cells[:warm_cells], setup, report["paper_speedup"]),
                "log-ratio"),
        },
    }


def run_job(service: Service, tmp: Path, job_seed: int, index: int) -> Dict[str, object]:
    """One closed-loop op: submit -> wait -> result, each a CLI process."""
    out = tmp / f"result-{index}.json"
    spec = spec_for(job_seed)
    submit_s, _, text = cli_job(
        service.url, "submit", "--workloads", ",".join(spec["workloads"]),
        "--variants", ",".join(spec["variants"]),
        "--records", str(spec["records"]), "--seed", str(job_seed))
    job_id = int(text.split()[1])
    # A job that fails or times out is a failed op, not a failed run:
    # ``wait`` exits 1.
    wait_s, code, text = cli_job(service.url, "wait", str(job_id), "--timeout",
                                 str(JOB_TIMEOUT), check=False)
    job = {"id": job_id, "seed": job_seed, "submit_s": submit_s,
           "wait_s": wait_s, "waited_at": time.time(), "path": out,
           "done": code == 0 and text.split()[-1:] == ["done"]}
    if job["done"]:
        job["result_s"], _, _ = cli_job(service.url, "result", str(job_id),
                                        "-o", str(out))
        job["op_s"] = submit_s + wait_s + job["result_s"]
    return job


def check_job(service: Service, job: Dict[str, object], cached: bool,
              warm_bytes: str) -> None:
    """Outside the timed interval: fetch the job's row and event log and
    check its payload.  Adds ``ok`` and the cell sources to ``job`` and,
    if it finished ``done``, ``records``, ``digests`` and the service-side
    timings."""
    row = http_json(f"{service.url}/api/jobs/{job['id']}")
    events = http_json(f"{service.url}/api/jobs/{job['id']}/events")["events"]
    sources = [e["source"] for e in events if e.get("event") == "cell"]
    job["done"] = job["done"] and row["state"] == "done"
    job.update(ok=False, cells=len(sources), cache_cells=sources.count("cache"),
               run_cells=sources.count("run"))
    if not job["done"]:
        return
    payload = json.loads(Path(job["path"]).read_text())
    results = payload["results"]
    want = "cache" if cached else "run"
    ok = (len(results) == len(SERVICE_APPS) * len(VARIANTS)
          and len(sources) == len(results)
          and all(s == want for s in sources))
    if cached:
        ok = ok and json.dumps(results, sort_keys=True) == warm_bytes
    job.update(
        ok=ok,
        records=sum(r["threads"] for r in results) * payload["records_per_thread"],
        digests=[digest(r) for r in results],
        queue_wait_s=row["started_at"] - row["submitted_at"],
        run_s=row["finished_at"] - row["started_at"],
        wait_lag_s=job["waited_at"] - row["finished_at"],
    )


def service_layer_metrics(service: Service, jobs: List[Dict[str, object]],
                          done: List[Dict[str, object]],
                          warm: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Service-side per-layer metrics, read after the timed jobs; the
    timings come from the jobs that finished ``done``."""
    # Modules a client verb imports: deterministic, so one process says it.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "job", "--server",
         service.url, "show", str(jobs[-1]["id"])],
        cwd=str(REPO), env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT, start_new_session=True,
    )
    modules = sum(1 for line in proc.stderr.splitlines()
                  if line.startswith("import time:") and "|" in line
                  and "imported package" not in line)
    exposition = http_text(f"{service.url}/metrics")
    spans = service.worker_cells()
    warm_events = http_json(f"{service.url}/api/jobs/{warm['id']}/events")["events"]
    run_cells = sum(j["run_cells"] for j in jobs) + sum(
        1 for e in warm_events if e.get("event") == "cell" and e["source"] == "run")
    n = len(done)
    run_s = sum(j["run_s"] for j in done) / n
    # Worker spans of the timed jobs only: the warm-up's come first.
    warm_runs = len(spans) - sum(j["run_cells"] for j in jobs)
    cell_s = sum(spans[max(warm_runs, 0):]) / n
    values = {
        "client.submit_s": median([j["submit_s"] for j in done]),
        "client.wait_s": median([j["wait_s"] for j in done]),
        "client.result_s": median([j["result_s"] for j in done]),
        "client.modules_imported": modules,
        "client.wait_lag_s": median([j["wait_lag_s"] for j in done]),
        "service.queue_wait_s": median([j["queue_wait_s"] for j in done]),
        "cache.hit_ratio": sum(j["cache_cells"] for j in jobs)
        / max(sum(j["cells"] for j in jobs), 1),
        "service.run_s": run_s,
        "worker.cell_s": cell_s,
        "backend.dispatch_s": run_s - cell_s,
        "backend.retries": len(spans) - run_cells,
        "worker.quarantines": scrape(exposition, "repro_worker_quarantine_total"),
    }
    units = dict(SERVICE_LAYER_METRICS)
    return {name: metric(value, units[name]) for name, value in values.items()}


# -- entry point --------------------------------------------------------------

WORKLOADS = ("sim", "service-cached", "service-cold")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no simulator sources under {SRC}; run from a full checkout")
        return 2

    WORK.mkdir(exist_ok=True)
    alive = survivors(PIDFILE)
    if alive:
        log(f"processes of a previous run are still alive: {alive}")
        return 3
    children = Children(PIDFILE)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        if args.workload == "sim":
            outcome = sim_workload(children, args.seed, args.seconds,
                                   bool(args.trace))
        else:
            outcome = service_workload(children, tmp, args.workload, args.seed,
                                       args.seconds, bool(args.trace))
        if args.trace:
            for name, unit in SERVICE_LAYER_METRICS:
                outcome["metrics"].setdefault(name, metric(0.0, unit))
    except (BenchError, OSError, subprocess.SubprocessError, TimeoutError) as exc:
        log(f"error: {exc}")
        return 1
    finally:
        children.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
