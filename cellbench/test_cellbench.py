"""Tests of the benchmark's own helpers (run with the repository's suite:
``PYTHONPATH=src python -m pytest cellbench -q``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cellbench.common import (
    Children, LineReader, digest, host_factors, op_percentiles, percentile, tail_percentile,
    valid_metric_name, valid_unit,
)

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, q", [
    (1, 50.0), (19, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q
    if q > 50.0:
        assert n * (100 - q) / 100 >= 10 - 1e-9


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_op_percentiles_ignore_the_gap_between_kinds():
    fast = [1.0] * 20
    slow = [3.0] * 19 + [30.0]  # one straggler
    p50, tail, q, n = op_percentiles({"fast": fast, "slow": slow})
    assert n == 40 and q == 75.0
    assert p50 == pytest.approx(3.0 ** 0.5)
    assert tail == pytest.approx(p50)  # the straggler is beyond p75


def test_host_factors_cancel_a_slow_phase_but_not_a_slow_program():
    # Eight ops of 1 s at reference speed, then a phase where the host
    # runs everything, the yardstick included, twice as slowly.
    yardstick = [0.03] * 8 + [0.06] * 8
    ops = [1.0] * 8 + [2.0] * 8
    factors = host_factors(yardstick, 0.03, window=4)
    scaled = [op * f for op, f in zip(ops, factors)]
    assert scaled[:6] == pytest.approx([1.0] * 6)
    assert scaled[-6:] == pytest.approx([1.0] * 6)
    # A program twice as slow on an unchanged host still reads twice as slow.
    slow = [op * f for op, f in zip([2.0] * 16, host_factors([0.03] * 16, 0.03, 4))]
    assert slow == pytest.approx([2.0] * 16)
    # The window is clipped at the ends and to the run's length.
    assert host_factors([0.02, 0.04], 0.03, window=8) == pytest.approx([1.0, 1.0])


def test_yardstick_kernel_is_deterministic():
    from cellbench.calibrate import kernel
    assert kernel() == kernel()


def test_digest_is_canonical_and_survives_json():
    a = {"stats": {"x": 0.1 + 0.2, "n": 3}, "workload": "bc"}
    b = {"workload": "bc", "stats": {"n": 3, "x": 0.30000000000000004}}
    assert digest(a) == digest(b)
    assert digest(json.loads(json.dumps(a))) == digest(a)
    assert digest({**a, "workload": "ycsb"}) != digest(a)


@pytest.mark.parametrize("name, ok", [
    ("setup_s", True), ("sim.engine.self_s", True), ("9lives", True),
    ("a" * 64, True), ("a" * 65, False), ("_hidden", False), (".x", False),
    ("has space", False), ("slash/no", False), ("", False),
])
def test_metric_name_charset(name, ok):
    assert valid_metric_name(name) is ok


def test_benchmark_json_names_and_units_are_valid():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)
    assert all(valid_unit(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_stop_reports_the_peak_of_reaped_descendants(tmp_path):
    # The parent stays small; the child it forks and reaps touches 64 MB.
    script = (
        "import os, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    block = b'x' * (64 << 20)\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "print('reaped', flush=True)\n"
        "time.sleep(60)\n"
    )
    children = Children(tmp_path / "live.pids")
    proc = children.spawn([sys.executable, "-c", script],
                          stdout=subprocess.PIPE, text=True)
    try:
        assert LineReader(proc).next(30.0) == "reaped\n"
        assert (tmp_path / "live.pids").exists()
        assert children.stop(proc) >= 64
    finally:
        children.stop_all()
    assert proc.returncode is not None
    assert not (tmp_path / "live.pids").exists()


def test_layer_tracer_is_transparent_and_removable():
    from cellbench.layers import LayerTracer
    from repro.experiments import runner
    from repro.sim.system import System

    original = System.__dict__["run"]
    kwargs = {"records_per_thread": 60, "seed": 3}
    plain = digest(runner.run_workload("bc", "SkyByte-Full", **kwargs).to_dict())
    tracer = LayerTracer()
    tracer.install()
    try:
        assert System.__dict__["run"] is not original
        traced = runner.run_workload("bc", "SkyByte-Full", **kwargs)
    finally:
        tracer.remove()
    assert System.__dict__["run"] is original
    assert digest(traced.to_dict()) == plain
    assert tracer.calls["sim.system"] > 0 and tracer.calls["ssd.gc"] >= 0
    assert set(tracer.calls) == set(tracer.self_s)
