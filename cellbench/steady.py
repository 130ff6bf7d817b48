"""Steadiness check: run the benchmark twice over a set of seeds and
print, per metric, each set's median and quartiles.

    python3 cellbench/steady.py --workload sim

Each of the two sets runs seeds 1..10 (the second set the same seeds
again), each run measuring ``run_seconds`` from ``BENCHMARK.json``
unless ``--seconds`` says otherwise.
For every metric it prints each set's median, first and third quartile
(``statistics.quantiles(values, n=4)``), the spread -- quartile distance
as a share of the median -- and how far the second set's median moved
from the first's, next to the bound in ``BENCHMARK.json``.  A run that
fails or reports ``correct: false`` stops the check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(REPO / "cellbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(REPO), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets: List[Dict[str, List[float]]] = []
    for s in range(SETS):
        values: Dict[str, List[float]] = {}
        for k in range(RUNS):
            seed = FIRST_SEED + k
            for name, value in run_once(args.workload, seed, args.seconds, 0).items():
                values.setdefault(name, []).append(value)
            print(f"set {s + 1} seed {seed} done", file=sys.stderr, flush=True)
        sets.append(values)

    print(f"{args.workload}: {SETS} sets x {RUNS} runs, "
          f"{args.seconds} s each")
    print(f"{'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'drift':>9}{'bound':>7}")
    for name in sets[0]:
        first = None
        for s, values in enumerate(sets):
            stats = summary(values[name])
            first = first if first is not None else stats["median"]
            drift = (stats["median"] - first) / first if first else 0.0
            bound = bounds.get(name, {}).get("bound", float("nan"))
            print(f"{name:<22}{s + 1:>4}{stats['median']:>14.6g}{stats['q1']:>14.6g}"
                  f"{stats['q3']:>14.6g}{stats['spread']:>9.4f}{drift:>+9.4f}"
                  f"{bound:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
