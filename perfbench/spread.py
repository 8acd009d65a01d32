"""Spread report: is the benchmark steady enough for its bounds?

Runs ``run.py`` ``--runs`` times per workload, each time with another
seed, and prints per end-to-end metric and workload the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  A spread at or above a third of the
bound is flagged ``WIDE``.  It also names any workload dropped from the
benchmark for failing to settle (``dropped_workloads`` in
``layer_map.json``), with the reason.

From the repository root::

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads service_jobs

Every run lasts ``run_seconds`` of ``BENCHMARK.json``, as the bounds
assume.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: an output check failed")
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    dropped = json.loads((HERE / "layer_map.json").read_text()).get(
        "dropped_workloads", {})
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict = {}
    for workload in args.workloads.split(","):
        raw[workload] = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            result = run_once(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                raw[workload].setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)

    wide = 0
    print(f"\n{'workload':<14} {'metric':<24} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}")
    for workload, metrics in raw.items():
        for name, values in metrics.items():
            median, q1, q3, spread = summarize(values)
            flag = ""
            if spread >= bounds[name] / 3:
                flag = "  WIDE"
                wide += 1
            print(f"{workload:<14} {name:<24} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.4f} {bounds[name]:>6g}{flag}")
    print("\ndropped workloads: " + (", ".join(
        f"{name} ({reason})" for name, reason in dropped.items()) or "none"))
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
