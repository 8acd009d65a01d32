"""Fresh-interpreter probes for set-up and import time.

``run.py`` starts this file as a new interpreter and times it from the
outside::

    python3 perfbench/probe.py setup <workload> <scratch-dir>
    python3 perfbench/probe.py import <module>

``setup`` imports what the workload needs, builds its objects (and, for
``service_jobs``, starts the coordinator and waits for the shard worker
to register), prints ``ready`` with the in-child seconds of each phase
and tears down; the parent's clock stops when ``ready`` arrives.
``import`` prints the seconds one ``import`` took inside the child.

``run.py`` runs the probes after the timed requests and after reading
the peak RSS, so neither the probes' time nor their memory counts in
the workload's figures.
"""

from __future__ import annotations

import importlib
import json
import logging
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup_seconds(workload: str, scratch: Path, reps: int) -> tuple[float, dict]:
    """Median time from interpreter start to the first request it can issue.

    Also returns the median in-child seconds of each set-up phase.
    """
    times, phases = [], {}
    for rep in range(reps):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "setup", workload,
             str(scratch / f"setup-{rep}")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        ready, _, phase_json = line.partition(" ")
        if proc.wait(timeout=120) != 0 or ready != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
        for name, seconds in json.loads(phase_json).items():
            phases.setdefault(name, []).append(seconds)
    return statistics.median(times), {
        name: statistics.median(values) for name, values in phases.items()}


def import_seconds(module: str, reps: int) -> float:
    """Median in-child time of ``import <module>`` in a fresh interpreter."""
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "import", module],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def _setup(workload: str, scratch: Path) -> None:
    start = time.perf_counter()
    logging.getLogger("repro").setLevel(logging.ERROR)
    import workloads

    harness = None
    if workload == "codesign":
        from repro import CoDesignFlow, CoDesignInputs, LatencyTarget
        from repro.hw import get_device
        from repro.search import SearchSession

        imported = time.perf_counter()
        device, strategy, fps = workloads.CODESIGN_SLOTS[0]
        flow = CoDesignFlow(CoDesignInputs(device=get_device(device),
                                           latency_targets=(LatencyTarget(fps=fps),)),
                            search_strategy=strategy, rng=0)
        flow.auto_dnn.session = SearchSession(name="request-0")
    elif workload in ("sweep_cold", "sweep_warm"):
        from repro.sweep import SweepRunner

        imported = time.perf_counter()
        SweepRunner(workloads.sweep_tasks(0), workers=workloads.SWEEP_WORKERS,
                    cache_dir=str(scratch))
    elif workload == "service_jobs":
        import repro.service  # noqa: F401

        imported = time.perf_counter()
        harness = workloads.ServiceHarness(scratch)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    phases = {"import_s": imported - start, "build_s": time.perf_counter() - imported}
    if harness is not None:
        phases["worker_register_s"] = harness.register_s
    print("ready " + json.dumps(phases), flush=True)
    if harness is not None:
        harness.close()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    if argv[1] == "import":
        start = time.perf_counter()
        importlib.import_module(argv[2])
        print(time.perf_counter() - start)
    else:
        _setup(argv[2], Path(argv[3]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
