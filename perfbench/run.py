"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload codesign --seed 1 --seconds 18 --trace 0

Workloads: ``codesign``, ``sweep_cold``, ``sweep_warm``, ``service_jobs``
(see ``workloads.py`` and ``BENCHMARK.json``).  The run prints a report
with every metric by name and unit, plus a digest of the workload's
simulated outputs, and then, as its last line, one JSON object::

    {"correct": true, "attempted": 40, "failed": 0,
     "metrics": {"setup_s": {"value": 0.51, "unit": "s"}, ...}}

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` runs every request untraced and traced and reports the
``per_layer`` metrics, writing the spans to ``.perfbench/traces/``.
A per-layer metric the workload does not measure (``layer_map.json``
lists where each one is measured) is printed as 0.

Exit status: 0 when every output check passed; 1 when one failed (the
JSON line then says ``"correct": false``); 2 when there is no program
to benchmark next to this directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters started per run for ``setup_s`` and the import probes.
SETUP_REPS = 7
IMPORT_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["codesign", "sweep_cold", "sweep_warm", "service_jobs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def select_metrics(declared: list, measured: dict, measured_on: dict,
                   workload: str) -> dict:
    """Value and unit of every declared metric; 0 where it is not measured."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name in measured:
            value = float(measured[name])
        elif workload not in measured_on.get(name, ()):
            value = 0.0
        else:
            raise KeyError(f"{workload} did not measure {name}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def report_lines(workload: str, seed: int, seconds: float, trace: int,
                 metrics: dict, outcome, aliases: dict) -> list[str]:
    """The human report, then the JSON result as the last line."""
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}"]
    for name, metric in metrics.items():
        alias = aliases.get(name, {}).get("names", {}).get(workload)
        label = f"{name} ({alias})" if alias else name
        lines.append(f"  {label:<44} {metric['value']:.6g} {metric['unit']}")
    for name, value, unit in outcome.report:
        lines.append(f"  {name:<44} {value:.6g} {unit}")
    lines.append(f"  attempted {outcome.attempted}  failed {outcome.failed}")
    lines.append(f"digest {workload} {outcome.digest} ({outcome.digest_of})")
    lines.append(json.dumps({"correct": True, "attempted": outcome.attempted,
                             "failed": outcome.failed, "metrics": metrics}))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    work = ROOT / ".perfbench"
    scratch = work / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch / "tmp")
    logging.getLogger("repro").setLevel(logging.ERROR)

    import checks
    import probe
    import workloads

    trace = bool(args.trace)
    try:
        try:
            outcome = workloads.run(args.workload, args.seed, args.seconds, trace,
                                    scratch)
        except checks.CheckFailed as exc:
            print(f"CHECK FAILED: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        measured = dict(outcome.metrics)
        if trace:
            measured["cli.import_s"] = probe.import_seconds("repro.cli", IMPORT_REPS)
            measured["core.import_s"] = probe.import_seconds("repro.core", IMPORT_REPS)
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            outcome.tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
            declared = spec["per_layer"]
            measured_on = {name: entry["measured_on"]
                           for name, entry in layer_map["per_layer"].items()}
        else:
            # After the workload has read its peak RSS: the probes are
            # children too, and must not count in it.
            measured["setup_s"], phases = probe.setup_seconds(args.workload, scratch,
                                                              SETUP_REPS)
            outcome.report += [(f"setup_{name}", seconds, "s")
                               for name, seconds in phases.items()]
            measured["model_latency_err_pct"] = workloads.model_latency_err_pct()
            declared = spec["end_to_end"]
            measured_on = {}
        metrics = select_metrics(declared, measured, measured_on, args.workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in report_lines(args.workload, args.seed, args.seconds, args.trace,
                             metrics, outcome, layer_map["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
