"""The benchmark's own tests: tiny-size smokes and the output checks.

From the repository root::

    python3 -m pytest perfbench/selftest.py -q

Each workload runs once untraced and once traced at a tiny size; every
metric ``BENCHMARK.json`` declares must then be printed with its unit.
Corrupted journals and designs must trip the output checks.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]

logging.getLogger("repro").setLevel(logging.ERROR)


def tiny_tasks():
    from repro.sweep import build_grid

    return build_grid("fpga:pynq-z1,gpu:jetson-tx2", "scd,random", [30.0],
                      tolerance_ms=10.0, iterations=10, num_candidates=1,
                      top_bundles=2, seed=1)


def tiny_job(seed: int, index: int):
    from repro.sweep import SweepSpec

    return SweepSpec(devices=workloads.JOB_DEVICES[index % 3], strategies="scd",
                     fps=(30.0,), tolerance_ms=10.0, iterations=10,
                     num_candidates=1, top_bundles=2, seed=seed + index)


def run_tiny(name: str, trace: bool, scratch: Path):
    if name == "codesign":
        return workloads.run_codesign(1, 0.1, trace, scratch,
                                      slots=workloads.CODESIGN_SLOTS[:2])
    if name in ("sweep_cold", "sweep_warm"):
        return workloads.run_sweep(1, 0.1, trace, scratch, warm=name == "sweep_warm",
                                   tasks=tiny_tasks())
    return workloads.run_service(1, 0.1, trace, scratch, spec_for=tiny_job)


# ------------------------------------------------------------------ catalogue
def test_layer_map_matches_benchmark_json():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYER_MAP["per_layer"]) == per_layer
    assert set(LAYER_MAP["end_to_end"]) == set(END_TO_END)
    for name, entry in LAYER_MAP["per_layer"].items():
        assert set(entry["measured_on"]) <= set(WORKLOADS), name
        assert set(entry["on"]) <= set(entry["measured_on"]), name
        assert set(entry["moves"]) <= set(END_TO_END) | {"failed"}, name
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])


# -------------------------------------------------------------------- tracing
def test_self_time_subtracts_the_covered_part_of_children():
    tracer = Tracer()
    tracer.spans = [
        Span("bench.request", 0.0, 10.0, None, 0),
        Span("core.a", 1.0, 3.0, 0, 0),
        Span("core.b", 2.0, 5.0, 0, 0),  # overlaps core.a: covered is 1..5
        Span("sweep.c", 4.0, 4.5, 2, 0),
    ]
    self_times = tracer.self_times()
    assert self_times["bench"] == pytest.approx(6.0)
    assert self_times["core"] == pytest.approx(2.0 + 2.5)
    assert self_times["sweep"] == pytest.approx(0.5)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("core.x", 0):
        pass
    assert tracer.spans == []


# ------------------------------------------------------------------- smokes
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_prints_every_metric_with_its_unit(name, trace, tmp_path):
    outcome = run_tiny(name, trace, tmp_path)
    measured = dict(outcome.metrics)
    if trace:
        declared = SPEC["per_layer"]
        measured_on = {n: e["measured_on"] for n, e in LAYER_MAP["per_layer"].items()}
        measured.update({"cli.import_s": 0.3, "core.import_s": 0.3})
    else:
        declared = SPEC["end_to_end"]
        measured_on = {}
        measured.update({"setup_s": 0.4,
                         "model_latency_err_pct": workloads.model_latency_err_pct()})
    metrics = run.select_metrics(declared, measured, measured_on, name)
    lines = run.report_lines(name, 1, 0.1, int(trace), metrics, outcome,
                             LAYER_MAP["end_to_end"])
    for entry in declared:
        assert any(line.split()[0] == entry["name"] and line.endswith(f" {entry['unit']}")
                   for line in lines), entry["name"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert outcome.digest.startswith("sha256:")
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in END_TO_END)


def test_untraced_and_traced_digests_agree(tmp_path):
    plain = run_tiny("sweep_cold", False, tmp_path / "plain")
    traced = run_tiny("sweep_cold", True, tmp_path / "traced")
    assert plain.digest == traced.digest


def test_traced_outputs_that_differ_trip_the_check():
    def issue(index, trace, keep):
        return workloads.Request(0.1, attempted=1, failed=0, evaluations=1, targets=1,
                                 met=1, outputs=[f"traced={trace.enabled}"])

    with pytest.raises(checks.CheckFailed, match="traced run's outputs differ"):
        workloads.drive(issue, lambda index: index < 1, trace=True, keep=1)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codesign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------------------- output checks
def test_corrupted_journal_trips_the_check(tmp_path):
    from repro.sweep import SweepRunner

    result = SweepRunner(tiny_tasks(), workers=1, cache_dir=str(tmp_path)).run()
    journals = checks.journal_map(result.outcomes)
    checks.check_same_journals("same", journals, dict(journals))
    uid = sorted(journals)[0]
    corrupted = dict(journals)
    corrupted[uid] = corrupted[uid].replace('"latency_ms":', '"latency_ms":1', 1)
    assert corrupted[uid] != journals[uid]
    with pytest.raises(checks.CheckFailed, match="journals differ"):
        checks.check_same_journals("corrupted", journals, corrupted)
    missing = {k: v for k, v in journals.items() if k != uid}
    with pytest.raises(checks.CheckFailed, match="cell sets differ"):
        checks.check_same_journals("missing", journals, missing)


@pytest.fixture(scope="module")
def design():
    """A codesign request that returned a design: (flow, result, target)."""
    for index in range(len(workloads.CODESIGN_SLOTS)):
        flow, result, _ = workloads._codesign_request(
            index, 1, workloads.CODESIGN_SLOTS, workloads.QUIET)
        for target, candidate in result.best_per_target.items():
            if candidate is not None:
                checks.check_designs(flow, result)
                return flow, result, target
    pytest.fail("no codesign request returned a design")


def _with_best(result, target, candidate):
    best = dict(result.best_per_target)
    best[target] = candidate
    return SimpleNamespace(best_per_target=best)


def test_design_over_budget_trips_the_check(design):
    flow, result, target = design
    candidate = result.best_per_target[target]
    bloated = dataclasses.replace(
        candidate, estimate=dataclasses.replace(
            candidate.estimate, resources=candidate.estimate.resources * 10.0))
    with pytest.raises(checks.CheckFailed, match="resource budget"):
        checks.check_designs(flow, _with_best(result, target, bloated))


def test_design_off_target_trips_the_check(design):
    flow, result, target = design
    candidate = result.best_per_target[target]
    late = dataclasses.replace(candidate, hls=None, estimate=dataclasses.replace(
        candidate.estimate, latency_ms=target.latency_ms + 2 * target.tolerance_ms))
    with pytest.raises(checks.CheckFailed, match="misses its target"):
        checks.check_designs(flow, _with_best(result, target, late))


def test_design_with_a_stale_estimate_trips_the_check(design):
    flow, result, target = design
    candidate = result.best_per_target[target]
    stale = dataclasses.replace(candidate, estimate=dataclasses.replace(
        candidate.estimate, compute_ms=candidate.estimate.compute_ms + 1.0))
    with pytest.raises(checks.CheckFailed, match="differs from AutoHLS.estimate"):
        checks.check_designs(flow, _with_best(result, target, stale))
