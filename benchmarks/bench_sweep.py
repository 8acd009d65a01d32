"""Sweep-engine benchmarks: process fan-out, disk-cache warm-up and resume.

Measures (1) the wall-time effect of fanning the device x strategy grid out
across worker processes versus running it serially, (2) the speedup a
warm :class:`~repro.sweep.disk_cache.DiskEvaluationCache` buys a repeated
sweep — both in wall time and in avoided estimator invocations (the
deterministic, machine-independent measure) — and (3) the cost of resuming
an already-complete sweep from its checkpoint (the floor every partial
resume builds on: reused cells are replayed from disk, not re-searched).

The perf-trajectory test at the bottom additionally writes
``BENCH_sweep.json`` (to ``$REPRO_BENCH_DIR`` or the working directory):
candidates/sec, cache hit rates and prep share, so CI can archive one
comparable perf artifact per run.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

import repro.telemetry as telemetry
from repro.sweep import CHECKPOINT_FILENAME, SweepRunner, build_grid

#: Tiny but non-trivial grid: 2 devices x 2 strategies, one target each.
GRID = dict(
    devices="pynq-z1,ultra96",
    strategies="scd,random",
    fps_targets=[40.0],
)
BUDGET = dict(tolerance_ms=10.0, iterations=40, num_candidates=2, top_bundles=3, seed=1)


def _journals(result):
    return [outcome.journal for outcome in result.outcomes]


def test_serial_vs_process_fanout(benchmark):
    """Same grid, serial in-process vs a 4-process pool: identical journals."""
    tasks = build_grid(**GRID, **BUDGET)

    start = time.perf_counter()
    serial = SweepRunner(tasks, workers=1).run()
    serial_time = time.perf_counter() - start

    pooled = benchmark.pedantic(
        lambda: SweepRunner(tasks, workers=4).run(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    pooled_time = benchmark.stats.stats.mean

    speedup = serial_time / pooled_time if pooled_time > 0 else float("inf")
    print(f"\n[sweep fan-out] {len(tasks)} tasks: serial {serial_time * 1e3:.0f} ms, "
          f"4 processes {pooled_time * 1e3:.0f} ms ({speedup:.2f}x)")
    # The fan-out must be a pure execution-mode change.
    assert _journals(serial) == _journals(pooled)
    assert serial.estimator_calls == pooled.estimator_calls


def test_shared_vs_per_cell_preparation(benchmark):
    """Hoisting the per-device fit + bundle selection out of the cells.

    A 1-device x 2-strategy x 2-target grid repeats the identical model fit
    and bundle selection four times without sharing; the shared-preparation
    schedule runs them once and ships the artifact, with byte-identical
    journals.
    """
    tasks = build_grid("pynq-z1", "scd,random", [30.0, 40.0], **BUDGET)

    start = time.perf_counter()
    per_cell = SweepRunner(tasks, workers=1, share_preparation=False).run()
    per_cell_time = time.perf_counter() - start

    shared = benchmark.pedantic(
        lambda: SweepRunner(tasks, workers=1, share_preparation=True).run(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    shared_time = benchmark.stats.stats.mean

    speedup = per_cell_time / shared_time if shared_time > 0 else float("inf")
    print(f"\n[sweep shared prep] {len(tasks)} cells: per-cell {per_cell_time * 1e3:.0f} ms, "
          f"shared {shared_time * 1e3:.0f} ms ({speedup:.2f}x, "
          f"{len(shared.preparations)} preparation(s))")
    # Sharing the preparation must be a pure execution-mode change.
    assert _journals(per_cell) == _journals(shared)
    assert len(shared.preparations) == 1
    assert all(outcome.used_shared_prep for outcome in shared.outcomes)
    assert not any(outcome.used_shared_prep for outcome in per_cell.outcomes)


def test_work_stealing_on_skewed_costs(benchmark):
    """The 2-worker pool vs the in-process serial run on a skewed grid.

    The heavy high-iteration cells are interleaved with cheap ones; the
    pool dispatches longest-expected-first, so the cheap cells fill the
    tail.  Journals stay identical, and the pool must not be slower than
    running the same cells one after another in-process (gate: serial /
    pool wall >= 1.0, medians of three rounds after one warm-up each).
    """
    heavy = build_grid("pynq-z1,ultra96", "scd,random", [30.0],
                       tolerance_ms=10.0, iterations=160, num_candidates=2,
                       top_bundles=3, seed=1)
    light = build_grid("pynq-z1,ultra96", "scd,random", [40.0],
                       tolerance_ms=10.0, iterations=10, num_candidates=1,
                       top_bundles=2, seed=1)
    tasks = [cell for pair in zip(light, heavy) for cell in pair]

    serial = SweepRunner(tasks, workers=1).run()  # warm-up
    serial_times = []
    for _ in range(3):
        start = time.perf_counter()
        serial = SweepRunner(tasks, workers=1).run()
        serial_times.append(time.perf_counter() - start)
    serial_time = statistics.median(serial_times)

    pooled = benchmark.pedantic(
        lambda: SweepRunner(tasks, workers=2).run(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    pool_time = benchmark.stats.stats.median

    ratio = serial_time / pool_time if pool_time > 0 else float("inf")
    print(f"\n[sweep pool] {len(tasks)} skewed cells: serial "
          f"{serial_time * 1e3:.0f} ms, 2-worker pool {pool_time * 1e3:.0f} ms "
          f"(serial / pool = {ratio:.2f}x)")
    assert _journals(serial) == _journals(pooled)
    assert ratio >= 1.0, "the worker pool must not be slower than the serial run"


def test_checkpoint_resume_reuses_completed_cells(benchmark, tmp_path):
    """Resuming a finished sweep replays every cell from the checkpoint.

    This is the best case of ``--resume`` (and the per-cell floor of any
    partial resume): no preparation, no search, no estimator calls — the
    journals come back byte-identical from the checkpoint records.
    """
    tasks = build_grid(**GRID, **BUDGET)
    cache_dir = tmp_path / "sweep-cache"

    start = time.perf_counter()
    full = SweepRunner(tasks, workers=1, cache_dir=cache_dir).run()
    full_time = time.perf_counter() - start

    resumed = benchmark.pedantic(
        lambda: SweepRunner(tasks, workers=1, cache_dir=cache_dir,
                            resume_from=cache_dir / CHECKPOINT_FILENAME).run(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    resume_time = benchmark.stats.stats.mean

    speedup = full_time / resume_time if resume_time > 0 else float("inf")
    print(f"\n[sweep resume] {len(tasks)} cells: full {full_time * 1e3:.0f} ms, "
          f"resume {resume_time * 1e3:.0f} ms ({speedup:.2f}x, "
          f"{resumed.reused} reused)")
    assert resumed.reused == len(tasks)
    assert not resumed.preparations, "a full resume skips preparation entirely"
    assert _journals(resumed) == _journals(full)


def test_cold_vs_warm_disk_cache(benchmark, tmp_path):
    """A warm re-run serves every estimate from disk: zero estimator calls."""
    tasks = build_grid(**GRID, **BUDGET)
    cache_dir = tmp_path / "sweep-cache"

    start = time.perf_counter()
    cold = SweepRunner(tasks, workers=1, cache_dir=cache_dir).run()
    cold_time = time.perf_counter() - start

    warm = benchmark.pedantic(
        lambda: SweepRunner(tasks, workers=1, cache_dir=cache_dir).run(),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    warm_time = benchmark.stats.stats.mean

    speedup = cold_time / warm_time if warm_time > 0 else float("inf")
    hit_rate = sum(o.disk_hits for o in warm.outcomes) / max(
        sum(o.disk_hits + o.disk_misses for o in warm.outcomes), 1
    )
    print(f"\n[sweep disk cache] estimator calls {cold.estimator_calls} -> "
          f"{warm.estimator_calls}, wall {cold_time * 1e3:.0f} ms -> "
          f"{warm_time * 1e3:.0f} ms ({speedup:.2f}x), "
          f"warm hit rate {hit_rate:.1%}")
    # The warm run must be measurably cheaper in real estimator work.
    assert cold.estimator_calls > 0
    assert warm.estimator_calls == 0
    assert hit_rate == 1.0
    assert _journals(cold) == _journals(warm)


def test_perf_trajectory_bench_json(benchmark, tmp_path):
    """Cold + warm telemetry-instrumented runs, archived as BENCH_sweep.json.

    The headline figure is candidates/sec (estimator invocations over wall
    time — the quantity the evaluation cache and shared preparation exist to
    improve), alongside memory/disk cache hit rates and the share of wall
    time spent in preparation.  The JSON lands in ``$REPRO_BENCH_DIR`` (or
    the working directory) so successive CI runs build a perf trajectory.
    """
    from repro.telemetry import write_bench_json

    tasks = build_grid(**GRID, **BUDGET)
    cache_dir = tmp_path / "sweep-cache"
    telemetry.enable(fresh=True)
    try:
        start = time.perf_counter()
        cold = SweepRunner(tasks, workers=1, cache_dir=cache_dir).run()
        cold_time = time.perf_counter() - start

        warm = benchmark.pedantic(
            lambda: SweepRunner(tasks, workers=1, cache_dir=cache_dir).run(),
            rounds=3, iterations=1, warmup_rounds=1,
        )
        warm_time = benchmark.stats.stats.mean
        # One extra instrumented warm run on a fresh registry: the benchmark
        # rounds above accumulate several runs' worth of counters, but the
        # rates below need exactly one run's totals.
        telemetry.enable(fresh=True)
        warm = SweepRunner(tasks, workers=1, cache_dir=cache_dir).run()
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()

    counters = snap.counters
    mem_hits = counters.get("search.cache.hits", 0)
    mem_misses = counters.get("search.cache.misses", 0)
    disk_hits = counters.get("sweep.disk_cache.hits", 0)
    disk_misses = counters.get("sweep.disk_cache.misses", 0)
    candidates = mem_hits + mem_misses
    metrics = {
        "cells": len(tasks),
        "cold_wall_s": round(cold_time, 4),
        "warm_wall_s": round(warm_time, 4),
        "cold_estimator_calls": cold.estimator_calls,
        "warm_estimator_calls": warm.estimator_calls,
        "candidates_per_s": round(candidates / warm_time, 2) if warm_time > 0 else 0.0,
        "memory_hit_rate": round(mem_hits / candidates, 4) if candidates else 0.0,
        "disk_hit_rate": round(disk_hits / (disk_hits + disk_misses), 4)
        if (disk_hits + disk_misses) else 0.0,
        "prep_share": round(warm.prep_time_s / warm_time, 4) if warm_time > 0 else 0.0,
    }
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    path = write_bench_json(
        os.path.join(out_dir, "BENCH_sweep.json"),
        bench="sweep",
        metrics=metrics,
        meta={"grid": GRID, "budget": BUDGET},
        snapshot=snap,
    )
    print(f"\n[sweep perf trajectory] {metrics['candidates_per_s']:.0f} candidates/s "
          f"(memory hit rate {metrics['memory_hit_rate']:.1%}, "
          f"disk hit rate {metrics['disk_hit_rate']:.1%}) -> {path}")
    assert os.path.exists(path)
    assert candidates > 0
    assert _journals(cold) == _journals(warm)
