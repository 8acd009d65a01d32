"""Robustness tests for the resilient sweep scheduler and the disk-cache GC.

A sweep with a poisoned cell (raising, stalling, crashing or returning
garbage) must always complete, record a structured :class:`SweepFailure`
with the attempt count, and leave the surviving cells' journals
byte-identical to a clean run.  Corrupt disk-cache shards are skipped with
a warning and repaired by compaction.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import multiprocessing.util
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.telemetry as telemetry

from repro.sweep import (
    DiskEvaluationCache,
    SweepRunner,
    build_grid,
    cache_dir_stats,
    compact_cache_dir,
    run_sweep_task,
)
from repro.sweep import disk_cache
from repro.sweep import pool as pool_module
from repro.sweep import runner as sweep_runner
from repro.sweep.runner import FAIL_TASKS_ENV, STALL_TASKS_ENV

TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)


def journal_dumps(outcomes):
    return {o.task.name: json.dumps(o.journal, sort_keys=True) for o in outcomes}


# Module-level so it pickles under any multiprocessing start method.
def _flaky_task(task, cache_dir, prepared):
    """Fails the flagged cell once, then succeeds (flag file = attempt marker)."""
    flag_dir = os.environ["REPRO_TEST_FLAKY_DIR"]
    marker = os.path.join(flag_dir, task.name.replace("/", "_"))
    if task.name in os.environ.get("REPRO_TEST_FLAKY_TASKS", "").split(",") \
            and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted\n")
        raise RuntimeError(f"transient failure for {task.name}")
    return run_sweep_task(task, cache_dir, prepared)


def _garbage_task(task, cache_dir, prepared):
    return {"definitely": "not a SweepOutcome"}


def _dying_task(task, cache_dir, prepared):
    """Simulates a segfault/OOM-kill: the worker exits without reporting."""
    if task.strategy == "random":
        os._exit(13)
    return run_sweep_task(task, cache_dir, prepared)


def _record_pid(task) -> str:
    """Leave ``<strategy>.<pid>`` in ``REPRO_TEST_PID_DIR``; returns the dir."""
    pid_dir = os.environ["REPRO_TEST_PID_DIR"]
    with open(os.path.join(pid_dir, f"{task.strategy}.{os.getpid()}"), "w"):
        pass
    return pid_dir


def _pids(pid_dir, strategy: str) -> set[int]:
    prefix = f"{strategy}."
    return {int(name[len(prefix):]) for name in os.listdir(pid_dir)
            if name.startswith(prefix)}


def _outlive_stalled_task(task, cache_dir, prepared):
    """Records its pid; the ``random`` cell then waits until the stalled
    ``scd`` cell's worker has been killed, so it is in flight at the kill."""
    pid_dir = _record_pid(task)
    if task.strategy == "random":
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            stalled = _pids(pid_dir, "scd")
            if stalled and not any(_alive(pid) for pid in stalled):
                break
            time.sleep(0.01)
    return run_sweep_task(task, cache_dir, prepared)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _running(pid: int) -> bool:
    """``_alive`` that counts an unreaped zombie as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return not os.path.isdir("/proc") and _alive(pid)


#: Owns a 1-slot pool whose only cell prints its pid, then sleeps.
_POOL_OWNER = """
import os, time
from repro.sweep.pool import WorkerPool

def cell(seconds):
    print(os.getpid(), flush=True)
    time.sleep(seconds)

pool = WorkerPool(cell, 1)
pool.submit("cell", "cell", 60.0)
time.sleep(60.0)
"""


def _dying_once_task(task, cache_dir, prepared):
    """The ``random`` cell's first attempt kills its worker process."""
    pid_dir = _record_pid(task)
    marker = os.path.join(pid_dir, "died")
    if task.strategy == "random" and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(13)
    return run_sweep_task(task, cache_dir, prepared)


def _exiting_task(task, cache_dir, prepared):
    """The ``random`` 40 FPS cell calls ``sys.exit`` inside its worker."""
    if task.strategy == "random" and task.fps == 40.0:
        # Were the worker to exit, a slow teardown would hold its pipe open
        # long enough for the next cell to be sent into it.
        multiprocessing.util.Finalize(None, time.sleep, args=(0.5,), exitpriority=0)
        sys.exit(3)
    return run_sweep_task(task, cache_dir, prepared)


# ------------------------------------------------------------- poisoned cells
class TestPoisonedCells:
    @pytest.fixture()
    def grid(self):
        return build_grid("pynq-z1", "scd,random", [40.0], **TINY)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_yields_failure_record(self, grid, workers, monkeypatch):
        monkeypatch.setenv(FAIL_TASKS_ENV, "PYNQ-Z1-random-40fps")
        result = SweepRunner(grid, workers=workers, retries=1).run()
        assert [o.task.name for o in result.outcomes] == ["PYNQ-Z1-scd-40fps"]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.task.name == "PYNQ-Z1-random-40fps"
        assert failure.kind == "error"
        assert failure.attempts == 2, "one retry means two attempts"
        assert "injected failure" in failure.error
        assert not result.ok

    def test_surviving_cells_identical_to_clean_run(self, grid, monkeypatch):
        """Acceptance: a poisoned grid completes and the survivors' journals
        are byte-identical to the same cells of an unpoisoned sweep."""
        clean = SweepRunner(grid, workers=2).run()
        monkeypatch.setenv(FAIL_TASKS_ENV, "PYNQ-Z1-random-40fps")
        poisoned = SweepRunner(grid, workers=2, retries=0).run()
        clean_journals = journal_dumps(clean.outcomes)
        for outcome in poisoned.outcomes:
            assert outcome.journal is not None
            assert journal_dumps([outcome])[outcome.task.name] == \
                clean_journals[outcome.task.name]
        payload = json.loads(json.dumps(poisoned.as_dict()))
        assert payload["failures"][0]["attempts"] == 1

    def test_timed_out_cell_is_killed_and_recorded(self, grid, monkeypatch):
        """Acceptance: a cell exceeding its wall-clock timeout cannot hang the
        sweep; it is terminated, retried and recorded with its retry count."""
        monkeypatch.setenv(STALL_TASKS_ENV, "PYNQ-Z1-scd-40fps")
        result = SweepRunner(grid, workers=2, timeout_s=0.5, retries=1).run()
        assert [o.task.name for o in result.outcomes] == ["PYNQ-Z1-random-40fps"]
        failure = result.failures[0]
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        assert "timeout" in failure.error
        assert result.wall_time_s < 30.0, "the stalled cell must not hang the sweep"

    def test_timeout_with_single_worker_slot(self, monkeypatch):
        # workers=1 plus a timeout runs on a pool of one worker process so
        # the stuck process can still be killed.
        grid = build_grid("pynq-z1", "scd", [40.0], **TINY)
        monkeypatch.setenv(STALL_TASKS_ENV, "PYNQ-Z1-scd-40fps")
        result = SweepRunner(grid, workers=1, timeout_s=0.5, retries=0).run()
        assert not result.outcomes
        assert result.failures[0].kind == "timeout"
        assert result.failures[0].attempts == 1

    def test_acceptance_timeout_cell_workers_1_vs_n(self, monkeypatch):
        """Acceptance criterion, end to end: a grid with a cell whose worker
        exceeds its timeout completes, records the failure with its retry
        count in ``SweepResult.as_dict()``, and the workers=1 vs workers=N
        journals are byte-identical for the surviving cells."""
        grid = build_grid("pynq-z1", "scd,random", [40.0, 30.0], **TINY)
        monkeypatch.setenv(STALL_TASKS_ENV, "PYNQ-Z1-scd-40fps")
        single = SweepRunner(grid, workers=1, timeout_s=0.5, retries=1).run()
        pooled = SweepRunner(grid, workers=3, timeout_s=0.5, retries=1).run()
        for result in (single, pooled):
            assert len(result.outcomes) == 3 and len(result.failures) == 1
            payload = json.loads(json.dumps(result.as_dict()))
            failure = payload["failures"][0]
            assert failure["kind"] == "timeout"
            assert failure["attempts"] == 2
            assert failure["task"]["strategy"] == "scd"
        assert journal_dumps(single.outcomes) == journal_dumps(pooled.outcomes)

    def test_transient_failure_recovers_on_retry(self, grid, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TEST_FLAKY_TASKS", "PYNQ-Z1-scd-40fps")
        result = SweepRunner(grid, workers=2, retries=1, task_fn=_flaky_task).run()
        assert result.ok
        by_name = {o.task.name: o for o in result.outcomes}
        assert by_name["PYNQ-Z1-scd-40fps"].attempts == 2
        assert by_name["PYNQ-Z1-random-40fps"].attempts == 1

    @pytest.mark.parametrize("workers,timeout_s", [(1, None), (2, None), (1, 60.0)],
                             ids=["1-serial", "2-subprocess-pool",
                                  "1-subprocess-pool-with-timeout"])
    def test_garbage_result_yields_invalid_result_failure(self, grid, workers, timeout_s):
        result = SweepRunner(grid, workers=workers, timeout_s=timeout_s,
                             retries=0, share_preparation=False,
                             task_fn=_garbage_task).run()
        assert not result.outcomes
        assert {f.kind for f in result.failures} == {"invalid-result"}
        assert all(f.attempts == 1 for f in result.failures)

    def test_crashed_worker_recorded_under_stealing(self, grid):
        """A worker that dies without reporting (segfault-style) becomes a
        'crash' failure; the healthy cell still completes."""
        result = SweepRunner(grid, workers=2, retries=0, task_fn=_dying_task).run()
        assert [o.task.name for o in result.outcomes] == ["PYNQ-Z1-scd-40fps"]
        assert result.failures[0].kind == "crash"
        assert result.failures[0].task.strategy == "random"


# ---------------------------------------------------------------- worker pool
class TestWorkerPool:
    """One persistent pool: a timeout or crash replaces only its worker."""

    @pytest.fixture()
    def pid_dir(self, tmp_path, monkeypatch):
        directory = tmp_path / "pids"
        directory.mkdir()
        monkeypatch.setenv("REPRO_TEST_PID_DIR", str(directory))
        return directory

    def test_timeout_kills_only_the_stalled_worker(self, pid_dir, monkeypatch):
        grid = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        stalled, survivor = grid
        monkeypatch.setenv(STALL_TASKS_ENV, stalled.name)
        telemetry.enable(fresh=True)
        try:
            # The survivor's cost hint lifts its own timeout to 3 s (and
            # orders it second), so only the stalled cell overruns.
            result = SweepRunner(grid, workers=2, timeout_s=0.5, retries=1,
                                 retry_backoff_s=0.0, cost_hints={survivor.uid: 1.0},
                                 task_fn=_outlive_stalled_task).run()
            started = telemetry.snapshot().counters["sweep.pool.workers_started"]
        finally:
            telemetry.disable()
        assert [o.task.uid for o in result.outcomes] == [survivor.uid]
        assert result.outcomes[0].attempts == 1, "the kill must not touch its worker"
        failure = result.failures[0]
        assert (failure.task.uid, failure.kind, failure.attempts) == \
            (stalled.uid, "timeout", 2)
        stalled_pids, survivor_pids = _pids(pid_dir, "scd"), _pids(pid_dir, "random")
        assert len(stalled_pids) == 2, "the retry ran on a replacement worker"
        assert len(survivor_pids) == 1 and not survivor_pids & stalled_pids
        # Two slots plus one replacement for the killed worker.
        assert started == len(stalled_pids | survivor_pids) == 3

    def test_crash_is_retried_on_a_replacement_worker(self, pid_dir):
        grid = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        result = SweepRunner(grid, workers=2, retries=1, retry_backoff_s=0.0,
                             task_fn=_dying_once_task).run()
        assert result.ok
        by_strategy = {o.task.strategy: o for o in result.outcomes}
        assert by_strategy["random"].attempts == 2
        assert by_strategy["scd"].attempts == 1
        assert len(_pids(pid_dir, "random")) == 2, "retried in a new process"
        clean = SweepRunner(grid, workers=1).run()
        assert journal_dumps(result.outcomes) == journal_dumps(clean.outcomes)

    def test_sys_exit_fails_only_its_own_cell(self):
        # The exiting worker keeps serving: the next cell it pulls must not
        # be charged a crash (retries=0 would make that a failure).
        grid = build_grid("pynq-z1", "scd,random", [40.0, 30.0], **TINY)
        exiting = next(t for t in grid if t.name == "PYNQ-Z1-random-40fps")
        # Dispatched first, so every later cell could land on its worker.
        result = SweepRunner(grid, workers=2, retries=0, task_fn=_exiting_task,
                             cost_hints={exiting.uid: 1e3}).run()
        assert [(f.task.name, f.kind) for f in result.failures] == \
            [("PYNQ-Z1-random-40fps", "error")]
        assert "SystemExit: 3" in result.failures[0].error
        assert len(result.outcomes) == 3
        clean = SweepRunner(grid, workers=1).run()
        clean_journals = journal_dumps(clean.outcomes)
        for name, journal in journal_dumps(result.outcomes).items():
            assert journal == clean_journals[name]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_preparation_raises_its_own_exception(self, workers, monkeypatch):
        def failing_prepare(task):
            raise ValueError(f"no fit for {task.device}")

        monkeypatch.setattr(sweep_runner, "prepare_device", failing_prepare)
        grid = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        with pytest.raises(ValueError, match="no fit for PYNQ-Z1"):
            SweepRunner(grid, workers=workers).run()

    def test_busy_worker_dies_with_its_killed_parent(self):
        src = os.path.abspath(pool_module.__file__).rsplit(os.sep, 3)[0]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        owner = subprocess.Popen([sys.executable, "-c", _POOL_OWNER], env=env,
                                 stdout=subprocess.PIPE, text=True)
        worker_pid = None
        try:
            worker_pid = int(owner.stdout.readline())
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while _running(worker_pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker_pid), "the busy worker outlived its parent"
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait()
            owner.stdout.close()
            if worker_pid is not None and _running(worker_pid):
                os.kill(worker_pid, signal.SIGKILL)

    def test_spawn_start_method(self, tmp_path, monkeypatch):
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(pool_module.multiprocessing, "get_context",
                            lambda method=None: spawn)
        grid = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        spawned = SweepRunner(grid, workers=2, cache_dir=tmp_path).run()
        serial = SweepRunner(grid, workers=1).run()
        assert spawned.ok
        assert journal_dumps(spawned.outcomes) == journal_dumps(serial.outcomes)


# ---------------------------------------------------------- parsed-line memo
class TestParsedLineMemo:
    """The process-wide memo never changes what a cache loads."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        disk_cache._parsed_lines.clear()
        yield
        disk_cache._parsed_lines.clear()

    @staticmethod
    def cold_store(directory, device="PYNQ-Z1"):
        """The store a memo-less parse builds (the memo emptied first)."""
        disk_cache._parsed_lines.clear()
        return dict(DiskEvaluationCache(_no_estimates, directory, device=device,
                                        shard="reader")._store)

    @staticmethod
    def warm_store(directory, device="PYNQ-Z1"):
        return dict(DiskEvaluationCache(_no_estimates, directory, device=device,
                                        shard="reader")._store)

    @staticmethod
    def write_lines(path, records):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    def record(self, key, latency, namespace="PYNQ-Z1@100MHz"):
        return {"namespace": namespace, "key": key, "ts": 1.0,
                "estimate": {"latency_ms": latency, "compute_ms": 0.0,
                             "data_movement_ms": 0.0,
                             "resources": {"lut": 1.0, "ff": 2.0, "dsp": 3.0, "bram": 4.0}}}

    def shard(self, directory, name="a"):
        return directory / f"PYNQ-Z1_100MHz--{name}.jsonl"

    def assert_memo_agrees(self, directory):
        warm = self.warm_store(directory)
        assert warm == self.cold_store(directory)
        return warm

    def test_appends_from_another_process(self, tmp_path):
        self.write_lines(self.shard(tmp_path), [self.record("k1", 1.0)])
        assert set(self.assert_memo_agrees(tmp_path)) == {"k1"}
        process = multiprocessing.get_context().Process(
            target=self.write_lines,
            args=(self.shard(tmp_path), [self.record("k2", 2.0), self.record("k1", 9.0)]))
        process.start()
        process.join(timeout=30.0)
        warm = self.assert_memo_agrees(tmp_path)
        assert warm["k1"].latency_ms == 9.0, "the later line still wins"
        assert warm["k2"].latency_ms == 2.0

    def test_torn_tail_completed_later(self, tmp_path, caplog):
        line = json.dumps(self.record("k2", 2.0), sort_keys=True)
        self.write_lines(self.shard(tmp_path), [self.record("k1", 1.0)])
        with open(self.shard(tmp_path), "a", encoding="utf-8") as handle:
            handle.write(line[:25])
        with caplog.at_level(logging.WARNING, logger="repro.sweep.disk_cache"):
            assert set(self.warm_store(tmp_path)) == {"k1"}
            assert set(self.warm_store(tmp_path)) == {"k1"}
        assert sum("corrupt line" in r.message for r in caplog.records) == 2, \
            "a torn line is never memoized: it warns on every load"
        assert line[:25] not in disk_cache._parsed_lines
        with open(self.shard(tmp_path), "a", encoding="utf-8") as handle:
            handle.write(line[25:] + "\n")
        # The torn fragment and its completion now form one valid line.
        with open(self.shard(tmp_path), "r", encoding="utf-8") as handle:
            assert handle.read().splitlines()[-1] == line
        assert set(self.assert_memo_agrees(tmp_path)) == {"k1", "k2"}

    def test_after_compaction(self, tmp_path):
        self.write_lines(self.shard(tmp_path, "a"), [self.record("k1", 1.0)])
        self.write_lines(self.shard(tmp_path, "b"),
                         [self.record("k1", 1.0), self.record("k2", 2.0)])
        before = self.warm_store(tmp_path)
        compact_cache_dir(tmp_path)
        assert self.assert_memo_agrees(tmp_path) == before

    def test_shard_deleted_and_recreated_at_the_same_path(self, tmp_path):
        self.write_lines(self.shard(tmp_path), [self.record("k1", 1.0)])
        assert self.warm_store(tmp_path)["k1"].latency_ms == 1.0
        self.shard(tmp_path).unlink()
        self.write_lines(self.shard(tmp_path), [self.record("k1", 5.0)])
        assert self.assert_memo_agrees(tmp_path)["k1"].latency_ms == 5.0

    def test_other_namespace_lines_are_not_loaded(self, tmp_path):
        self.write_lines(self.shard(tmp_path), [
            self.record("k1", 1.0),
            self.record("k1", 7.0, namespace="Ultra96@150MHz"),
            self.record("k2", 2.0, namespace="Ultra96@150MHz"),
        ])
        warm = self.assert_memo_agrees(tmp_path)
        assert set(warm) == {"k1"} and warm["k1"].latency_ms == 1.0

    def test_memo_never_exceeds_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(disk_cache, "_PARSED_LINES_CAPACITY", 5)
        self.write_lines(self.shard(tmp_path),
                         [self.record(f"k{i}", float(i)) for i in range(12)])
        warm = self.warm_store(tmp_path)
        assert len(disk_cache._parsed_lines) == 5
        assert warm == self.cold_store(tmp_path)
        assert len(disk_cache._parsed_lines) == 5
        # The newest lines stay resident (least recently used go first).
        assert [entry[1] for entry in disk_cache._parsed_lines.values()] == \
            [f"k{i}" for i in range(7, 12)]


def _no_estimates(config):
    raise AssertionError("a memo test never estimates")


# --------------------------------------------------------- corrupt cache dirs
class TestCorruptShards:
    def _seed_cache(self, tmp_path):
        task = build_grid("pynq-z1", "scd", [40.0], **TINY)[0]
        run_sweep_task(task, str(tmp_path))
        return task

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, caplog):
        task = self._seed_cache(tmp_path)
        shard = next(tmp_path.glob("*.jsonl"))
        with shard.open("a") as handle:
            handle.write("{torn json\n")
            handle.write('{"namespace": 3, "key": null}\n')
        with caplog.at_level(logging.WARNING, logger="repro.sweep.disk_cache"):
            warm = run_sweep_task(task, str(tmp_path))
        assert warm.estimator_calls == 0, "valid entries still serve from disk"
        assert any("corrupt line" in record.message for record in caplog.records)

    def test_truncated_shard_tail_survives(self, tmp_path):
        task = self._seed_cache(tmp_path)
        shard = next(tmp_path.glob("*.jsonl"))
        text = shard.read_text()
        shard.write_text(text[: len(text) - 25])  # chop mid-record
        warm = run_sweep_task(task, str(tmp_path))
        assert warm.disk_hits > 0, "untouched entries still load"

    def test_compaction_repairs_corruption(self, tmp_path):
        task = self._seed_cache(tmp_path)
        shard = next(tmp_path.glob("*.jsonl"))
        with shard.open("a") as handle:
            handle.write("{torn json\n")
        report = compact_cache_dir(tmp_path)
        assert report.corrupt_lines_dropped == 1
        assert report.entries_kept == report.entries_before
        stats = cache_dir_stats(tmp_path)
        assert stats.corrupt_lines == 0
        warm = run_sweep_task(task, str(tmp_path))
        assert warm.estimator_calls == 0, "repaired cache must still hit"


# ------------------------------------------------------------ compaction / GC
class TestCompaction:
    def test_dedup_collapses_parallel_shards(self, tmp_path, engine, initial):
        # Two concurrent writers (cold sweep cells of one device) estimate
        # the same config into separate shards; compaction folds the shards
        # into one and drops the duplicate without losing the entry.
        a = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                shard="task-a")
        b = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                                shard="task-b")
        a.evaluate(initial)
        b.evaluate(initial)
        before = cache_dir_stats(tmp_path)
        assert before.duplicates == 1 and before.total_shards == 2
        report = compact_cache_dir(tmp_path)
        assert report.duplicates_dropped == 1
        assert report.shards_after == 1 < report.shards_before
        after = cache_dir_stats(tmp_path)
        assert after.duplicates == 0 and after.entries == 1
        warm = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert initial in warm

    def test_warm_sweep_after_compaction(self, tmp_path):
        tasks = build_grid("pynq-z1", "scd,random", [40.0], **TINY)
        cold = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert cold.estimator_calls > 0
        compact_cache_dir(tmp_path)
        warm = SweepRunner(tasks, workers=1, cache_dir=tmp_path).run()
        assert warm.estimator_calls == 0, "compaction must not lose entries"

    def test_age_eviction(self, tmp_path, engine, initial):
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        cache.evaluate(initial)
        # Pretend 10 days pass: everything is older than a 5-day budget.
        now = __import__("time").time() + 10 * 86400
        report = compact_cache_dir(tmp_path, max_age_days=5.0, now=now)
        assert report.evicted_by_age == 1
        assert report.entries_kept == 0
        assert cache_dir_stats(tmp_path).entries == 0

    def test_size_eviction_drops_oldest_first(self, tmp_path, engine, initial):
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        older = initial
        newer = initial.with_updates(parallel_factor=32)
        cache.evaluate(older)
        # Make the first record strictly older on the record timestamp.
        shard = next(tmp_path.glob("*.jsonl"))
        record = json.loads(shard.read_text())
        record["ts"] = record["ts"] - 1000.0
        shard.write_text(json.dumps(record, sort_keys=True) + "\n")
        DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1",
                            shard="second").evaluate(newer)
        one_record_mb = (len(json.dumps(record)) + 200) / (1024 * 1024)
        report = compact_cache_dir(tmp_path, max_size_mb=one_record_mb)
        assert report.evicted_by_size == 1
        reloaded = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        assert newer in reloaded and older not in reloaded

    def test_records_without_timestamp_use_shard_mtime(self, tmp_path, engine, initial):
        cache = DiskEvaluationCache(engine.estimate, tmp_path, device="PYNQ-Z1")
        cache.evaluate(initial)
        shard = next(tmp_path.glob("*.jsonl"))
        record = json.loads(shard.read_text())
        del record["ts"]  # pre-GC cache format
        shard.write_text(json.dumps(record, sort_keys=True) + "\n")
        report = compact_cache_dir(tmp_path, max_age_days=365.0)
        assert report.entries_kept == 1, "fresh mtime keeps the legacy record"

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_age_days"):
            compact_cache_dir(tmp_path, max_age_days=0.0)
        with pytest.raises(ValueError, match="max_size_mb"):
            compact_cache_dir(tmp_path, max_size_mb=-1.0)

    def test_empty_directory(self, tmp_path):
        report = compact_cache_dir(tmp_path / "fresh")
        assert report.entries_before == 0 and report.shards_after == 0
        stats = cache_dir_stats(tmp_path / "fresh")
        assert stats.entries == 0 and stats.total_shards == 0


@pytest.fixture(scope="module")
def engine():
    from repro.core.auto_hls import AutoHLS
    from repro.hw.device import PYNQ_Z1

    return AutoHLS(PYNQ_Z1)


@pytest.fixture(scope="module")
def initial():
    from repro.core.bundle_generation import get_bundle
    from repro.core.dnn_config import DNNConfig
    from repro.detection.task import TINY_DETECTION_TASK

    return DNNConfig(bundle=get_bundle(13), task=TINY_DETECTION_TASK, num_repetitions=2,
                     channel_expansion=(1.5, 1.5), downsample=(1, 1),
                     stem_channels=16, parallel_factor=16, max_channels=128)
