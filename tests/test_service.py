"""Tests for the persistent multi-tenant job service (:mod:`repro.service`)."""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    SERVICE_LOG_FILENAME,
    JobQueue,
    ServiceClient,
    ServiceCoordinator,
    load_service_log,
)
from repro.shard import ShardProtocolError, ShardWorker, get_json, post_json
from repro.sweep import CHECKPOINT_FILENAME, load_checkpoint
from repro.sweep.spec import SweepSpec
from repro.utils.serialization import to_jsonable

#: Shared tiny sweep budget: every cell completes in well under a second.
TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2,
            seed=1)


def tiny_spec(**overrides) -> SweepSpec:
    return SweepSpec(**{"fps": (10.0,), **TINY, **overrides})


def journal_map(checkpoint_path) -> dict[str, str]:
    """uid → canonical journal bytes for every outcome in a checkpoint."""
    status = load_checkpoint(checkpoint_path)
    return {
        uid: json.dumps(to_jsonable(outcome.journal), sort_keys=True)
        for uid, outcome in status.outcomes.items()
    }


def local_journal_map(spec: SweepSpec, tmp_path) -> dict[str, str]:
    """Journals of an uninterrupted single-machine run of ``spec``."""
    run_dir = tmp_path / "local-reference"
    spec.build_runner(cache_dir=str(run_dir), workers=1).run()
    return journal_map(run_dir / CHECKPOINT_FILENAME)


def run_worker(url: str, cache_dir, *, token=None, idle_timeout_s=3.0,
               task_fn=None) -> int:
    kwargs = dict(cache_dir=str(cache_dir), token=token,
                  idle_timeout_s=idle_timeout_s)
    if task_fn is not None:
        kwargs["task_fn"] = task_fn
    return ShardWorker(url, **kwargs).run()


def wait_for(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# ------------------------------------------------------------------ SweepSpec
class TestSweepSpec:
    def test_round_trips_through_payload(self):
        spec = tiny_spec(strategies="scd,random", utilizations=(0.8,))
        assert SweepSpec.from_payload(spec.as_dict()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sweep spec field"):
            SweepSpec.from_payload({"stratagies": "scd"})

    def test_rejects_bad_axis_via_grid_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            SweepSpec.from_payload({"strategies": "not-a-strategy"})
        with pytest.raises(ValueError):
            SweepSpec.from_payload({"devices": "no-such-device"})

    def test_rejects_bool_and_non_numeric_knobs(self):
        with pytest.raises(ValueError, match="'iterations'"):
            SweepSpec.from_payload({"iterations": True})
        with pytest.raises(ValueError, match="'fps'"):
            SweepSpec.from_payload({"fps": ["ten"]})

    def test_same_spec_same_uids(self):
        spec = tiny_spec(strategies="scd,random")
        uids = [t.uid for t in spec.build_tasks()]
        again = [t.uid for t in SweepSpec.from_payload(spec.as_dict()).build_tasks()]
        assert uids == again


# ------------------------------------------------------------------- JobQueue
class TestJobQueue:
    def test_submit_creates_dir_spec_and_journal(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(tiny_spec(), name="My Job!")
        assert job.uid == "j0001-My-Job"
        assert (job.directory / "job.json").exists()
        records, corrupt = load_service_log(tmp_path / SERVICE_LOG_FILENAME)
        assert corrupt == 0
        assert [r["kind"] for r in records] == ["header", "submitted"]

    def test_replay_requeues_unfinished_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        running = queue.submit(tiny_spec(), name="running")
        done = queue.submit(tiny_spec(seed=2), name="done")
        queue.set_state(running, "running")
        queue.set_state(done, "done")
        # Simulate a SIGKILL'd coordinator: a fresh queue on the same root.
        revived = JobQueue(tmp_path)
        by_uid = {job.uid: job for job in revived.jobs()}
        assert by_uid[running.uid].state == "queued"
        assert by_uid[running.uid].recovered
        assert by_uid[done.uid].state == "done"
        assert not by_uid[done.uid].recovered
        # Sequence continues after the replayed uids.
        assert revived.submit(tiny_spec(seed=3)).uid.startswith("j0003")

    def test_torn_tail_is_tolerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(tiny_spec(), name="torn")
        queue.set_state(job, "running")
        path = tmp_path / SERVICE_LOG_FILENAME
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "job": "' + job.uid)  # torn line
        revived = JobQueue(tmp_path)
        assert revived.corrupt_lines == 1
        assert revived.get(job.uid).state == "queued"  # requeued, not lost

    def test_cancelled_jobs_stay_cancelled_across_replay(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(tiny_spec())
        queue.set_state(job, "cancelled")
        assert JobQueue(tmp_path).get(job.uid).state == "cancelled"


# ----------------------------------------------------------- service lifecycle
class TestServiceLifecycle:
    def test_two_jobs_one_worker_byte_identical_to_local(self, tmp_path):
        spec_a = tiny_spec()
        spec_b = tiny_spec(devices="fpga:pynq-z1,gpu:jetson-tx2", seed=2)
        service = ServiceCoordinator(tmp_path / "root", max_active=2)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid_a = client.submit(spec_a, name="a")["job"]
            uid_b = client.submit(spec_b, name="b")["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            assert client.wait(uid_a, timeout_s=60)["state"] == "done"
            assert client.wait(uid_b, timeout_s=60)["state"] == "done"
            for uid, spec in ((uid_a, spec_a), (uid_b, spec_b)):
                served = journal_map(
                    tmp_path / "root" / "jobs" / uid / CHECKPOINT_FILENAME)
                local = local_journal_map(spec, tmp_path / f"ref-{uid}")
                assert served == local, (
                    f"job {uid} journals must be byte-identical to a local run"
                )
        finally:
            service.stop()

    def test_result_endpoint_round_trips_sweep_payload(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec())["job"]
            # Result before the job settles is a protocol error (HTTP 400).
            with pytest.raises(ShardProtocolError, match="available once"):
                client.result(uid)
            assert run_worker(service.url, tmp_path / "wcache") == 0
            client.wait(uid, timeout_s=60)
            payload = client.result(uid)
            assert payload["state"] == "done"
            assert len(payload["sweep"]["outcomes"]) == 1
        finally:
            service.stop()

    def test_heartbeat_for_a_finished_job_is_not_a_revocation(self, tmp_path):
        """A lease of a job that settled is reported ``settled``; one of a
        job this service does not know is ``revoked``."""
        from repro.shard.protocol import PROTOCOL_VERSION

        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec())["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            client.wait(uid, timeout_s=60)
            worker_id = post_json(service.url, "/v1/register", {
                "name": "late", "version": PROTOCOL_VERSION})["worker_id"]
            reply = post_json(service.url, "/v1/heartbeat", {
                "worker_id": worker_id,
                "lease_ids": [f"{uid}:l1", "j9999-unknown:l1"]})
            assert reply["settled"] == [f"{uid}:l1"]
            assert reply["revoked"] == ["j9999-unknown:l1"]
        finally:
            service.stop()

    def test_cancel_queued_job_settles_immediately(self, tmp_path):
        # max_active=1 and no worker: the first job camps on the admission
        # slot in "preparing", the second stays queued and cancels instantly.
        service = ServiceCoordinator(tmp_path / "root", max_active=1)
        service.start()
        try:
            client = ServiceClient(service.url)
            client.submit(tiny_spec(), name="hog")
            queued = client.submit(tiny_spec(seed=2), name="victim")["job"]
            wait_for(lambda: client.status(queued)["state"] == "queued",
                     timeout_s=5)
            reply = client.cancel(queued)
            assert reply["cancelled"]
            assert client.status(queued)["state"] == "cancelled"
            # Cancelling a terminal job is a no-op.
            assert client.cancel(queued)["cancelled"] is False
        finally:
            service.stop()

    def test_cancel_running_job_releases_its_leases(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root", tick_s=0.05)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(strategies="scd,random"))["job"]
            assert wait_for(lambda: client.status(uid)["state"] == "running",
                            timeout_s=15)
            client.cancel(uid)
            assert wait_for(
                lambda: client.status(uid)["state"] == "cancelled", timeout_s=15)
            # Workers arriving later find no leasable work for this job.
            worker_exit = run_worker(service.url, tmp_path / "wcache",
                                     idle_timeout_s=1.0)
            assert worker_exit == 0
            assert client.status(uid)["state"] == "cancelled"
        finally:
            service.stop()

    def test_worker_errors_fail_the_job(self, tmp_path):
        def boom(task, cache_dir, prepared=None):
            raise RuntimeError("injected cell failure")

        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(retries=0, retry_backoff_s=0.0))["job"]
            assert run_worker(service.url, tmp_path / "wcache",
                              task_fn=boom, idle_timeout_s=2.0) == 0
            summary = client.wait(uid, timeout_s=60)
            assert summary["state"] == "failed"
            assert "1 of 1" in summary["error"]
            detail = client.status(uid)
            assert detail["failures"][0]["kind"] == "error"
        finally:
            service.stop()

    def test_metrics_reports_per_job_sections(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec(), name="metered")["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            client.wait(uid, timeout_s=60)
            metrics = client.metrics()
            assert metrics["service"] is True
            jobs = {j["job"]: j for j in metrics["jobs"]}
            assert jobs[uid]["counts"]["settled"] == 1
            assert metrics["counts"]["done"] is True
            assert metrics["lease_metrics"]["completed"] >= 1
        finally:
            service.stop()

    def test_idle_worker_exits_zero_on_timeout(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            started = time.monotonic()
            code = run_worker(service.url, tmp_path / "wcache",
                              idle_timeout_s=1.0)
            elapsed = time.monotonic() - started
            assert code == 0
            assert elapsed < 30.0
        finally:
            service.stop()


# ------------------------------------------------------------------------ auth
class TestAuth:
    def test_mutating_routes_reject_missing_or_wrong_token(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root", token="s3cret")
        service.start()
        try:
            spec = tiny_spec()
            for bad_token in (None, "wrong"):
                with pytest.raises(ShardProtocolError, match="401"):
                    ServiceClient(service.url, token=bad_token).submit(spec)
                with pytest.raises(ShardProtocolError, match="401"):
                    post_json(service.url, "/v1/register", {"name": "x"},
                              token=bad_token)
                with pytest.raises(ShardProtocolError, match="401"):
                    ServiceClient(service.url, token=bad_token).cancel("j0001")
            # Reads stay open: dashboards don't need the secret.
            assert get_json(service.url, "/v1/jobs")["jobs"] == []
            # The right token passes end to end, worker included.
            client = ServiceClient(service.url, token="s3cret")
            uid = client.submit(spec)["job"]
            assert run_worker(service.url, tmp_path / "wcache",
                              token="s3cret") == 0
            assert client.wait(uid, timeout_s=60)["state"] == "done"
        finally:
            service.stop()

    def test_no_token_accepts_everything(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            assert ServiceClient(service.url).submit(tiny_spec())["job"]
        finally:
            service.stop()


# -------------------------------------------------------------- crash recovery
class TestCrashRecovery:
    def test_killed_coordinator_resumes_and_matches_local(self, tmp_path):
        spec = tiny_spec(strategies="scd,random", fps=(10.0, 15.0))
        root = tmp_path / "root"
        checkpoint = None

        service = ServiceCoordinator(root)
        service.start()
        uid = ServiceClient(service.url).submit(spec, name="crashy")["job"]
        checkpoint = root / "jobs" / uid / CHECKPOINT_FILENAME
        worker = threading.Thread(
            target=run_worker, args=(service.url, tmp_path / "w1"),
            kwargs={"idle_timeout_s": 30.0}, daemon=True)
        worker.start()
        # Let at least one cell settle, then die without a terminal state.
        assert wait_for(lambda: len(journal_map(checkpoint)) >= 1)
        service.stop()
        settled_before = len(journal_map(checkpoint))
        assert settled_before < len(spec.build_tasks()), (
            "the kill must land mid-run for this test to exercise resume")

        revived = ServiceCoordinator(root)
        job = revived.queue.get(uid)
        assert job.state == "queued" and job.recovered
        revived.start()
        try:
            client = ServiceClient(revived.url)
            assert run_worker(revived.url, tmp_path / "w2") == 0
            summary = client.wait(uid, timeout_s=90)
            assert summary["state"] == "done"
            assert summary["counts"]["settled"] == len(spec.build_tasks())
            # Byte-identity: interrupted+resumed == uninterrupted local run.
            assert journal_map(checkpoint) == local_journal_map(spec, tmp_path)
            # The result endpoint rebuilds from the checkpoint (the run that
            # produced the in-memory result died with the first process).
            payload = client.result(uid)
            assert len(payload["sweep"]["outcomes"]) == len(spec.build_tasks())
        finally:
            revived.stop()

    def test_stop_before_admission_keeps_job_queued(self, tmp_path):
        root = tmp_path / "root"
        service = ServiceCoordinator(root, max_active=1)
        service.start()
        client = ServiceClient(service.url)
        client.submit(tiny_spec(), name="hog")
        queued = client.submit(tiny_spec(seed=2), name="waiting")["job"]
        service.stop()
        revived = JobQueue(root)
        assert revived.get(queued).state == "queued"


# ------------------------------------------------------------- cache exchange
class TestCacheExchange:
    def test_worker_push_then_fresh_worker_pull(self, tmp_path):
        service = ServiceCoordinator(tmp_path / "root")
        service.start()
        try:
            client = ServiceClient(service.url)
            uid = client.submit(tiny_spec())["job"]
            assert run_worker(service.url, tmp_path / "w1") == 0
            client.wait(uid, timeout_s=60)
            # The first worker pushed its estimator cache into the hub...
            from repro.sweep import read_cache_records

            hub = read_cache_records(service.cache_dir)
            assert hub, "completed cells must populate the shared cache"
            # ...and a fresh worker pulls it at registration.
            fresh_dir = tmp_path / "w2"
            assert run_worker(service.url, fresh_dir, idle_timeout_s=1.0) == 0
            pulled = read_cache_records(fresh_dir)
            assert {(r["namespace"], r["key"]) for r in hub} <= {
                (r["namespace"], r["key"]) for r in pulled}
        finally:
            service.stop()


# ------------------------------------------------- interleaving (property)
class TestInterleavingDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(
        strategy_pair=st.sampled_from([("scd", "random"), ("random", "random"),
                                       ("scd", "scd")]),
        seed=st.sampled_from([1, 7]),
    )
    def test_interleaved_jobs_match_sequential_journals(
        self, tmp_path_factory, strategy_pair, seed
    ):
        """Two jobs interleaved over one fleet == each run alone, bytewise."""
        tmp_path = tmp_path_factory.mktemp("interleave")
        spec_a = tiny_spec(strategies=strategy_pair[0], seed=seed)
        spec_b = tiny_spec(strategies=strategy_pair[1], seed=seed + 10)
        service = ServiceCoordinator(tmp_path / "root", max_active=2)
        service.start()
        try:
            client = ServiceClient(service.url)
            uid_a = client.submit(spec_a)["job"]
            uid_b = client.submit(spec_b)["job"]
            assert run_worker(service.url, tmp_path / "wcache") == 0
            assert client.wait(uid_a, timeout_s=90)["state"] == "done"
            assert client.wait(uid_b, timeout_s=90)["state"] == "done"
        finally:
            service.stop()
        for uid, spec in ((uid_a, spec_a), (uid_b, spec_b)):
            interleaved = journal_map(
                tmp_path / "root" / "jobs" / uid / CHECKPOINT_FILENAME)
            alone = local_journal_map(spec, tmp_path / f"solo-{uid}")
            assert interleaved == alone


# --------------------------------------------------------- lease board units
class TestLeaseBoardServiceHooks:
    def _board(self, **kwargs):
        from repro.shard import LeaseBoard
        from repro.sweep import build_grid

        tasks = build_grid("pynq-z1", "scd", [10.0], **TINY)
        return LeaseBoard({0: tasks[0]}, [0], **kwargs)

    def test_lease_prefix_namespaces_lease_ids(self):
        board = self._board(lease_prefix="j0001:", job="j0001")
        board.adopt_worker("w1")
        cells = board.lease("w1", 1)
        assert cells[0].lease_id.startswith("j0001:")
        assert cells[0].lease_id.rpartition(":")[0] == "j0001"

    def test_adopt_worker_is_idempotent_and_enables_leasing(self):
        board = self._board()
        with pytest.raises(ShardProtocolError, match="unknown worker"):
            board.lease("ghost", 1)
        board.adopt_worker("ghost", "revenant")
        board.adopt_worker("ghost", "other-name")  # no-op, keeps the first
        assert board.lease("ghost", 1)
        assert board.worker_stats()[0]["name"] == "revenant"
