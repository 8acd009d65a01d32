"""HTTP face of the job service: many jobs, one lease surface, one fleet.

Architecture: every admitted job is driven by a stock
:class:`~repro.sweep.runner.SweepRunner` in its own daemon thread, with a
:class:`_ServiceTransport` plugged in — so grid validation, shared
preparation, resume, cost ordering, checkpointing and timings are the
battle-tested single-run machinery, unchanged.  The transport builds one
:class:`~repro.shard.coordinator.LeaseBoard` per running job (lease ids
prefixed ``<job_uid>:`` so heartbeats partition unambiguously) and
attaches it to the shared :class:`ServiceCoordinator`, which fans a
**single** worker fleet across all attached boards:

* workers register once at the service level and are *adopted* into each
  job board on first contact — they stay job-agnostic;
* ``/v1/lease`` round-robins one cell at a time across the running jobs
  (fair interleaving: a wide job cannot starve a small one);
* ``/v1/report`` routes by the payload's ``job`` field (falling back to
  uid search for job-oblivious workers);
* cancellation detaches the board — lease revocation by omission: the
  board stops granting, in-flight leases die with their heartbeats, and
  nothing requeues.

The coordinator process is crash-only: ``stop()`` (and SIGKILL) abandon
running jobs without writing a terminal state, and the next start replays
``_service.jsonl``, requeues them, and their runners resume from the
per-job checkpoints — journals stay byte-identical to an uninterrupted
run.
"""

from __future__ import annotations

import pathlib
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Callable, Mapping, Optional

from repro.service.jobs import Job, JobQueue
from repro.shard.coordinator import LeaseBoard, _CoordinatorHandler, parse_report
from repro.shard.protocol import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_POLL_S,
    PROTOCOL_VERSION,
    ShardProtocolError,
    prepared_to_wire,
    require,
    task_to_wire,
)
import repro.telemetry as telemetry
from repro.sweep.checkpoint import CHECKPOINT_FILENAME, checkpoint_cells, load_checkpoint, scan_checkpoint
from repro.sweep.runner import SweepResult, run_sweep_task
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["ServiceCoordinator", "ServiceStopped"]


class ServiceStopped(RuntimeError):
    """Raised inside a job driver when the service is shutting down.

    Deliberately *not* a job failure: the driver thread unwinds without
    recording a terminal state, which is exactly the crash-recovery path —
    the job replays as queued on the next start and resumes from its
    checkpoint.
    """


class _ServiceTransport:
    """Per-job transport: expose the job's cells on the shared HTTP surface.

    The local-run counterpart (:class:`repro.shard.CoordinatorTransport`)
    owns a listening socket; this one attaches its board to the
    long-running service instead and simply waits — ticking the board's
    lease reaper — until the board settles, the job is cancelled, or the
    service stops.
    """

    def __init__(self, service: "ServiceCoordinator", job: Job) -> None:
        self.service = service
        self.job = job

    def execute(self, runner, order, preparations):
        job = self.job
        board = LeaseBoard(
            {index: runner.tasks[index] for index in order},
            list(order),
            retries=runner.retries,
            backoff=runner._backoff_delay,
            timeouts={index: runner.effective_timeout_for(index) for index in order},
            lease_ttl_s=self.service.lease_ttl_s,
            on_outcome=lambda index, outcome: runner.settle_outcome(outcome),
            on_failure=lambda index, failure: runner.settle_failure(failure),
            lease_prefix=f"{job.uid}:",
            job=job.uid,
        )
        prepared_by_key = {}
        prep_keys: dict[int, Optional[str]] = {}
        for index in order:
            artifact = preparations.get(runner.tasks[index].prep_key)
            if artifact is None:
                prep_keys[index] = None
            else:
                prepared_by_key[artifact.wire_key] = artifact
                prep_keys[index] = artifact.wire_key
        self.service._attach(job, board, prepared_by_key, prep_keys)
        try:
            while not board.done:
                if self.service._stopping.is_set():
                    raise ServiceStopped(f"service stopping with job {job.uid} in flight")
                if job.cancel.is_set():
                    logger.info("service: job %s cancelled with %d cell(s) unsettled",
                                job.uid, board.counts()["cells"] - board.counts()["settled"])
                    break
                board.expire_leases()
                job.cancel.wait(self.service.tick_s)
        finally:
            self.service._detach(job, board)
        return dict(board.outcomes), dict(board.failures)


class _ServiceHandler(_CoordinatorHandler):
    """The shard handler plus the ``/v1/jobs`` routes."""

    coordinator: "ServiceCoordinator"

    server_version = "repro-service"

    def _handle_get(self, route: str) -> Optional[dict]:
        reply = super()._handle_get(route)
        if reply is not None:
            return reply
        if route == "/v1/jobs":
            return self.coordinator.handle_jobs_list()
        if route.startswith("/v1/jobs/"):
            rest = route[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                return self.coordinator.handle_job_result(rest[: -len("/result")])
            if rest and "/" not in rest:
                return self.coordinator.handle_job_status(rest)
        return None

    def _handle_post(self, route: str, payload: dict) -> Optional[dict]:
        if route == "/v1/jobs":
            return self.coordinator.handle_job_submit(payload)
        return super()._handle_post(route, payload)

    def _handle_delete(self, route: str) -> Optional[dict]:
        if route.startswith("/v1/jobs/"):
            rest = route[len("/v1/jobs/"):]
            if rest and "/" not in rest:
                return self.coordinator.handle_job_cancel(rest)
        return super()._handle_delete(route)


class ServiceCoordinator:
    """Persistent multi-tenant coordinator over a service root directory.

    ``start()`` binds the HTTP server, re-admits journalled jobs, and
    returns; job driver threads and the HTTP server run as daemons until
    ``stop()``.  ``serve()`` is the blocking CLI entry point.
    """

    def __init__(
        self,
        root,
        *,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        token: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poll_s: float = DEFAULT_POLL_S,
        max_active: int = 4,
        tick_s: float = 0.1,
        clock: Callable[[], float] = time.time,
        task_fn: Callable = run_sweep_task,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if heartbeat_s <= 0 or heartbeat_s >= lease_ttl_s:
            raise ValueError("heartbeat_s must be positive and below lease_ttl_s")
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.root = pathlib.Path(root)
        self.token = token or None
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.tick_s = tick_s
        self.clock = clock
        self.task_fn = task_fn
        self.queue = JobQueue(self.root, clock=clock)
        #: Estimator-cache exchange hub shared by every job and worker.
        self.cache_dir = self.root / "cache"
        self.cache_dir.mkdir(parents=True, exist_ok=True)

        self._lock = threading.Lock()
        self._boards: dict[str, LeaseBoard] = {}
        self._prep_keys: dict[str, dict[int, Optional[str]]] = {}
        self._prepared_wire: dict[str, dict] = {}
        self._rr: list[str] = []  # round-robin order of running jobs
        self._workers: dict[str, dict] = {}
        self._worker_seq = 0
        self._lease_totals = {
            "granted": 0, "heartbeats": 0, "completed": 0, "failed": 0,
            "requeued": 0, "expired": 0, "revoked": 0, "duplicates": 0,
        }
        self._stopping = threading.Event()
        self._admission = threading.Semaphore(max_active)
        self._threads: list[threading.Thread] = []
        self._sink = None

        handler = type("BoundServiceHandler", (_ServiceHandler,),
                       {"coordinator": self})
        self.server = ThreadingHTTPServer(bind, handler)
        self.server.daemon_threads = True
        self._server_thread: Optional[threading.Thread] = None

    # ----------------------------------------------------------------- address
    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind, re-admit journalled jobs, return (everything is a daemon)."""
        if telemetry.enabled() and telemetry.sink() is None:
            from repro.telemetry import TELEMETRY_FILENAME, TelemetrySink

            # One root-level sidecar for the whole service; job attribution
            # rides on the boards' per-event ``job`` labels.
            self._sink = TelemetrySink(str(self.root / TELEMETRY_FILENAME),
                                       fresh=False, clock=self.clock)
            telemetry.set_sink(self._sink)
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="service-http",
        )
        self._server_thread.start()
        logger.info("service: coordinator listening on %s (root %s)",
                    self.url, self.root)
        for job in self.queue.jobs():
            if job.state == "queued":
                self._spawn(job)

    def stop(self, join_timeout_s: float = 5.0) -> None:
        """Hard stop: abandon running jobs (they resume on the next start)."""
        self._stopping.set()
        self.server.shutdown()
        if self._server_thread is not None:
            self._server_thread.join(timeout=join_timeout_s)
        self.server.server_close()
        for thread in self._threads:
            thread.join(timeout=join_timeout_s)
        if self._sink is not None:
            telemetry.set_sink(None)
            self._sink = None

    def serve(self, stop: Optional[threading.Event] = None) -> None:
        """Blocking variant for the CLI: run until interrupted."""
        self.start()
        try:
            while not self._stopping.is_set():
                if stop is not None and stop.is_set():
                    break
                time.sleep(0.2)
        finally:
            self.stop()

    # --------------------------------------------------------------- job driving
    def _spawn(self, job: Job) -> None:
        thread = threading.Thread(target=self._drive, args=(job,), daemon=True,
                                  name=f"service-job-{job.uid}")
        self._threads.append(thread)
        thread.start()

    def _drive(self, job: Job) -> None:
        """Run one job start-to-finish under the admission semaphore."""
        with self._admission:
            if self._stopping.is_set():
                return  # stays queued in the journal; next start resumes it
            if job.cancel.is_set():
                if job.state != "cancelled":
                    self.queue.set_state(job, "cancelled")
                return
            self.queue.set_state(job, "preparing")
            checkpoint = job.directory / CHECKPOINT_FILENAME
            resume = str(checkpoint) if checkpoint.exists() else None
            try:
                runner = job.spec.build_runner(
                    cache_dir=str(job.directory),
                    transport=_ServiceTransport(self, job),
                    resume_from=resume,
                    task_fn=self.task_fn,
                    clock=self.clock,
                )
                result = runner.run()
            except ServiceStopped:
                return  # no terminal record: replay requeues and resumes
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                logger.exception("service: job %s failed", job.uid)
                self.queue.set_state(job, "failed",
                                     error=f"{type(exc).__name__}: {exc}")
                return
            job.result = result
            if job.cancel.is_set():
                self.queue.set_state(job, "cancelled")
            elif result.failures:
                self.queue.set_state(
                    job, "failed",
                    error=f"{len(result.failures)} of {job.total_cells} cell(s) failed",
                )
            else:
                self.queue.set_state(job, "done")
            telemetry.event("service.job.settled", job=job.uid, state=job.state)

    def _attach(self, job: Job, board: LeaseBoard, prepared_by_key: Mapping,
                prep_keys: Mapping) -> None:
        with self._lock:
            self._boards[job.uid] = board
            self._prep_keys[job.uid] = dict(prep_keys)
            for key, artifact in prepared_by_key.items():
                if key not in self._prepared_wire:
                    self._prepared_wire[key] = prepared_to_wire(artifact)
            if job.uid not in self._rr:
                self._rr.append(job.uid)
        self.queue.set_state(job, "running")
        telemetry.event("service.job.attached", job=job.uid,
                        cells=board.counts()["cells"])

    def _detach(self, job: Job, board: LeaseBoard) -> None:
        # Read the board's counters before taking the service lock: board
        # locks are never acquired while the service lock is held.
        counters = board.metrics_counts()
        with self._lock:
            self._boards.pop(job.uid, None)
            self._prep_keys.pop(job.uid, None)
            if job.uid in self._rr:
                self._rr.remove(job.uid)
            for key, value in counters.items():
                self._lease_totals[key] = self._lease_totals.get(key, 0) + value

    # ------------------------------------------------------------ worker fleet
    def _touch_worker(self, worker_id: str) -> dict:
        """Update a worker's liveness, adopting ids from before a restart.

        A persistent service outlives any single coordinator process; a
        worker that registered with a previous incarnation keeps its id,
        so unknown ids are re-admitted instead of rejected.
        """
        now = time.monotonic()
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                info = {"name": f"reattached-{worker_id}", "last_seen": now,
                        "leased": 0, "completed": 0, "errors": 0, "busy_s": 0.0}
                self._workers[worker_id] = info
            info["last_seen"] = now
            return info

    def handle_register(self, payload: Mapping) -> dict:
        version = payload.get("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ShardProtocolError(
                f"worker speaks protocol v{version}, coordinator is v{PROTOCOL_VERSION}"
            )
        name = str(payload.get("name") or "worker")
        with self._lock:
            while True:
                self._worker_seq += 1
                worker_id = f"w{self._worker_seq}"
                if worker_id not in self._workers:
                    break
            self._workers[worker_id] = {
                "name": name, "last_seen": time.monotonic(),
                "leased": 0, "completed": 0, "errors": 0, "busy_s": 0.0,
            }
            grid_size = 0
        for board in self._running_boards().values():
            grid_size += board.counts()["cells"]
        logger.info("service: worker %s (%s) registered", worker_id, name)
        telemetry.event("service.worker.registered", worker=worker_id,
                        worker_name=name)
        return {
            "worker_id": worker_id,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "poll_s": self.poll_s,
            "grid_size": grid_size,
            "cache": True,
            "service": True,
        }

    def _running_boards(self) -> dict[str, LeaseBoard]:
        with self._lock:
            return {uid: self._boards[uid] for uid in list(self._rr)
                    if uid in self._boards}

    def handle_lease(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        slots = max(int(payload.get("slots", 1)), 0)
        known = {str(key) for key in payload.get("known_preps", [])}
        info = self._touch_worker(worker_id)
        with self._lock:
            order = list(self._rr)
            if order:
                # Rotate the round-robin cursor so successive lease calls
                # start with a different job even at one cell per call.
                self._rr.append(self._rr.pop(0))
            boards = {uid: self._boards[uid] for uid in order
                      if uid in self._boards}
        leased: list[tuple[str, object]] = []
        # Fair interleave *within* the call too: one cell per job per pass.
        progress = True
        while len(leased) < slots and progress:
            progress = False
            for job_uid in order:
                if len(leased) >= slots:
                    break
                board = boards.get(job_uid)
                if board is None:
                    continue
                board.adopt_worker(worker_id, info["name"])
                cells = board.lease(worker_id, 1)
                if cells:
                    leased.append((job_uid, cells[0]))
                    progress = True
        prepared: dict[str, dict] = {}
        wire_cells = []
        with self._lock:
            for job_uid, cell in leased:
                prep_key = self._prep_keys.get(job_uid, {}).get(cell.index)
                if prep_key is not None and prep_key not in known:
                    wire = self._prepared_wire.get(prep_key)
                    if wire is not None:
                        prepared[prep_key] = wire
                wire_cells.append({
                    "lease_id": cell.lease_id,
                    "uid": cell.task.uid,
                    "task": task_to_wire(cell.task),
                    "prep": prep_key,
                    "timeout_s": cell.timeout_s,
                    "job": job_uid,
                })
            if wire_cells:
                info["leased"] = info.get("leased", 0) + len(wire_cells)
        return {
            "cells": wire_cells,
            "prepared": prepared,
            # A persistent service is never "done": idle workers poll (or
            # exit on their own --idle-timeout-s), ready for the next job.
            "done": False,
            "retry_after_s": self.poll_s,
        }

    def handle_report(self, payload: Mapping) -> dict:
        worker_id, lease_id, uid, kwargs = parse_report(payload)
        info = self._touch_worker(worker_id)
        job_uid = payload.get("job")
        board = None
        boards = self._running_boards()
        if isinstance(job_uid, str) and job_uid:
            board = boards.get(job_uid)
        else:
            # Back-compat: a job-oblivious worker's report is routed by uid.
            board = next((b for b in boards.values() if b.has_cell(uid)), None)
        if board is None:
            # Cancelled / settled / unknown job: acknowledge without acting,
            # exactly like a duplicate — requeue suppression on cancel.
            return {"accepted": False, "reason": "unknown-job", "done": False}
        board.adopt_worker(worker_id, info["name"])
        accepted, reason = board.report(worker_id, lease_id, uid, **kwargs)
        if accepted:
            with self._lock:
                if "outcome" in kwargs:
                    info["completed"] = info.get("completed", 0) + 1
                    info["busy_s"] = info.get("busy_s", 0.0) + max(
                        float(kwargs.get("duration_s", 0.0)), 0.0)
                else:
                    info["errors"] = info.get("errors", 0) + 1
        return {"accepted": accepted, "reason": reason, "done": False}

    def handle_heartbeat(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        lease_ids = [str(l) for l in payload.get("lease_ids", [])]
        info = self._touch_worker(worker_id)
        boards = self._running_boards()
        by_job: dict[str, list[str]] = {}
        settled: list[str] = []
        revoked: list[str] = []
        for lease_id in lease_ids:
            job_uid, sep, _ = lease_id.rpartition(":")
            if sep and job_uid in boards:
                by_job.setdefault(job_uid, []).append(lease_id)
            elif self._job_settled(job_uid):
                settled.append(lease_id)
            else:
                revoked.append(lease_id)
        for job_uid, ids in by_job.items():
            board = boards[job_uid]
            board.adopt_worker(worker_id, info["name"])
            job_settled, job_revoked = board.heartbeat(worker_id, ids)
            settled.extend(job_settled)
            revoked.extend(job_revoked)
        with self._lock:
            self._lease_totals["heartbeats"] += 1
        return {"ok": True, "settled": settled, "revoked": revoked, "done": False}

    def _job_settled(self, job_uid: str) -> bool:
        """True when a job without a board finished its cells (not cancelled).

        A running job loses its board only once every cell settled (the
        board attaches when the job enters ``running``); a cancelled job, or
        one unknown since a restart, revoked its leases instead.
        """
        try:
            job = self.queue.get(job_uid)
        except KeyError:
            return False
        return not job.cancel.is_set() and job.state in ("running", "done", "failed")

    # ------------------------------------------------------------ cache routes
    def handle_cache_pull(self, payload: Mapping) -> dict:
        require(payload, "worker_id", str)
        from repro.sweep.disk_cache import read_cache_records

        namespaces = payload.get("namespaces")
        if namespaces is not None and not isinstance(namespaces, list):
            raise ShardProtocolError("'namespaces' must be a list when present")
        records = read_cache_records(self.cache_dir, namespaces=namespaces)
        return {"records": records, "count": len(records), "enabled": True}

    def handle_cache_push(self, payload: Mapping) -> dict:
        require(payload, "worker_id", str)
        records = require(payload, "records", list)
        from repro.sweep.disk_cache import append_cache_records

        accepted = append_cache_records(self.cache_dir, records, shard="pushed")
        if accepted:
            telemetry.event("service.cache.pushed", records=accepted)
        return {"accepted": accepted, "enabled": True}

    # -------------------------------------------------------------- job routes
    def _get_job(self, uid: str) -> Job:
        try:
            return self.queue.get(uid)
        except KeyError:
            raise ShardProtocolError(f"unknown job '{uid}'") from None

    def handle_job_submit(self, payload: Mapping) -> dict:
        if self._stopping.is_set():
            raise ShardProtocolError("service is shutting down")
        from repro.sweep.spec import SweepSpec

        spec_payload = payload.get("spec")
        if not isinstance(spec_payload, Mapping):
            raise ShardProtocolError("submit payload must carry a 'spec' object")
        try:
            spec = SweepSpec.from_payload(spec_payload)
        except ValueError as exc:
            raise ShardProtocolError(f"invalid job spec: {exc}") from None
        name = payload.get("name")
        job = self.queue.submit(spec, name=str(name) if name else None)
        telemetry.event("service.job.submitted", job=job.uid,
                        cells=job.total_cells)
        self._spawn(job)
        return {"job": job.uid, "name": job.name, "state": job.state,
                "cells": job.total_cells}

    def handle_jobs_list(self) -> dict:
        return {
            "version": PROTOCOL_VERSION,
            "service": True,
            "jobs": [self._job_summary(job) for job in self.queue.jobs()],
        }

    def handle_job_status(self, uid: str) -> dict:
        job = self._get_job(uid)
        summary = self._job_summary(job)
        detail: dict[str, dict] = {}
        for task in job.spec.build_tasks():
            detail[task.uid] = {"status": "pending", "attempts": 0, "worker": None}
        for cell_uid, kind in checkpoint_cells(job.directory / CHECKPOINT_FILENAME).items():
            entry = detail.get(cell_uid)
            if entry is not None:
                entry["status"] = "completed" if kind == "outcome" else "failed"
        board = self._running_boards().get(uid)
        failures: list[dict] = []
        if board is not None:
            for state in board.cell_states():
                entry = detail.get(state["uid"])
                if entry is None:
                    continue
                entry["attempts"] = state["attempts"]
                entry["worker"] = state["worker"]
                if state["status"] == "leased":
                    entry["status"] = "leased"
                elif state["status"] == "settled":
                    entry["status"] = "failed" if state["failed"] else "completed"
            failures = [f.as_dict() for _i, f in sorted(board.failures.items())]
        elif job.terminal:
            status = load_checkpoint(job.directory / CHECKPOINT_FILENAME)
            failures = [status.failures[u].as_dict() for u in sorted(status.failures)]
        summary["cells_detail"] = detail
        summary["failures"] = failures
        return summary

    def handle_job_result(self, uid: str) -> dict:
        job = self._get_job(uid)
        if not job.terminal:
            raise ShardProtocolError(
                f"job '{uid}' is {job.state}; the result is available once it settles"
            )
        result = job.result if job.result is not None else self._rebuild_result(job)
        return {"job": job.uid, "name": job.name, "state": job.state,
                "sweep": result.as_dict()}

    def handle_job_cancel(self, uid: str) -> dict:
        job = self._get_job(uid)
        if job.terminal:
            return {"job": job.uid, "state": job.state, "cancelled": False}
        job.cancel.set()
        if job.state == "queued":
            # Not yet admitted: settle immediately instead of waiting for
            # the driver thread to reach the semaphore.
            self.queue.set_state(job, "cancelled")
            final = "cancelled"
        else:
            # Running: the transport notices within a tick, detaches the
            # board (requeue suppression) and the driver records the state;
            # outstanding leases die with their next heartbeat.
            final = "cancelling"
        telemetry.event("service.job.cancelled", job=job.uid)
        return {"job": job.uid, "state": final, "cancelled": True}

    def _rebuild_result(self, job: Job) -> SweepResult:
        """Reconstruct a terminal job's result from its checkpoint.

        The in-memory result dies with the process that ran the job; the
        checkpoint carries every settled cell's full journal, so a result
        served after a restart is payload-identical where it matters
        (outcomes and failures) and zeroes the run-shape fields
        (wall time, worker count) that describe a run this process never
        performed.
        """
        status = load_checkpoint(job.directory / CHECKPOINT_FILENAME)
        order = {task.uid: i for i, task in enumerate(job.spec.build_tasks())}
        outcomes = [status.outcomes[u] for u in
                    sorted(status.outcomes, key=lambda u: order.get(u, len(order)))]
        failures = [status.failures[u] for u in
                    sorted(status.failures, key=lambda u: order.get(u, len(order)))]
        return SweepResult(
            outcomes=outcomes,
            workers=0,
            cache_dir=str(job.directory),
            failures=failures,
            reused=len(outcomes),
        )

    def _job_summary(self, job: Job) -> dict:
        summary = job.as_summary()
        board = self._running_boards().get(job.uid)
        if board is not None:
            counts = board.counts()
            # A resumed board only covers the unsettled cells; fold the
            # checkpointed ones back in so the counts describe the grid.
            reused = job.total_cells - counts["cells"]
            summary["counts"] = {
                "cells": job.total_cells,
                "pending": counts["pending"],
                "leased": counts["leased"],
                "settled": counts["settled"] + reused,
                "failed": counts["failed"],
                "workers": counts["workers"],
            }
        else:
            completed, failed, _corrupt = scan_checkpoint(
                job.directory / CHECKPOINT_FILENAME)
            summary["counts"] = {
                "cells": job.total_cells,
                "pending": max(job.total_cells - completed - failed, 0),
                "leased": 0,
                "settled": completed + failed,
                "failed": failed,
                "workers": 0,
            }
        return summary

    # ------------------------------------------------------------- dashboards
    def status(self) -> dict:
        states: dict[str, int] = {}
        for job in self.queue.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        aggregate = {"cells": 0, "pending": 0, "leased": 0, "settled": 0,
                     "failed": 0}
        for job in self.queue.jobs():
            counts = self._job_summary(job)["counts"]
            for key in aggregate:
                aggregate[key] += counts[key]
        with self._lock:
            workers = len(self._workers)
        return {
            "version": PROTOCOL_VERSION,
            "service": True,
            "jobs": states,
            "workers": workers,
            "done": all(job.terminal for job in self.queue.jobs()),
            **aggregate,
        }

    def metrics(self) -> dict:
        """`/v1/metrics`: aggregate + per-job counts, shaped like the one-shot
        coordinator's reply so ``shard status`` renders both, plus a
        ``jobs`` section the CLI turns into per-job blocks."""
        boards = self._running_boards()
        with self._lock:
            totals = dict(self._lease_totals)
        for board in boards.values():
            for key, value in board.metrics_counts().items():
                totals[key] = totals.get(key, 0) + value
        now = time.monotonic()
        with self._lock:
            workers = [
                {
                    "worker_id": worker_id,
                    "name": info["name"],
                    "leased": info.get("leased", 0),
                    "completed": info.get("completed", 0),
                    "errors": info.get("errors", 0),
                    "busy_s": round(info.get("busy_s", 0.0), 3),
                    "last_seen_s": round(max(now - info["last_seen"], 0.0), 3),
                }
                for worker_id, info in sorted(self._workers.items())
            ]
        summaries = [self._job_summary(job) for job in self.queue.jobs()]
        aggregate = {"cells": 0, "pending": 0, "leased": 0, "settled": 0,
                     "failed": 0}
        for summary in summaries:
            for key in aggregate:
                aggregate[key] += summary["counts"][key]
        aggregate["workers"] = len(workers)
        aggregate["done"] = all(s["state"] in ("done", "failed", "cancelled")
                                for s in summaries) if summaries else True
        snap = telemetry.snapshot()
        return {
            "version": PROTOCOL_VERSION,
            "service": True,
            "counts": aggregate,
            "lease_metrics": totals,
            "workers": workers,
            "jobs": summaries,
            "telemetry": snap.as_dict() if snap is not None else None,
        }
