"""Shard worker: pull leased cells from a coordinator and stream results back.

A worker is a thin loop around the *existing* single-cell execution path
(:func:`repro.sweep.runner.run_sweep_task`): register → lease → execute →
report, with a daemon heartbeat thread keeping the leases alive.  Nothing
about cell execution is distributed-specific — the worker rebuilds the
:class:`~repro.sweep.runner.PreparedTarget` shipped by the coordinator
(bit-exact JSON round trip) and calls the same function the local
schedules call, so a cell's journal is byte-identical no matter which
machine ran it.

``workers=1`` executes leased cells serially in-process (easiest to debug
and test; a custom ``task_fn`` need not be picklable).  ``workers > 1``
runs them on the same persistent :class:`~repro.sweep.pool.WorkerPool` a
local sweep uses — one shard worker per machine, one long-lived OS process
per slot, so each keeps its estimator statics and disk-cache memo warm
from cell to cell.  A pool process that dies is reported as an error for
its cell and replaced.

Failure handling is deliberately asymmetric: the *coordinator* owns all
retry/requeue policy.  A worker reports raw errors and keeps going; it
never retries a cell on its own (that would skew the coordinator's
bounded per-cell attempt accounting).  A worker that loses its
coordinator exits non-zero after bounded reconnect attempts — unless it
already observed ``done=True``, which is the normal shutdown path.

A worker may keep its own ``cache_dir`` for the persistent estimator
cache (per-machine, like any local sweep); journals do not depend on
cache warmth, so byte-identity across the fleet is unaffected.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Optional

from repro.shard.protocol import (
    PROTOCOL_VERSION,
    ShardProtocolError,
    outcome_to_wire,
    post_json,
    prepared_from_wire,
    task_from_wire,
)
import repro.telemetry as telemetry
from repro.sweep.pool import WorkerPool
from repro.sweep.runner import PreparedTarget, SweepOutcome, run_sweep_task
from repro.utils.logging import get_logger

logger = get_logger(__name__)


def execute_cell(task_fn, task, cache_dir, prepared) -> tuple[str, object, float]:
    """Run one leased cell; report ``(status, value, duration_s)`` either way.

    Module-level (and defaulting to the picklable
    :func:`~repro.sweep.runner.run_sweep_task`) so it ships into the
    worker's local process pool under any start method.
    """
    start = time.perf_counter()
    try:
        value = task_fn(task, cache_dir, prepared)
    except Exception as exc:  # noqa: BLE001 - reported to the coordinator
        return ("error", f"{type(exc).__name__}: {exc}", time.perf_counter() - start)
    status, value = _checked_result("ok", value)
    return (status, value, time.perf_counter() - start)


def _checked_result(status: str, value) -> tuple[str, object]:
    """Turn a non-outcome return value into an error report."""
    if status == "ok" and not isinstance(value, SweepOutcome):
        return "error", f"worker returned {type(value).__name__!s} instead of SweepOutcome"
    return status, value


class ShardWorker:
    """One worker process in a distributed sweep fleet."""

    def __init__(
        self,
        connect: str,
        *,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        name: Optional[str] = None,
        task_fn: Callable[..., SweepOutcome] = run_sweep_task,
        request_timeout_s: float = 30.0,
        max_connect_failures: int = 10,
        reconnect_delay_s: float = 0.5,
        token: Optional[str] = None,
        idle_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_connect_failures < 1:
            raise ValueError("max_connect_failures must be >= 1")
        if idle_timeout_s is not None and idle_timeout_s < 0:
            raise ValueError("idle_timeout_s must be >= 0")
        self.connect = connect.rstrip("/")
        if not self.connect.startswith(("http://", "https://")):
            self.connect = "http://" + self.connect
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.task_fn = task_fn
        self.request_timeout_s = request_timeout_s
        self.max_connect_failures = max_connect_failures
        self.reconnect_delay_s = reconnect_delay_s
        self.token = token or None
        # None keeps the one-shot contract (exit only on done); a number
        # makes an idle worker (no work in any job) back off and exit 0
        # after that many seconds without a lease — the multi-job default.
        self.idle_timeout_s = idle_timeout_s

        self.worker_id: Optional[str] = None
        self.heartbeat_s = 5.0
        self.poll_s = 0.5
        self.executed = 0
        self.reported_errors = 0
        self._prepared: dict[str, PreparedTarget] = {}
        self._lease_lock = threading.Lock()
        self._active_leases: set[str] = set()
        self._saw_done = threading.Event()
        self._stop = threading.Event()
        self._idle_since: Optional[float] = None
        self._idle_rounds = 0
        self._cache_sync = False
        self._cache_pushed: set[tuple[str, str]] = set()

    # ----------------------------------------------------------------- wire io
    def _post(self, path: str, payload: dict) -> dict:
        return post_json(self.connect, path, payload,
                         timeout_s=self.request_timeout_s, token=self.token)

    def _register(self) -> None:
        reply = self._post("/v1/register", {
            "name": self.name, "version": PROTOCOL_VERSION,
        })
        self.worker_id = str(reply["worker_id"])
        self.heartbeat_s = float(reply.get("heartbeat_s", self.heartbeat_s))
        self.poll_s = float(reply.get("poll_s", self.poll_s))
        logger.info("shard worker %s registered as %s at %s",
                    self.name, self.worker_id, self.connect)
        self._cache_sync = bool(reply.get("cache")) and self.cache_dir is not None
        if self._cache_sync:
            self._pull_cache()

    # --------------------------------------------------------------- cache sync
    def _pull_cache(self) -> None:
        """Warm-start: bulk-import the coordinator's estimator-cache records."""
        from repro.sweep.disk_cache import append_cache_records

        try:
            reply = self._post("/v1/cache/pull", {"worker_id": self.worker_id})
        except ShardProtocolError as exc:
            logger.warning("shard worker %s: cache pull failed: %s",
                           self.worker_id, exc)
            return
        records = [r for r in (reply.get("records") or []) if isinstance(r, dict)]
        for record in records:
            namespace, key = record.get("namespace"), record.get("key")
            if isinstance(namespace, str) and isinstance(key, str):
                # The coordinator already holds these; never push them back.
                self._cache_pushed.add((namespace, key))
        if not records:
            return
        added = append_cache_records(self.cache_dir, records,
                                     shard=f"pulled-{self.worker_id}")
        if added:
            logger.info("shard worker %s: warm-started %d cached estimate(s)",
                        self.worker_id, added)
            telemetry.event("shard.cache.pulled", records=added)

    def _push_cache(self) -> None:
        """Ship locally-computed estimates the coordinator has not seen yet."""
        if not self._cache_sync:
            return
        from repro.sweep.disk_cache import read_cache_records

        fresh = [
            record for record in read_cache_records(self.cache_dir)
            if (record["namespace"], record["key"]) not in self._cache_pushed
        ]
        if not fresh:
            return
        try:
            self._post("/v1/cache/push",
                       {"worker_id": self.worker_id, "records": fresh})
        except ShardProtocolError as exc:
            logger.debug("shard worker %s: cache push failed: %s",
                         self.worker_id, exc)
            return
        self._cache_pushed.update(
            (record["namespace"], record["key"]) for record in fresh
        )

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            with self._lease_lock:
                leases = sorted(self._active_leases)
            try:
                reply = self._post("/v1/heartbeat", {
                    "worker_id": self.worker_id, "lease_ids": leases,
                })
            except ShardProtocolError:
                continue  # transient; the main loop handles a dead coordinator
            self._on_heartbeat(reply)

    def _on_heartbeat(self, reply: dict) -> None:
        """Act on a heartbeat reply; warn only about real revocations.

        A heartbeat snapshots the active leases before sending, so a lease
        whose report lands first comes back ``settled`` — the normal race
        of a healthy run, not worth a word.
        """
        if reply.get("done"):
            self._saw_done.set()
        revoked = reply.get("revoked") or []
        if revoked:
            logger.warning(
                "shard worker %s: coordinator revoked lease(s) %s "
                "(results will be reported anyway and deduplicated)",
                self.worker_id, ", ".join(map(str, revoked)),
            )

    def _lease(self, slots: int) -> dict:
        reply = self._post("/v1/lease", {
            "worker_id": self.worker_id,
            "slots": slots,
            "known_preps": sorted(self._prepared),
        })
        for key, wire in (reply.get("prepared") or {}).items():
            if key not in self._prepared:
                self._prepared[key] = prepared_from_wire(wire)
        if reply.get("done"):
            self._saw_done.set()
        return reply

    def _report(self, lease_id: str, uid: str, status: str, value,
                duration_s: float, job: Optional[str] = None) -> None:
        payload = {
            "worker_id": self.worker_id,
            "lease_id": lease_id,
            "uid": uid,
            "status": status,
            "duration_s": duration_s,
        }
        if job is not None:
            payload["job"] = job
        if status == "ok":
            payload["outcome"] = outcome_to_wire(value)
        else:
            payload["error"] = str(value)
            self.reported_errors += 1
        reply = self._post("/v1/report", payload)
        if reply.get("done"):
            self._saw_done.set()
        if not reply.get("accepted"):
            logger.info("shard worker %s: report for %s dropped (%s)",
                        self.worker_id, uid, reply.get("reason"))
        with self._lease_lock:
            self._active_leases.discard(lease_id)
        self._push_cache()

    # ------------------------------------------------------------------- main
    def run(self) -> int:
        """Work until the coordinator reports the grid done.

        Returns a process exit code: 0 after a clean ``done`` shutdown,
        1 when the coordinator became unreachable mid-run.
        """
        failures = 0
        while True:
            try:
                self._register()
                break
            except ShardProtocolError as exc:
                failures += 1
                if failures >= self.max_connect_failures:
                    logger.error("shard worker %s: cannot reach coordinator: %s",
                                 self.name, exc)
                    return 1
                time.sleep(self.reconnect_delay_s)

        heartbeat = threading.Thread(target=self._heartbeat_loop, daemon=True)
        heartbeat.start()
        try:
            if self.workers == 1:
                return self._run_serial()
            return self._run_pooled()
        finally:
            self._stop.set()
            heartbeat.join(timeout=2.0)

    def _checked(self, call: Callable[[], dict]) -> Optional[dict]:
        """One coordinator round trip with bounded-failure accounting."""
        failures = 0
        while True:
            try:
                return call()
            except ShardProtocolError as exc:
                if self._saw_done.is_set():
                    return None  # grid finished; the socket is simply gone
                failures += 1
                if failures >= self.max_connect_failures:
                    logger.error("shard worker %s: lost the coordinator: %s",
                                 self.worker_id or self.name, exc)
                    raise
                time.sleep(self.reconnect_delay_s)

    def _idle_pause(self, reply: dict) -> bool:
        """Backoff sleep between empty leases; True once the idle budget is spent.

        One-shot grids never get here with ``done`` unset for long, so the
        default (``idle_timeout_s=None``) polls forever — the coordinator's
        ``done`` reply is the shutdown signal.  Against a persistent
        multi-job service, "no work in any job" is an ordinary steady
        state: the worker backs off exponentially (bounded) and only exits
        0 when a configured idle timeout elapses with no lease granted.
        """
        now = time.monotonic()
        if self._idle_since is None:
            self._idle_since = now
        elif self.idle_timeout_s is not None \
                and now - self._idle_since >= self.idle_timeout_s:
            logger.info("shard worker %s: no work for %.1fs; exiting on idle timeout",
                        self.worker_id, now - self._idle_since)
            return True
        base = max(float(reply.get("retry_after_s", self.poll_s)), 0.05)
        delay = min(base * (2.0 ** self._idle_rounds), max(base, 2.0))
        self._idle_rounds += 1
        if self.idle_timeout_s is not None:
            remaining = self.idle_timeout_s - (time.monotonic() - self._idle_since)
            delay = min(delay, max(remaining, 0.05))
        time.sleep(delay)
        return False

    def _note_work(self) -> None:
        self._idle_since = None
        self._idle_rounds = 0

    def _run_serial(self) -> int:
        try:
            while True:
                reply = self._checked(lambda: self._lease(1))
                if reply is None:
                    return 0
                cells = reply.get("cells") or []
                if not cells:
                    if reply.get("done"):
                        return 0
                    if self._idle_pause(reply):
                        return 0
                    continue
                self._note_work()
                for cell in cells:
                    lease_id = str(cell["lease_id"])
                    uid = str(cell["uid"])
                    job = cell.get("job")
                    with self._lease_lock:
                        self._active_leases.add(lease_id)
                    task = task_from_wire(cell["task"])
                    prepared = self._prepared.get(cell.get("prep") or "")
                    status, value, duration = execute_cell(
                        self.task_fn, task, self.cache_dir, prepared)
                    self.executed += 1
                    if self._checked(
                        lambda lid=lease_id, u=uid, s=status, v=value, d=duration,
                        j=job: self._report(lid, u, s, v, d, j) or {}
                    ) is None:
                        return 0
        except ShardProtocolError:
            return 1

    def _run_pooled(self) -> int:
        in_flight: dict[str, tuple[str, Optional[str]]] = {}  # lease -> (uid, job)
        try:
            with WorkerPool(self.task_fn, self.workers) as pool:
                while True:
                    if pool.free:
                        reply = self._checked(lambda: self._lease(pool.free))
                        if reply is None:
                            return 0
                        cells = reply.get("cells") or []
                        for cell in cells:
                            lease_id = str(cell["lease_id"])
                            with self._lease_lock:
                                self._active_leases.add(lease_id)
                            task = task_from_wire(cell["task"])
                            prepared = self._prepared.get(cell.get("prep") or "")
                            pool.submit(lease_id, "cell", task, self.cache_dir, prepared)
                            in_flight[lease_id] = (str(cell["uid"]), cell.get("job"))
                        if cells:
                            self._note_work()
                        elif not in_flight:
                            if reply.get("done"):
                                return 0
                            if self._idle_pause(reply):
                                return 0
                            continue
                    # Bounded wait so freed slots keep leasing while slow
                    # cells are still running.
                    for lease_id, status, value, duration, metrics in pool.wait(0.5):
                        uid, job = in_flight.pop(lease_id)
                        telemetry.merge(metrics)
                        status, value = _checked_result(
                            "error" if status == "crash" else status, value)
                        self.executed += 1
                        if self._checked(
                            lambda lid=lease_id, u=uid, s=status, v=value,
                            d=duration, j=job: self._report(lid, u, s, v, d, j) or {}
                        ) is None:
                            return 0
        except ShardProtocolError:
            return 1
