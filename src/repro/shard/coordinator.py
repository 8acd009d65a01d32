"""Lease-based shard coordinator: owns the grid, leases cells to workers.

The coordinator is the *only* writer of sweep state.  It owns the task
grid, hands cells out as bounded-lifetime **leases**, collects streamed
:class:`~repro.sweep.runner.SweepOutcome` / ``SweepFailure`` records, and
settles each cell exactly once — the settle callbacks append to the very
same fsynced ``_checkpoint.jsonl`` the single-machine sweep writes, so a
distributed run is checkpointed, resumable and comparable with the
existing tooling, byte for byte.

Fault model
-----------
* **Dead worker** — heartbeats stop, the lease's ``expires_at`` passes,
  the cell is requeued (its attempt already counted).  Reassignment per
  cell is bounded by the runner's ``retries`` budget; a cell whose every
  assignment dies becomes a structured ``SweepFailure(kind="crash")``.
* **Stalled cell** — heartbeats keep arriving but the cell exceeds its
  effective per-cell timeout (the PR-4 cost-hint-scaled deadline); the
  lease is revoked and the cell requeued / failed as ``kind="timeout"``.
* **Duplicate completion** — a revoked lease's worker may still finish
  and report.  Settlement is keyed by task uid and **first record wins**;
  later reports are acknowledged but dropped, so reassignment can never
  double-settle a cell.  (Journals are deterministic per task, so any
  duplicate is byte-identical anyway — the dedup keeps the accounting
  single-valued.)
* **Retry pacing** — a requeued cell re-enters the queue after the
  runner's deterministic exponential backoff, exactly like the local
  worker pool.

Ordering is the runner's longest-expected-first cost order: the lease
queue is primed with the cost-sorted indices, so remote fleets see the
same dispatch policy as local pools.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.shard.protocol import (
    AUTH_HEADER,
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_POLL_S,
    PROTOCOL_VERSION,
    ShardProtocolError,
    outcome_from_wire,
    prepared_to_wire,
    require,
    task_to_wire,
    token_matches,
)
import repro.telemetry as telemetry
from repro.sweep.runner import PreparedTarget, SweepFailure, SweepOutcome, SweepTask
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.runner import SweepRunner

logger = get_logger(__name__)


class _Cell:
    """Coordinator-side state of one grid cell."""

    __slots__ = (
        "index", "task", "attempts", "spent_s", "ready_at", "lease_id",
        "worker_id", "lease_started", "expires_at", "deadline_at",
        "timeout_s", "issued_leases", "status",
    )

    def __init__(self, index: int, task: SweepTask, timeout_s: Optional[float]) -> None:
        self.index = index
        self.task = task
        self.attempts = 0
        self.spent_s = 0.0
        self.ready_at = 0.0
        self.lease_id: Optional[str] = None
        self.worker_id: Optional[str] = None
        self.lease_started = 0.0
        self.expires_at = 0.0
        self.deadline_at: Optional[float] = None
        self.timeout_s = timeout_s
        self.issued_leases: set[str] = set()
        self.status = "pending"  # pending | leased | settled


class LeaseBoard:
    """Thread-safe lease-based work queue over (part of) a sweep grid.

    Pure in-memory state machine, independent of HTTP: the coordinator's
    request handlers and the tests drive it directly.  ``on_outcome`` /
    ``on_failure`` fire exactly once per cell, in the handler thread that
    settled it (the checkpoint writer behind them is thread-safe).
    """

    def __init__(
        self,
        tasks: Mapping[int, SweepTask],
        order: list[int],
        *,
        retries: int = 1,
        backoff: Callable[[int], float] = lambda attempts: 0.0,
        timeouts: Optional[Mapping[int, Optional[float]]] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        on_outcome: Optional[Callable[[int, SweepOutcome], None]] = None,
        on_failure: Optional[Callable[[int, SweepFailure], None]] = None,
        lease_prefix: str = "l",
        job: Optional[str] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.backoff = backoff
        self.lease_ttl_s = lease_ttl_s
        self.on_outcome = on_outcome
        self.on_failure = on_failure
        # Multi-board deployments (the job service) namespace lease ids with
        # a per-board prefix and label telemetry with the owning job uid.
        self.lease_prefix = lease_prefix
        self.job = job
        self._lock = threading.Lock()
        self._cells: dict[int, _Cell] = {
            index: _Cell(index, tasks[index],
                         (timeouts or {}).get(index))
            for index in order
        }
        self._by_uid: dict[str, int] = {
            cell.task.uid: index for index, cell in self._cells.items()
        }
        self._queue: list[int] = list(order)
        #: Leases whose worker reported back (heartbeats call them settled).
        self._reported: set[str] = set()
        self._lease_seq = 0
        self._workers: dict[str, dict] = {}
        self._worker_seq = 0
        self.outcomes: dict[int, SweepOutcome] = {}
        self.failures: dict[int, SweepFailure] = {}
        # Lease-lifecycle counters, always on (they are a handful of integer
        # adds under the lock the handlers hold anyway): `/v1/metrics` and
        # `repro-codesign shard status` must work without --telemetry.
        self.metrics: dict[str, int] = {
            "granted": 0, "heartbeats": 0, "completed": 0, "failed": 0,
            "requeued": 0, "expired": 0, "revoked": 0, "duplicates": 0,
        }

    # ---------------------------------------------------------------- helpers
    @property
    def done(self) -> bool:
        with self._lock:
            return not self._queue and all(
                cell.status == "settled" for cell in self._cells.values()
            )

    def counts(self) -> dict:
        with self._lock:
            status = {"pending": 0, "leased": 0, "settled": 0}
            for cell in self._cells.values():
                status[cell.status] += 1
            return {
                "cells": len(self._cells),
                "pending": status["pending"],
                "leased": status["leased"],
                "settled": status["settled"],
                "failed": len(self.failures),
                "workers": len(self._workers),
                "done": status["settled"] == len(self._cells),
            }

    # ----------------------------------------------------------- introspection
    def metrics_counts(self) -> dict:
        """Copy of the always-on lease-lifecycle counters."""
        with self._lock:
            return dict(self.metrics)

    def cell_states(self) -> list[dict]:
        """Per-cell progress (uid, status, attempts, worker) in grid order."""
        with self._lock:
            return [
                {
                    "uid": cell.task.uid,
                    "status": cell.status,
                    "attempts": cell.attempts,
                    "worker": cell.worker_id,
                    "failed": cell.index in self.failures,
                }
                for cell in sorted(self._cells.values(), key=lambda c: c.index)
            ]

    def has_cell(self, uid: str) -> bool:
        with self._lock:
            return uid in self._by_uid

    def worker_stats(self) -> list[dict]:
        """Per-worker accounting for `/v1/metrics` and `shard status`."""
        now = time.monotonic()
        with self._lock:
            return [
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

    # --------------------------------------------------------------- protocol
    def register(self, name: str) -> str:
        with self._lock:
            self._worker_seq += 1
            worker_id = f"w{self._worker_seq}"
            self._workers[worker_id] = {
                "name": name, "last_seen": time.monotonic(),
                "leased": 0, "completed": 0, "errors": 0, "busy_s": 0.0,
            }
            logger.info("shard: worker %s (%s) registered", worker_id, name)
        telemetry.event("shard.worker.registered", worker=worker_id,
                        worker_name=name, **self._job_tag())
        return worker_id

    def adopt_worker(self, worker_id: str, name: str = "worker") -> None:
        """Insert an externally-issued worker id (idempotent).

        The multi-job service registers each worker once at the service
        level and adopts it into every job board it touches, so lease /
        report / heartbeat accounting still works per board without the
        worker re-registering per job.
        """
        with self._lock:
            if worker_id not in self._workers:
                self._workers[worker_id] = {
                    "name": name, "last_seen": time.monotonic(),
                    "leased": 0, "completed": 0, "errors": 0, "busy_s": 0.0,
                }

    def lease(self, worker_id: str, slots: int) -> list[_Cell]:
        """Lease up to ``slots`` ready cells to ``worker_id``."""
        now = time.monotonic()
        self._expire_locked_leases(now)
        leased: list[_Cell] = []
        with self._lock:
            self._touch(worker_id, now)
            while len(leased) < max(slots, 0):
                position = next(
                    (p for p, index in enumerate(self._queue)
                     if self._cells[index].ready_at <= now),
                    None,
                )
                if position is None:
                    break
                index = self._queue.pop(position)
                cell = self._cells[index]
                self._lease_seq += 1
                cell.lease_id = f"{self.lease_prefix}{self._lease_seq}"
                cell.issued_leases.add(cell.lease_id)
                cell.worker_id = worker_id
                cell.attempts += 1
                cell.lease_started = now
                cell.expires_at = now + self.lease_ttl_s
                cell.deadline_at = (
                    now + cell.timeout_s if cell.timeout_s is not None else None
                )
                cell.status = "leased"
                self.metrics["granted"] += 1
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker["leased"] = worker.get("leased", 0) + 1
                leased.append(cell)
        # Telemetry events fire outside the lock: the sink fsyncs per record,
        # and handler threads must never block each other on disk.
        for cell in leased:
            telemetry.event(
                "shard.lease.granted", uid=cell.task.uid, worker=worker_id,
                lease=cell.lease_id, attempt=cell.attempts, **self._job_tag(),
            )
        return leased

    def heartbeat(self, worker_id: str, lease_ids: list[str]) -> tuple[list[str], list[str]]:
        """Extend the worker's live leases; return ``(settled, revoked)`` ids.

        A lease the worker no longer holds is *settled* when a report for
        it arrived — the heartbeat snapshotted the worker's leases just
        before its report landed — and *revoked* otherwise (expired or past
        its deadline and taken back, or never issued by this board).
        """
        now = time.monotonic()
        self._expire_locked_leases(now)
        settled: list[str] = []
        revoked: list[str] = []
        with self._lock:
            self._touch(worker_id, now)
            self.metrics["heartbeats"] += 1
            live = {
                cell.lease_id: cell
                for cell in self._cells.values()
                if cell.status == "leased" and cell.worker_id == worker_id
            }
            for lease_id in lease_ids:
                cell = live.get(lease_id)
                if cell is not None:
                    cell.expires_at = now + self.lease_ttl_s
                elif lease_id in self._reported:
                    settled.append(lease_id)
                else:
                    revoked.append(lease_id)
        return settled, revoked

    def report(
        self,
        worker_id: str,
        lease_id: str,
        uid: str,
        *,
        outcome: Optional[SweepOutcome] = None,
        error: Optional[str] = None,
        duration_s: float = 0.0,
    ) -> tuple[bool, str]:
        """Settle (or requeue) one reported cell; returns ``(accepted, reason)``.

        A successful report is matched by uid, not by live lease: a worker
        whose lease expired during a network hiccup may still deliver a
        valid result, and dropping it would waste the work.  A cell
        settled this way while sitting requeued is pulled back out of the
        queue, so it can never be leased — let alone settled — twice.

        *Error* reports, by contrast, only count against the cell's
        **current** lease: once the expiry reaper requeued (or another
        worker re-leased) the cell, that attempt's failure has already
        been accounted for, and acting on the stale report again would
        double-requeue the cell or fail a cell another worker is busy
        completing.  Only reports whose lease id was never issued for the
        cell are rejected outright.
        """
        settle_outcome: Optional[tuple[int, SweepOutcome]] = None
        settle_failure: Optional[tuple[int, SweepFailure]] = None
        events: list[tuple[str, dict]] = []
        now = time.monotonic()
        with self._lock:
            self._touch(worker_id, now)
            index = self._by_uid.get(uid)
            if index is None:
                return (False, "unknown-cell")
            cell = self._cells[index]
            if lease_id not in cell.issued_leases:
                return (False, "unknown-lease")
            self._reported.add(lease_id)
            if cell.status == "settled":
                self.metrics["duplicates"] += 1
                return (False, "duplicate")
            cell.spent_s += max(float(duration_s), 0.0)
            worker = self._workers.get(worker_id)
            if outcome is not None:
                outcome.attempts = cell.attempts
                if cell.status == "pending" and index in self._queue:
                    self._queue.remove(index)
                cell.status = "settled"
                cell.lease_id = None
                cell.worker_id = None
                self.outcomes[index] = outcome
                settle_outcome = (index, outcome)
                self.metrics["completed"] += 1
                if worker is not None:
                    worker["completed"] = worker.get("completed", 0) + 1
                    worker["busy_s"] = worker.get("busy_s", 0.0) + max(float(duration_s), 0.0)
                events.append(("shard.cell.completed", {
                    "uid": uid, "worker": worker_id,
                    "duration_s": round(max(float(duration_s), 0.0), 6),
                    **self._job_tag(),
                }))
            else:
                if cell.status != "leased" or lease_id != cell.lease_id:
                    # The reaper already requeued this attempt (or another
                    # worker holds the cell now); the stale failure must
                    # not be charged a second time.
                    return (False, "stale-lease")
                if worker is not None:
                    worker["errors"] = worker.get("errors", 0) + 1
                verdict = ("error", error or "worker reported an unspecified error")
                settled = self._requeue_or_fail(cell, verdict, now)
                if settled is not None:
                    settle_failure = (index, settled)
        # Callbacks and telemetry events run outside the lock: they fsync.
        if settle_outcome is not None and self.on_outcome is not None:
            self.on_outcome(*settle_outcome)
        if settle_failure is not None and self.on_failure is not None:
            self.on_failure(*settle_failure)
        for name, attrs in events:
            telemetry.event(name, **attrs)
        return (True, "settled" if settle_outcome or settle_failure else "requeued")

    def expire_leases(self) -> int:
        """Requeue (or fail) every lease that is past its TTL or deadline."""
        return self._expire_locked_leases(time.monotonic())

    # --------------------------------------------------------------- internal
    def _job_tag(self) -> dict:
        """Job label merged into telemetry events (empty for one-shot grids)."""
        return {"job": self.job} if self.job is not None else {}

    def _touch(self, worker_id: str, now: float) -> None:
        worker = self._workers.get(worker_id)
        if worker is None:
            raise ShardProtocolError(f"unknown worker id '{worker_id}'")
        worker["last_seen"] = now

    def _requeue_or_fail(
        self, cell: _Cell, verdict: tuple[str, str], now: float
    ) -> Optional[SweepFailure]:
        """Called with the lock held; returns the failure when it settles."""
        cell.lease_id = None
        cell.worker_id = None
        if cell.attempts <= self.retries:
            logger.warning(
                "shard: cell %s attempt %d failed (%s); requeueing",
                cell.task.name, cell.attempts, verdict[1],
            )
            cell.ready_at = now + self.backoff(cell.attempts)
            cell.status = "pending"
            self._queue.append(cell.index)
            self.metrics["requeued"] += 1
            return None
        failure = SweepFailure(
            task=cell.task, kind=verdict[0], error=verdict[1],
            attempts=cell.attempts, duration_s=cell.spent_s,
        )
        cell.status = "settled"
        self.failures[cell.index] = failure
        self.metrics["failed"] += 1
        return failure

    def _expire_locked_leases(self, now: float) -> int:
        settled: list[tuple[int, SweepFailure]] = []
        events: list[tuple[str, dict]] = []
        expired = 0
        with self._lock:
            for cell in self._cells.values():
                if cell.status != "leased":
                    continue
                if cell.deadline_at is not None and now > cell.deadline_at:
                    cell.spent_s += now - cell.lease_started
                    verdict = (
                        "timeout",
                        f"exceeded the {cell.timeout_s:g}s per-cell timeout "
                        f"on worker {cell.worker_id}",
                    )
                    self.metrics["revoked"] += 1
                    events.append(("shard.lease.revoked", {
                        "uid": cell.task.uid, "worker": cell.worker_id,
                        "lease": cell.lease_id, **self._job_tag(),
                    }))
                elif now > cell.expires_at:
                    cell.spent_s += now - cell.lease_started
                    verdict = (
                        "crash",
                        f"worker {cell.worker_id} stopped heartbeating "
                        f"(lease expired after {self.lease_ttl_s:g}s)",
                    )
                    self.metrics["expired"] += 1
                    events.append(("shard.lease.expired", {
                        "uid": cell.task.uid, "worker": cell.worker_id,
                        "lease": cell.lease_id, **self._job_tag(),
                    }))
                else:
                    continue
                expired += 1
                failure = self._requeue_or_fail(cell, verdict, now)
                if failure is not None:
                    settled.append((cell.index, failure))
        for index, failure in settled:
            if self.on_failure is not None:
                self.on_failure(index, failure)
        for name, attrs in events:
            telemetry.event(name, **attrs)
        return expired


def parse_report(payload: Mapping) -> tuple[str, str, str, dict]:
    """Validate one ``/v1/report`` body into ``LeaseBoard.report`` arguments.

    Returns ``(worker_id, lease_id, uid, kwargs)`` where ``kwargs`` carries
    either a parsed ``outcome`` or an ``error`` string plus ``duration_s``.
    Shared by the one-shot coordinator and the multi-job service so both
    enforce identical wire validation.
    """
    worker_id = require(payload, "worker_id", str)
    lease_id = require(payload, "lease_id", str)
    uid = require(payload, "uid", str)
    status = require(payload, "status", str)
    duration_s = float(payload.get("duration_s", 0.0))
    if status == "ok":
        wire = require(payload, "outcome", dict)
        try:
            outcome = outcome_from_wire(wire)
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardProtocolError(f"malformed outcome payload: {exc}") from exc
        if outcome.task.uid != uid:
            raise ShardProtocolError(
                f"outcome uid '{outcome.task.uid}' does not match report uid '{uid}'"
            )
        return worker_id, lease_id, uid, {"outcome": outcome, "duration_s": duration_s}
    if status == "error":
        error = str(payload.get("error") or "unspecified worker error")
        return worker_id, lease_id, uid, {"error": error, "duration_s": duration_s}
    raise ShardProtocolError(f"unknown report status '{status}'")


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """One HTTP request against the coordinator's lease board."""

    # Set by ShardCoordinator when the server is built.
    coordinator: "ShardCoordinator"

    server_version = "repro-shard"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("shard http: " + format, *args)

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShardProtocolError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ShardProtocolError("request body must be a JSON object")
        return payload

    def _authorized(self) -> bool:
        """Shared-secret gate for mutating routes; replies 401 on failure."""
        expected = getattr(self.coordinator, "token", None)
        if token_matches(expected, self.headers.get(AUTH_HEADER)):
            return True
        self._reply({"error": f"missing or invalid {AUTH_HEADER} header"},
                    status=401)
        return False

    # Route tables — subclasses (the service coordinator's handler) extend
    # these; a ``None`` return means "no such route" and yields a 404.
    def _handle_get(self, route: str) -> Optional[dict]:
        if route == "/v1/status":
            return self.coordinator.status()
        if route == "/v1/metrics":
            return self.coordinator.metrics()
        return None

    def _handle_post(self, route: str, payload: dict) -> Optional[dict]:
        if route == "/v1/register":
            return self.coordinator.handle_register(payload)
        if route == "/v1/lease":
            return self.coordinator.handle_lease(payload)
        if route == "/v1/report":
            return self.coordinator.handle_report(payload)
        if route == "/v1/heartbeat":
            return self.coordinator.handle_heartbeat(payload)
        if route == "/v1/cache/pull":
            return self.coordinator.handle_cache_pull(payload)
        if route == "/v1/cache/push":
            return self.coordinator.handle_cache_push(payload)
        return None

    def _handle_delete(self, route: str) -> Optional[dict]:
        return None

    def _dispatch(self, handler: Callable[[], Optional[dict]]) -> None:
        try:
            reply = handler()
            if reply is None:
                self._reply({"error": f"unknown endpoint {self.path}"}, status=404)
            else:
                self._reply(reply)
        except ShardProtocolError as exc:
            self._reply({"error": str(exc)}, status=400)
        except Exception as exc:  # noqa: BLE001 - one bad request must not kill the server
            logger.exception("shard: unhandled error serving %s", self.path)
            self._reply({"error": f"{type(exc).__name__}: {exc}"}, status=500)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(lambda: self._handle_get(self.path.rstrip("/")))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            return
        self._dispatch(lambda: self._handle_post(self.path.rstrip("/"),
                                                 self._read_body()))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            return
        self._dispatch(lambda: self._handle_delete(self.path.rstrip("/")))


class ShardCoordinator:
    """HTTP front-end over a :class:`LeaseBoard` plus the shipped artifacts.

    Constructed per run by :class:`repro.shard.CoordinatorTransport` (or
    directly in tests).  ``serve_until_done`` owns the listening socket;
    lease expiry is evaluated on a fixed tick *and* lazily on every lease
    / heartbeat, so a fleet of busy workers cannot starve the reaper.
    """

    def __init__(
        self,
        board: LeaseBoard,
        prepared: Mapping[str, PreparedTarget],
        prep_keys: Mapping[int, Optional[str]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poll_s: float = DEFAULT_POLL_S,
        token: Optional[str] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.board = board
        self.prepared = dict(prepared)
        self.prep_keys = dict(prep_keys)
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.token = token or None
        # Estimator-cache exchange hub: workers pull this directory's records
        # in bulk after registering and push back what they compute.
        self.cache_dir = cache_dir
        self._prepared_wire = {
            key: prepared_to_wire(artifact) for key, artifact in self.prepared.items()
        }
        handler = type("BoundCoordinatorHandler", (_CoordinatorHandler,),
                       {"coordinator": self})
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True

    # ---------------------------------------------------------------- address
    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # --------------------------------------------------------------- handlers
    def status(self) -> dict:
        counts = self.board.counts()
        counts["version"] = PROTOCOL_VERSION
        return counts

    def metrics(self) -> dict:
        """`/v1/metrics`: lease counters, per-worker stats, telemetry snapshot.

        The lease counters and worker stats are always on; the ``telemetry``
        key is ``None`` unless the coordinator process runs with telemetry
        enabled (``--telemetry`` / ``REPRO_TELEMETRY=1``).
        """
        snap = telemetry.snapshot()
        return {
            "version": PROTOCOL_VERSION,
            "counts": self.board.counts(),
            "lease_metrics": self.board.metrics_counts(),
            "workers": self.board.worker_stats(),
            "telemetry": snap.as_dict() if snap is not None else None,
        }

    def handle_register(self, payload: Mapping) -> dict:
        version = payload.get("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ShardProtocolError(
                f"worker speaks protocol v{version}, coordinator is v{PROTOCOL_VERSION}"
            )
        name = str(payload.get("name") or "worker")
        return {
            "worker_id": self.board.register(name),
            "lease_ttl_s": self.board.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "poll_s": self.poll_s,
            "grid_size": self.board.counts()["cells"],
            "cache": self.cache_dir is not None,
        }

    def handle_lease(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        slots = int(payload.get("slots", 1))
        known = {str(key) for key in payload.get("known_preps", [])}
        cells = self.board.lease(worker_id, slots)
        prepared: dict[str, dict] = {}
        wire_cells = []
        for cell in cells:
            prep_key = self.prep_keys.get(cell.index)
            if prep_key is not None and prep_key not in known:
                prepared[prep_key] = self._prepared_wire[prep_key]
            wire_cells.append({
                "lease_id": cell.lease_id,
                "uid": cell.task.uid,
                "task": task_to_wire(cell.task),
                "prep": prep_key,
                "timeout_s": cell.timeout_s,
                "job": self.board.job,
            })
        return {
            "cells": wire_cells,
            "prepared": prepared,
            "done": self.board.done,
            "retry_after_s": self.poll_s,
        }

    def handle_report(self, payload: Mapping) -> dict:
        worker_id, lease_id, uid, kwargs = parse_report(payload)
        accepted, reason = self.board.report(worker_id, lease_id, uid, **kwargs)
        return {"accepted": accepted, "reason": reason, "done": self.board.done}

    def handle_heartbeat(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        lease_ids = [str(l) for l in payload.get("lease_ids", [])]
        settled, revoked = self.board.heartbeat(worker_id, lease_ids)
        return {"ok": True, "settled": settled, "revoked": revoked,
                "done": self.board.done}

    # ------------------------------------------------------------ cache sync
    def handle_cache_pull(self, payload: Mapping) -> dict:
        """Bulk ``DiskEvaluationCache`` export so fresh workers warm-start."""
        require(payload, "worker_id", str)
        if self.cache_dir is None:
            return {"records": [], "count": 0, "enabled": False}
        from repro.sweep.disk_cache import read_cache_records

        namespaces = payload.get("namespaces")
        if namespaces is not None and not isinstance(namespaces, list):
            raise ShardProtocolError("'namespaces' must be a list when present")
        records = read_cache_records(self.cache_dir, namespaces=namespaces)
        return {"records": records, "count": len(records), "enabled": True}

    def handle_cache_push(self, payload: Mapping) -> dict:
        """Merge worker-computed estimates into the coordinator's cache."""
        require(payload, "worker_id", str)
        records = require(payload, "records", list)
        if self.cache_dir is None:
            return {"accepted": 0, "enabled": False}
        from repro.sweep.disk_cache import append_cache_records

        accepted = append_cache_records(self.cache_dir, records, shard="pushed")
        if accepted:
            telemetry.event("shard.cache.pushed", records=accepted)
        return {"accepted": accepted, "enabled": True}

    # ------------------------------------------------------------------ serve
    def serve_until_done(
        self,
        stop: Optional[threading.Event] = None,
        tick_s: float = 0.25,
        linger_s: float = 2.0,
    ) -> None:
        """Serve requests until every cell settled (or ``stop`` is set).

        After the last cell settles the server lingers for ``linger_s`` so
        polling workers observe ``done=True`` and exit cleanly instead of
        hitting a connection refusal.
        """
        thread = threading.Thread(target=self.server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            while not self.board.done:
                if stop is not None and stop.is_set():
                    break
                self.board.expire_leases()
                time.sleep(tick_s)
            if self.board.done and linger_s > 0:
                time.sleep(linger_s)
        finally:
            self.server.shutdown()
            thread.join(timeout=5.0)
            self.server.server_close()

    def close(self) -> None:
        self.server.server_close()
