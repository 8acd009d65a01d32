"""The lease-based HTTP coordinator: one worker fleet over attached grids.

A :class:`Coordinator` owns the HTTP server, the worker registry, the
shipped preparations and the estimator-cache hub.  Work reaches it as
:class:`LeaseBoard` s, one per sweep run: a one-shot ``shard
coordinator`` attaches a single board and closes once it drains; the job
service (:class:`repro.service.ServiceCoordinator`) attaches one board
per running job and leases across them round-robin.

A board is the *only* writer of its run's sweep state.  It hands cells
out as bounded-lifetime **leases**, collects streamed
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
import re
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

#: Seconds a request handler waits on its socket (a request line, a body
#: shorter than its ``Content-Length``) before it gives the thread back.
REQUEST_TIMEOUT_S = 10.0

#: The always-on lease-lifecycle counters of every board.
LEASE_COUNTERS = ("granted", "heartbeats", "completed", "failed", "requeued",
                  "expired", "revoked", "duplicates")


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


class WorkerRegistry:
    """Registered workers: name, liveness and per-worker lease counters.

    A :class:`Coordinator` owns one and shares it with every board it
    attaches; a board used on its own keeps a private one.  Ids are issued
    here only, so an id this registry never issued is a protocol error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: dict[str, dict] = {}
        self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def register(self, name: str) -> str:
        with self._lock:
            self._seq += 1
            worker_id = f"w{self._seq}"
            self._workers[worker_id] = {
                "name": name, "last_seen": time.monotonic(),
                "leased": 0, "completed": 0, "errors": 0, "busy_s": 0.0,
            }
        logger.info("shard: worker %s (%s) registered", worker_id, name)
        telemetry.event("shard.worker.registered", worker=worker_id,
                        worker_name=name)
        return worker_id

    def touch(self, worker_id: str, **counts: float) -> None:
        """Mark ``worker_id`` alive and add ``counts`` to its counters."""
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                raise ShardProtocolError(f"unknown worker id '{worker_id}'")
            worker["last_seen"] = time.monotonic()
            for key, value in counts.items():
                worker[key] += value

    def stats(self) -> list[dict]:
        """Per-worker accounting for `/v1/metrics` and `shard status`."""
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "worker_id": worker_id,
                    "name": info["name"],
                    "leased": info["leased"],
                    "completed": info["completed"],
                    "errors": info["errors"],
                    "busy_s": round(info["busy_s"], 3),
                    "last_seen_s": round(max(now - info["last_seen"], 0.0), 3),
                }
                for worker_id, info in sorted(self._workers.items())
            ]


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
        #: A coordinator replaces this with its own registry on attach.
        self.workers = WorkerRegistry()
        self.outcomes: dict[int, SweepOutcome] = {}
        self.failures: dict[int, SweepFailure] = {}
        # Lease-lifecycle counters, always on (they are a handful of integer
        # adds under the lock the handlers hold anyway): `/v1/metrics` and
        # `repro-codesign shard status` must work without --telemetry.
        self.metrics: dict[str, int] = dict.fromkeys(LEASE_COUNTERS, 0)

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
                "workers": len(self.workers),
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

    # --------------------------------------------------------------- protocol
    def register(self, name: str) -> str:
        return self.workers.register(name)

    def lease(self, worker_id: str, slots: int) -> list[_Cell]:
        """Lease up to ``slots`` ready cells to ``worker_id``."""
        now = time.monotonic()
        self._expire_locked_leases(now)
        leased: list[_Cell] = []
        with self._lock:
            self.workers.touch(worker_id)
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
                leased.append(cell)
            if leased:
                self.workers.touch(worker_id, leased=len(leased))
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
            self.workers.touch(worker_id)
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
            self.workers.touch(worker_id)
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
            duration_s = max(float(duration_s), 0.0)
            cell.spent_s += duration_s
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
                self.workers.touch(worker_id, completed=1, busy_s=duration_s)
                events.append(("shard.cell.completed", {
                    "uid": uid, "worker": worker_id,
                    "duration_s": round(duration_s, 6),
                    **self._job_tag(),
                }))
            else:
                if cell.status != "leased" or lease_id != cell.lease_id:
                    # The reaper already requeued this attempt (or another
                    # worker holds the cell now); the stale failure must
                    # not be charged a second time.
                    return (False, "stale-lease")
                self.workers.touch(worker_id, errors=1)
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


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request, served through its coordinator's route table."""

    # Set per server by Coordinator.
    coordinator: "Coordinator"

    server_version = "repro-coordinator"
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        self.timeout = REQUEST_TIMEOUT_S
        super().setup()

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
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True  # where this body ends is unknown
            raise ShardProtocolError(f"invalid Content-Length header {declared!r}")
        length = int(declared)
        try:
            raw = self.rfile.read(length) if length else b"{}"
        except TimeoutError:  # the socket timeout set in setup()
            raw = b""
        if len(raw) < length:
            self.close_connection = True
            raise ShardProtocolError("request body is shorter than its Content-Length")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShardProtocolError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ShardProtocolError("request body must be a JSON object")
        return payload

    def _serve(self, method: str) -> None:
        # Reads stay open; mutating routes need the shared secret.
        if method != "GET" and not token_matches(self.coordinator.token,
                                                 self.headers.get(AUTH_HEADER)):
            self._reply({"error": f"missing or invalid {AUTH_HEADER} header"},
                        status=401)
            return
        try:
            payload = self._read_body() if method == "POST" else None
            reply = self.coordinator.route(method, self.path.rstrip("/"), payload)
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
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._serve("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._serve("DELETE")


class Coordinator:
    """The HTTP lease surface over zero or more attached :class:`LeaseBoard` s.

    Boards are keyed by their ``job``: ``None`` for a one-shot grid, the
    job uid under the service.  ``/v1/lease`` takes one cell per board per
    pass, round-robin, so a wide job cannot starve a small one.  Lease
    expiry runs on every lease and heartbeat and on the tick of whoever
    drains a board (:meth:`drain`), so busy workers cannot starve the
    reaper.
    """

    #: Replies say whether they come from the multi-job service.
    service = False

    def __init__(
        self,
        *,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        token: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poll_s: float = DEFAULT_POLL_S,
        cache_dir=None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if heartbeat_s <= 0 or heartbeat_s >= lease_ttl_s:
            raise ValueError("heartbeat_s must be positive and below lease_ttl_s")
        self.token = token or None
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        # Estimator-cache exchange hub: workers pull this directory's records
        # in bulk after registering and push back what they compute.
        self.cache_dir = cache_dir
        self.workers = WorkerRegistry()
        self._lock = threading.Lock()
        self._boards: dict[Optional[str], LeaseBoard] = {}  # round-robin order
        self._prep_keys: dict[Optional[str], dict[int, Optional[str]]] = {}
        self._prepared_wire: dict[str, dict] = {}
        #: Counters of detached boards; ``heartbeats`` counts requests.
        self._totals: dict[str, int] = dict.fromkeys(LEASE_COUNTERS, 0)
        #: (method, path regex) -> handler taking the regex groups, then
        #: the JSON body for a POST.
        self.routes: dict[tuple[str, str], Callable[..., dict]] = {
            ("GET", "/v1/status"): self.status,
            ("GET", "/v1/metrics"): self.metrics,
            ("POST", "/v1/register"): self.handle_register,
            ("POST", "/v1/lease"): self.handle_lease,
            ("POST", "/v1/report"): self.handle_report,
            ("POST", "/v1/heartbeat"): self.handle_heartbeat,
            ("POST", "/v1/cache/pull"): self.handle_cache_pull,
            ("POST", "/v1/cache/push"): self.handle_cache_push,
        }
        handler = type("BoundHandler", (_Handler,), {"coordinator": self})
        self.server = ThreadingHTTPServer(bind, handler)
        self.server.daemon_threads = True
        self._server_thread: Optional[threading.Thread] = None

    # ---------------------------------------------------------------- address
    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Serve requests from a daemon thread until :meth:`stop`."""
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="coordinator-http",
        )
        self._server_thread.start()

    def stop(self, join_timeout_s: float = 5.0) -> None:
        if self._server_thread is not None:
            self.server.shutdown()
            self._server_thread.join(timeout=join_timeout_s)
        self.server.server_close()

    # ------------------------------------------------------------------ boards
    def attach(self, board: LeaseBoard, prepared: Mapping[str, PreparedTarget],
               prep_keys: Mapping[int, Optional[str]]) -> None:
        """Serve ``board``'s cells, shipping ``prepared`` by ``prep_keys``."""
        board.workers = self.workers
        with self._lock:
            self._boards[board.job] = board
            self._prep_keys[board.job] = dict(prep_keys)
            for key, artifact in prepared.items():
                if key not in self._prepared_wire:
                    self._prepared_wire[key] = prepared_to_wire(artifact)

    def attach_run(self, runner: "SweepRunner", order: list[int],
                   preparations: Mapping[tuple, PreparedTarget],
                   job: Optional[str] = None) -> LeaseBoard:
        """Attach a board over ``runner``'s pending cells ``order``.

        Retries, backoff and per-cell timeouts come from the runner, and
        every settled cell streams into its checkpoint.
        """
        board = LeaseBoard(
            {index: runner.tasks[index] for index in order},
            list(order),
            retries=runner.retries,
            backoff=runner._backoff_delay,
            timeouts={index: runner.effective_timeout_for(index) for index in order},
            lease_ttl_s=self.lease_ttl_s,
            on_outcome=lambda index, outcome: runner.settle_outcome(outcome),
            on_failure=lambda index, failure: runner.settle_failure(failure),
            # Job-prefixed lease ids let heartbeats find their board.
            lease_prefix="l" if job is None else f"{job}:",
            job=job,
        )
        prepared: dict[str, PreparedTarget] = {}
        prep_keys: dict[int, Optional[str]] = {}
        for index in order:
            artifact = preparations.get(runner.tasks[index].prep_key)
            prep_keys[index] = None if artifact is None else artifact.wire_key
            if artifact is not None:
                prepared[artifact.wire_key] = artifact
        self.attach(board, prepared, prep_keys)
        return board

    def detach(self, board: LeaseBoard) -> None:
        """Stop serving ``board``; its counters stay in the totals."""
        # Board locks are never taken while the coordinator lock is held.
        counters = board.metrics_counts()
        with self._lock:
            if self._boards.get(board.job) is board:
                del self._boards[board.job]
                del self._prep_keys[board.job]
                for key in LEASE_COUNTERS:
                    if key != "heartbeats":
                        self._totals[key] += counters[key]

    @staticmethod
    def drain(board: LeaseBoard, stopped: Callable[[], bool], tick_s: float) -> None:
        """Reap expired leases every ``tick_s`` until ``board`` settles or ``stopped()``."""
        while not board.done and not stopped():
            board.expire_leases()
            time.sleep(tick_s)

    def _attached(self) -> dict[Optional[str], LeaseBoard]:
        with self._lock:
            return dict(self._boards)

    @property
    def done(self) -> bool:
        """True once the one-shot board (the board of no job) has settled.

        Every board of the service belongs to a job, so a service is never
        done: idle workers keep polling for the next job.
        """
        board = self._attached().get(None)
        return board is not None and board.done

    def _job_settled(self, job: str) -> bool:
        """Whether a lease of ``job``, whose board is gone, counts as settled."""
        return False

    # ------------------------------------------------------------------ routes
    def route(self, method: str, path: str, payload: Optional[dict]) -> Optional[dict]:
        """Serve one request; ``None`` when no route matches."""
        for (verb, pattern), handler in self.routes.items():
            match = re.fullmatch(pattern, path) if verb == method else None
            if match is not None:
                return handler(*match.groups(), *([payload] if method == "POST" else []))
        return None

    def handle_register(self, payload: Mapping) -> dict:
        version = payload.get("version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ShardProtocolError(
                f"worker speaks protocol v{version}, coordinator is v{PROTOCOL_VERSION}"
            )
        worker_id = self.workers.register(str(payload.get("name") or "worker"))
        return {
            "worker_id": worker_id,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "poll_s": self.poll_s,
            "grid_size": sum(b.counts()["cells"] for b in self._attached().values()),
            "cache": self.cache_dir is not None,
            "service": self.service,
        }

    def handle_lease(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        slots = max(int(payload.get("slots", 1)), 0)
        known = {str(key) for key in payload.get("known_preps", [])}
        self.workers.touch(worker_id)
        with self._lock:
            boards = list(self._boards.values())
            if boards:
                # Rotate so successive calls start with a different board
                # even at one cell per call.
                first = boards[0].job
                self._boards[first] = self._boards.pop(first)
        leased: list[tuple[LeaseBoard, _Cell]] = []
        progress = True
        while len(leased) < slots and progress:
            progress = False
            for board in boards:
                if len(leased) >= slots:
                    break
                cells = board.lease(worker_id, 1)
                if cells:
                    leased.append((board, cells[0]))
                    progress = True
        prepared: dict[str, dict] = {}
        wire_cells = []
        with self._lock:
            for board, cell in leased:
                prep_key = self._prep_keys.get(board.job, {}).get(cell.index)
                if prep_key is not None and prep_key not in known:
                    prepared[prep_key] = self._prepared_wire[prep_key]
                wire_cells.append({
                    "lease_id": cell.lease_id,
                    "uid": cell.task.uid,
                    "task": task_to_wire(cell.task),
                    "prep": prep_key,
                    "timeout_s": cell.timeout_s,
                    "job": board.job,
                })
        return {
            "cells": wire_cells,
            "prepared": prepared,
            "done": self.done,
            "retry_after_s": self.poll_s,
        }

    def handle_report(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        lease_id = require(payload, "lease_id", str)
        uid = require(payload, "uid", str)
        status = require(payload, "status", str)
        result: dict = {"duration_s": float(payload.get("duration_s", 0.0))}
        if status == "ok":
            try:
                result["outcome"] = outcome_from_wire(require(payload, "outcome", dict))
            except (KeyError, TypeError, ValueError) as exc:
                raise ShardProtocolError(f"malformed outcome payload: {exc}") from exc
            if result["outcome"].task.uid != uid:
                raise ShardProtocolError(
                    f"outcome uid '{result['outcome'].task.uid}' does not match "
                    f"report uid '{uid}'"
                )
        elif status == "error":
            result["error"] = str(payload.get("error") or "unspecified worker error")
        else:
            raise ShardProtocolError(f"unknown report status '{status}'")
        self.workers.touch(worker_id)
        job = payload.get("job")
        boards = self._attached()
        if isinstance(job, str) and job:
            board = boards.get(job)
        else:
            # A one-shot grid's workers (and job-oblivious ones) send no job.
            board = next((b for b in boards.values() if b.has_cell(uid)), None)
        if board is None:
            # A cancelled or finished job: acknowledged without acting, like
            # a duplicate, so a cancel suppresses requeues.
            return {"accepted": False, "reason": "unknown-job" if job else "unknown-cell",
                    "done": self.done}
        accepted, reason = board.report(worker_id, lease_id, uid, **result)
        return {"accepted": accepted, "reason": reason, "done": self.done}

    def handle_heartbeat(self, payload: Mapping) -> dict:
        worker_id = require(payload, "worker_id", str)
        lease_ids = [str(l) for l in payload.get("lease_ids", [])]
        self.workers.touch(worker_id)
        with self._lock:
            self._totals["heartbeats"] += 1
            boards = dict(self._boards)
        by_board: dict[Optional[str], list[str]] = {}
        settled: list[str] = []
        revoked: list[str] = []
        for lease_id in lease_ids:
            # "<job>:<n>" under the service; a one-shot lease has no colon.
            job, sep, _ = lease_id.rpartition(":")
            key = job if sep else None
            if key in boards:
                by_board.setdefault(key, []).append(lease_id)
            elif self._job_settled(job):
                settled.append(lease_id)
            else:
                revoked.append(lease_id)
        for key, ids in by_board.items():
            board_settled, board_revoked = boards[key].heartbeat(worker_id, ids)
            settled.extend(board_settled)
            revoked.extend(board_revoked)
        return {"ok": True, "settled": settled, "revoked": revoked, "done": self.done}

    def handle_cache_pull(self, payload: Mapping) -> dict:
        """Bulk ``DiskEvaluationCache`` export so fresh workers warm-start."""
        self.workers.touch(require(payload, "worker_id", str))
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
        self.workers.touch(require(payload, "worker_id", str))
        records = require(payload, "records", list)
        if self.cache_dir is None:
            return {"accepted": 0, "enabled": False}
        from repro.sweep.disk_cache import append_cache_records

        accepted = append_cache_records(self.cache_dir, records, shard="pushed")
        if accepted:
            telemetry.event("shard.cache.pushed", records=accepted)
        return {"accepted": accepted, "enabled": True}

    # -------------------------------------------------------------- dashboards
    def lease_metrics(self) -> dict:
        """Lease counters over every board served, attached or not."""
        with self._lock:
            totals = dict(self._totals)
            boards = list(self._boards.values())
        for board in boards:
            for key, value in board.metrics_counts().items():
                if key != "heartbeats":
                    totals[key] += value
        return totals

    def _job_summaries(self) -> list[dict]:
        """Per-job sections of the dashboards; a one-shot grid has none."""
        return []

    def _cell_counts(self, jobs: list[dict]) -> dict:
        """Cell counts over the attached boards (``jobs`` is unused here)."""
        totals = dict.fromkeys(("cells", "pending", "leased", "settled", "failed"), 0)
        for board in self._attached().values():
            counts = board.counts()
            for key in totals:
                totals[key] += counts[key]
        return {**totals, "workers": len(self.workers), "done": self.done}

    def status(self) -> dict:
        """`/v1/status`: cell counts, job states, registered workers."""
        jobs = self._job_summaries()
        states: dict[str, int] = {}
        for job in jobs:
            states[job["state"]] = states.get(job["state"], 0) + 1
        return {"version": PROTOCOL_VERSION, "service": self.service,
                "jobs": states, **self._cell_counts(jobs)}

    def metrics(self) -> dict:
        """`/v1/metrics`: lease counters, per-worker stats, telemetry snapshot.

        The lease counters and worker stats are always on; the ``telemetry``
        key is ``None`` unless the coordinator process runs with telemetry
        enabled (``--telemetry`` / ``REPRO_TELEMETRY=1``).
        """
        jobs = self._job_summaries()
        snap = telemetry.snapshot()
        return {
            "version": PROTOCOL_VERSION,
            "service": self.service,
            "counts": self._cell_counts(jobs),
            "lease_metrics": self.lease_metrics(),
            "workers": self.workers.stats(),
            "jobs": jobs,
            "telemetry": snap.as_dict() if snap is not None else None,
        }
