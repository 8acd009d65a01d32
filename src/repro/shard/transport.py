"""Execution transports: one `SweepRunner` code path, local or distributed.

:class:`~repro.sweep.runner.SweepRunner` accepts a ``transport``: an
object whose ``execute(runner, order, preparations)`` runs the
cost-ordered pending cells and returns
``(outcomes_by_index, failures_by_index)``, streaming every settled cell
through ``runner.settle_outcome`` / ``runner.settle_failure`` so the
incremental checkpoint is written identically in every mode.  Grid
validation, shared preparation, resume, cost hints, timings and result
assembly all stay in the runner — a transport only decides *where* the
single-cell execution path (:func:`repro.sweep.runner.run_sweep_task`)
runs.

* :class:`LocalTransport` — delegates back to the runner's local
  execution (in-process, or its persistent worker pool);
  ``SweepRunner(transport=LocalTransport())`` is exactly
  ``SweepRunner()``.  Exists so callers can treat "local" and
  "distributed" uniformly.
* :class:`CoordinatorTransport` — binds the lease-based HTTP coordinator
  (:mod:`repro.shard.coordinator`) and serves the cells to remote
  :mod:`repro.shard.worker` processes instead of forking local ones.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping, Optional

from repro.shard.coordinator import LeaseBoard, ShardCoordinator
from repro.shard.protocol import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_POLL_S,
)
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.runner import (
        PreparedTarget,
        SweepFailure,
        SweepOutcome,
        SweepRunner,
    )

logger = get_logger(__name__)


class Transport(ABC):
    """Strategy object deciding where a sweep's pending cells execute."""

    @abstractmethod
    def execute(
        self,
        runner: "SweepRunner",
        order: list[int],
        preparations: Mapping[tuple, "PreparedTarget"],
    ) -> tuple[dict[int, "SweepOutcome"], dict[int, "SweepFailure"]]:
        """Run the cells listed in ``order`` (cost-sorted grid indices)."""


class LocalTransport(Transport):
    """Run cells with the runner's local execution (pool or in-process)."""

    #: The runner's worker pool serves this transport's preparations too.
    local = True

    def execute(self, runner, order, preparations):
        if not order:
            return {}, {}
        return runner.execute_locally(order, preparations)


class CoordinatorTransport(Transport):
    """Serve the pending cells to remote workers over the shard protocol.

    The transport owns the coordinator's listening socket for the
    duration of one :meth:`SweepRunner.run` call.  Reassignment bounds,
    retry backoff and per-cell timeouts are taken from the runner — the
    PR-4 machinery applies to remote attempts exactly as to local ones.
    """

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        *,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        poll_s: float = DEFAULT_POLL_S,
        linger_s: float = 2.0,
        stop: Optional[threading.Event] = None,
        on_bound=None,
        token: Optional[str] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if heartbeat_s <= 0 or heartbeat_s >= lease_ttl_s:
            raise ValueError("heartbeat_s must be positive and below lease_ttl_s")
        self.bind = bind
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.linger_s = linger_s
        self.stop = stop
        self.on_bound = on_bound
        self.token = token or None
        #: The coordinator of the in-flight run (exposed for tests/status).
        self.coordinator: Optional[ShardCoordinator] = None
        #: Lease metrics / per-worker stats of the last finished run, kept
        #: after the server socket closes so the CLI can print a recap.
        self.final_counts: Optional[dict] = None
        self.final_workers: Optional[list] = None

    def execute(self, runner, order, preparations):
        if not order:
            return {}, {}
        board = LeaseBoard(
            {index: runner.tasks[index] for index in order},
            list(order),
            retries=runner.retries,
            backoff=runner._backoff_delay,
            timeouts={index: runner.effective_timeout_for(index) for index in order},
            lease_ttl_s=self.lease_ttl_s,
            on_outcome=lambda index, outcome: runner.settle_outcome(outcome),
            on_failure=lambda index, failure: runner.settle_failure(failure),
        )
        prepared_by_key: dict[str, "PreparedTarget"] = {}
        prep_keys: dict[int, Optional[str]] = {}
        for index in order:
            artifact = preparations.get(runner.tasks[index].prep_key)
            if artifact is None:
                prep_keys[index] = None
            else:
                prepared_by_key[artifact.wire_key] = artifact
                prep_keys[index] = artifact.wire_key
        coordinator = ShardCoordinator(
            board,
            prepared_by_key,
            prep_keys,
            host=self.bind[0],
            port=self.bind[1],
            heartbeat_s=self.heartbeat_s,
            poll_s=self.poll_s,
            token=self.token,
            # The run's cache dir doubles as the cache-exchange hub: fresh
            # workers pull it in bulk and push back what they compute.
            cache_dir=runner.cache_dir,
        )
        self.coordinator = coordinator
        logger.info(
            "shard: coordinator serving %d cell(s) on %s", len(order), coordinator.url
        )
        if self.on_bound is not None:
            self.on_bound(coordinator)
        try:
            coordinator.serve_until_done(stop=self.stop, linger_s=self.linger_s)
        finally:
            self.final_counts = board.metrics_counts()
            self.final_workers = board.worker_stats()
            self.coordinator = None
        return dict(board.outcomes), dict(board.failures)
