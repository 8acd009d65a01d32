"""Batch evaluation of candidate populations across worker threads.

The analytical estimators are pure Python / numpy closures over device and
coefficient objects, so a thread pool is the right executor: nothing needs to
be pickled, and every worker thread shares the FPGA engine's process-wide
group statics.  With ``workers=1`` the evaluator degenerates to a plain
serial loop with zero overhead, which is also the mode that guarantees
bit-identical search journals.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.search.cache import resolve_batch_estimator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.dnn_config import DNNConfig
    from repro.hw.analytical import PerformanceEstimate


class ParallelEvaluator:
    """Order-preserving parallel ``map`` of an estimator over configs."""

    def __init__(
        self,
        estimator: Callable[["DNNConfig"], "PerformanceEstimate"],
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.estimator = estimator
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    # -------------------------------------------------------------- execution
    def map(self, configs: Sequence["DNNConfig"]) -> list["PerformanceEstimate"]:
        """Evaluate every config, returning estimates in input order.

        An estimator with an ``estimate_batch`` (see
        :func:`repro.search.cache.resolve_batch_estimator`) scores one
        contiguous chunk of the configs per worker; the chunks are joined
        back in input order.
        """
        batch = resolve_batch_estimator(self.estimator)
        if self.workers == 1 or len(configs) <= 1:
            if batch is not None:
                return list(batch(configs))
            return [self.estimator(config) for config in configs]
        if batch is None:
            return list(self._ensure_pool().map(self.estimator, configs))
        size = -(-len(configs) // self.workers)
        chunks = [configs[start:start + size] for start in range(0, len(configs), size)]
        return [
            estimate
            for chunk in self._ensure_pool().map(batch, chunks)
            for estimate in chunk
        ]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-search"
            )
        return self._pool

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut the worker pool down (no-op when never started)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
