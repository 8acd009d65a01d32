"""Persistent local worker processes for sweep cells and preparations.

One :class:`WorkerPool` serves every local parallel path: the
:class:`~repro.sweep.runner.SweepRunner` (``workers > 1`` or a per-cell
timeout) and the multi-slot :class:`~repro.shard.worker.ShardWorker`.
A worker process is started the first time a job finds no idle worker
(at most ``slots`` at once) and then serves one job after another until
the pool closes, so everything a process keeps between cells — the
estimator's group statics, the disk cache's parsed-line memo, module
imports — stays warm for the next cell.

Each worker owns one duplex pipe.  The parent sends ``(kind, args)``;
the worker answers ``(status, value, metrics)`` where ``metrics`` is the
job's telemetry snapshot (``None`` when telemetry is off) for the parent
to merge.  A worker that dies mid-job shows up as an EOF on its pipe and
is reported as a ``"crash"``; :meth:`WorkerPool.kill` ends a worker whose
job overran its deadline.  Either way only that process goes, and the
next job that needs a slot starts a replacement.

The worker entry point is module-level and the task function is handed
to the process at start, so the pool works under the ``fork`` and the
``spawn`` start methods alike (under ``spawn`` the task function must be
picklable).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing import connection as mp_connection
from typing import Callable, Hashable, Optional

import repro.telemetry as telemetry


def _serve(conn, task_fn: Callable) -> None:
    """Worker-process entry: answer jobs until the parent says stop or leaves.

    ``("cell", (task, cache_dir, prepared))`` runs ``task_fn``;
    ``("prep", (task,))`` runs :func:`~repro.sweep.runner.prepare_device`.
    """
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return  # the parent is gone
        if job is None:
            return
        kind, args = job
        telemetry.reset()  # this job's measurements only; the parent merges them
        try:
            if kind == "prep":
                from repro.sweep.runner import prepare_device

                value = prepare_device(*args)
            else:
                value = task_fn(*args)
            reply = ("ok", value, telemetry.snapshot())
        except BaseException as exc:  # noqa: BLE001 - even sys.exit fails this job only
            # A preparation's caller re-raises the exception itself, as the
            # in-process path would; a cell's failure is recorded as text.
            error = _portable(exc) if kind == "prep" else _describe(exc)
            reply = ("error", error, telemetry.snapshot())
        try:
            conn.send(reply)
        except OSError:
            return  # the parent is gone
        except Exception as exc:  # unpicklable result: report instead of dying
            conn.send(("error", f"unpicklable task result: {exc!r}", None))


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _portable(exc: BaseException):
    """``exc`` when it survives a pickle round trip, else its description."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure means: send text instead
        return _describe(exc)
    return exc


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "conn", "tag", "started")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.tag: Optional[Hashable] = None
        self.started = 0.0

    def stop(self, grace_s: float) -> None:
        """Terminate (then kill) the process unless it exits within ``grace_s``."""
        self.process.join(timeout=grace_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - ignores SIGTERM
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


class WorkerPool:
    """Up to ``slots`` long-lived worker processes, one job each at a time.

    Jobs are tagged by the caller (a grid index, a lease id, a preparation
    key); :meth:`wait` hands back ``(tag, status, value, seconds,
    metrics)`` with ``status`` one of ``"ok"``, ``"error"`` or
    ``"crash"`` and ``seconds`` the wall-clock since the job was sent.
    Use it as a context manager, or call :meth:`close`.
    """

    def __init__(self, task_fn: Callable, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.task_fn = task_fn
        self.slots = slots
        self._context = multiprocessing.get_context()
        self._idle: list[_Worker] = []
        self._busy: dict[Hashable, _Worker] = {}

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- dispatch
    @property
    def free(self) -> int:
        """Slots without a job in flight."""
        return self.slots - len(self._busy)

    def running(self) -> list[Hashable]:
        """Tags of the jobs in flight, in dispatch order."""
        return list(self._busy)

    def _start(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(target=_serve, args=(child_conn, self.task_fn),
                                        daemon=True)
        process.start()
        child_conn.close()  # the parent's copy; the child's death now EOFs the pipe
        reg = telemetry.registry()
        if reg is not None:
            reg.counter("sweep.pool.workers_started").inc()
        return _Worker(process, parent_conn)

    def submit(self, tag: Hashable, kind: str, *args) -> None:
        """Send one job to an idle worker, starting one if none is idle."""
        if tag in self._busy:
            raise ValueError(f"job {tag!r} is already in flight")
        if not self.free:
            raise RuntimeError("every worker slot is busy")
        while True:
            worker = self._idle.pop() if self._idle else self._start()
            try:
                worker.conn.send((kind, args))
                break
            except (BrokenPipeError, ConnectionResetError):
                worker.stop(0.0)  # died while idle; take another
        worker.tag = tag
        worker.started = time.monotonic()
        self._busy[tag] = worker

    # ------------------------------------------------------------ collection
    def wait(self, timeout: Optional[float]) -> list[tuple]:
        """Replies that arrive within ``timeout`` seconds (``None``: the first).

        Returns an empty list when nothing is in flight or nothing arrived.
        """
        if not self._busy:
            return []
        by_conn = {worker.conn: worker for worker in self._busy.values()}
        ready = mp_connection.wait(list(by_conn), timeout=timeout)
        replies = []
        for conn in ready:
            worker = by_conn[conn]
            seconds = time.monotonic() - worker.started
            del self._busy[worker.tag]
            try:
                status, value, metrics = conn.recv()
            except (EOFError, OSError):
                worker.stop(5.0)
                replies.append((worker.tag, "crash", "worker process died without a result",
                                seconds, None))
                continue
            self._idle.append(worker)
            replies.append((worker.tag, status, value, seconds, metrics))
        return replies

    def elapsed(self, tag: Hashable) -> float:
        """Seconds since the job ``tag`` was sent."""
        return time.monotonic() - self._busy[tag].started

    def kill(self, tag: Hashable) -> Optional[float]:
        """End the worker running ``tag``; returns the seconds it ran.

        Returns ``None`` and leaves the job alone when its reply (or its
        worker's death) is already waiting: a result that landed after the
        caller's deadline check wins over the deadline.
        """
        worker = self._busy[tag]
        if worker.conn.poll():
            return None
        del self._busy[tag]
        seconds = time.monotonic() - worker.started
        worker.process.terminate()
        worker.stop(1.0)
        return seconds

    def close(self) -> None:
        """Stop every worker: idle ones exit cleanly, busy ones are killed."""
        for worker in self._idle:
            try:
                worker.conn.send(None)
            except OSError:  # pragma: no cover - already gone
                pass
        for worker in self._busy.values():
            worker.process.terminate()
        for worker in self._idle + list(self._busy.values()):
            worker.stop(2.0)
        self._idle.clear()
        self._busy.clear()
