"""Persistent on-disk evaluation cache (JSON-lines).

:class:`DiskEvaluationCache` memoizes analytical-estimator calls *across
process boundaries and across runs*: every newly estimated configuration is
appended as one JSON line to a shard file inside the cache directory, and a
fresh instance reloads every shard on open.  It exposes the same callable
protocol as a plain estimator, so it layers *under* the in-memory
:class:`repro.search.cache.EvaluationCache`::

    disk = DiskEvaluationCache(auto_hls.estimate, cache_dir,
                               device=device.name, clock_mhz=100.0,
                               context=coefficients_fingerprint(coeffs))
    cache = EvaluationCache(disk)   # memory layer on top

With that stack, a repeated same-seed sweep serves every estimate from disk
and never invokes the estimator at all (``disk.misses`` is the exact count
of real estimator invocations).

Entries are namespaced by ``device @ clock | context``: an estimate is only
valid for the device, accelerator clock and fitted model coefficients it was
computed under, so the context should embed a coefficients fingerprint
(:func:`coefficients_fingerprint`).  Writes go to a per-instance shard file,
which keeps concurrent sweep workers from interleaving appends; reads scan
every shard of the instance's namespace (shard file names are
namespace-prefixed, so other devices' shards are never parsed), so workers
still share each other's results on the next run.

Parsing is memoized process-wide: a long-lived process (a sweep pool
worker, a shard worker) opens a cache per cell and would otherwise decode
the same shard lines again and again.  The memo is keyed by the raw line
text, so content addressing alone keeps it correct — an appended,
compacted, or deleted-and-recreated shard can never serve a stale record,
and a line is applied in the same sorted-path/line order as a cold parse.
It is a lock-guarded LRU of :data:`_PARSED_LINES_CAPACITY` lines; torn or
corrupt lines are never memoized.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import repro.telemetry as telemetry
from repro.hw.analytical import PerformanceEstimate
from repro.hw.resource import ResourceVector
from repro.search.cache import CacheStats, config_cache_key, resolve_batch_estimator
from repro.utils.logging import get_logger
from repro.utils.serialization import to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dnn_config import DNNConfig
    from repro.hw.analytical import AnalyticalModelCoefficients

logger = get_logger(__name__)


def coefficients_fingerprint(coefficients: "AnalyticalModelCoefficients") -> str:
    """Short, stable fingerprint of a set of analytical-model coefficients.

    Embedded in the disk-cache namespace so that entries computed under one
    coefficient fit can never be served after a refit changed the model.
    """
    payload = json.dumps(to_jsonable(coefficients), sort_keys=True)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def _sanitize(name: str) -> str:
    """Make ``name`` safe as a file-name stem."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "cache"


def _estimate_payload(estimate: PerformanceEstimate) -> dict:
    return {
        "latency_ms": float(estimate.latency_ms),
        "compute_ms": float(estimate.compute_ms),
        "data_movement_ms": float(estimate.data_movement_ms),
        "resources": {
            "lut": float(estimate.resources.lut),
            "ff": float(estimate.resources.ff),
            "dsp": float(estimate.resources.dsp),
            "bram": float(estimate.resources.bram),
        },
    }


def _estimate_from_payload(payload: dict) -> Optional[PerformanceEstimate]:
    try:
        resources = payload.get("resources", {})
        return PerformanceEstimate(
            latency_ms=float(payload["latency_ms"]),
            resources=ResourceVector(
                lut=float(resources.get("lut", 0.0)),
                ff=float(resources.get("ff", 0.0)),
                dsp=float(resources.get("dsp", 0.0)),
                bram=float(resources.get("bram", 0.0)),
            ),
            compute_ms=float(payload.get("compute_ms", 0.0)),
            data_movement_ms=float(payload.get("data_movement_ms", 0.0)),
        )
    except (KeyError, TypeError, ValueError):
        return None


#: Bound of the process-wide parsed-line memo (lines).  Measured on the
#: benchmark's skewed 36-cell sweep grid (``perfbench/workloads.py``): its
#: warm cache directory holds 2,714 lines over three namespaces, and one
#: memo entry costs about 1.4 KB (line text, parsed estimate, LRU slot;
#: ``tracemalloc``), 3.7 MiB for the whole directory.  The bound keeps
#: such a directory resident with 50% headroom — cells of different
#: namespaces interleave, so a bound below the working set would make the
#: LRU evict every line just before it is needed again — and caps the memo
#: at about 5.7 MiB per process.  A directory above the bound gets almost
#: no hits: the CLI's default grid over all three FPGAs and four strategies
#: (36 cells) leaves 7,093 lines, and its warm 2-worker sweep took
#: 2.8-3.1 s at this bound against 2.5 s with an unbounded memo.  A larger
#: bound would buy that back with resident memory in long-lived shard
#: workers, whose directories keep growing across jobs.
_PARSED_LINES_CAPACITY = 4096

#: Raw shard line -> ``(namespace, key, estimate)``, least recently used first.
_parsed_lines: "OrderedDict[str, tuple[str, str, PerformanceEstimate]]" = OrderedDict()
_parsed_lines_lock = threading.Lock()


def _parse_line(line: str) -> Optional[tuple[str, str, PerformanceEstimate]]:
    """``(namespace, key, estimate)`` of one valid record line, else ``None``.

    Raises :class:`json.JSONDecodeError` for a torn / corrupt line.
    """
    record = json.loads(line)
    if not isinstance(record, dict):
        return None
    namespace, key = record.get("namespace"), record.get("key")
    estimate = _estimate_from_payload(record.get("estimate", {}))
    if not isinstance(namespace, str) or not isinstance(key, str) or estimate is None:
        return None
    return namespace, key, estimate


def _parsed_shard_lines(lines: Sequence[str]) -> tuple[list, int]:
    """Parse stripped shard lines through the memo; returns (entries, corrupt).

    ``entries`` holds one ``(namespace, key, estimate)`` per valid line, in
    line order.  Lookups and inserts hold the lock; the JSON decoding of
    unseen lines runs outside it.
    """
    with _parsed_lines_lock:
        known = []
        for line in lines:
            entry = _parsed_lines.get(line)
            if entry is not None:
                _parsed_lines.move_to_end(line)
            known.append(entry)
    entries = []
    fresh = {}
    corrupt = 0
    for line, entry in zip(lines, known):
        if entry is None:
            try:
                entry = _parse_line(line)
            except json.JSONDecodeError:  # torn write: skip the line
                corrupt += 1
                continue
            if entry is None:
                continue
            fresh[line] = entry
        entries.append(entry)
    if fresh:
        with _parsed_lines_lock:
            _parsed_lines.update(fresh)
            while len(_parsed_lines) > _PARSED_LINES_CAPACITY:
                _parsed_lines.popitem(last=False)
    return entries, corrupt


class DiskEvaluationCache:
    """JSON-lines-backed estimator memoization, shared across runs.

    Parameters
    ----------
    estimator:
        The underlying estimator invoked on a miss.
    directory:
        Cache directory; created when missing.  Every shard of this
        instance's namespace in it is loaded on open.
    device:
        Device name the estimates belong to (part of the namespace).
    clock_mhz:
        Accelerator clock the estimates were computed at.
    context:
        Extra namespace component, typically a coefficients fingerprint.
    shard:
        Stem of the shard file new entries are appended to.  Give every
        concurrent writer (one sweep task = one worker process) a unique
        shard so appends never interleave; defaults to the namespace.
    clock:
        Wall-clock source for the per-record ``ts`` timestamps (default
        :func:`time.time`) — the same injected-clock contract as the
        checkpoint, timings and telemetry sidecars, so frozen-clock tests
        get byte-stable shard records.
    """

    def __init__(
        self,
        estimator: Callable[["DNNConfig"], PerformanceEstimate],
        directory,
        *,
        device: str,
        clock_mhz: float = 100.0,
        context: str = "",
        shard: Optional[str] = None,
        key_fn: Callable[["DNNConfig"], str] = config_cache_key,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.estimator = estimator
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key_fn = key_fn
        self.namespace = f"{device}@{clock_mhz:g}MHz"
        if context:
            self.namespace += f"|{context}"
        # Shard files are namespace-prefixed so loading can skip shards of
        # other devices / coefficient fits without parsing them.
        self._prefix = _sanitize(self.namespace)
        self.shard_path = self.directory / f"{self._prefix}--{_sanitize(shard or 'main')}.jsonl"
        self._store: dict[str, PerformanceEstimate] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()
        self._clock = clock
        self._load()

    # ------------------------------------------------------------ persistence
    def _load(self) -> None:
        loaded = 0
        # Only shards of this namespace are parsed; the per-record namespace
        # check below stays as a guard against sanitization collisions.
        for path in sorted(self.directory.glob(f"{self._prefix}--*.jsonl")):
            try:
                lines = path.read_text().splitlines()
            except OSError:  # pragma: no cover - unreadable shard
                continue
            entries, corrupt = _parsed_shard_lines(
                [line for line in map(str.strip, lines) if line]
            )
            for namespace, key, estimate in entries:
                if namespace == self.namespace:
                    self._store[key] = estimate
                    loaded += 1
            if corrupt:
                logger.warning(
                    "disk cache shard %s: skipped %d corrupt line(s); "
                    "run 'repro-codesign cache gc' to repair it",
                    path.name, corrupt,
                )
        if loaded:
            logger.debug("disk cache loaded %d entries for %s", loaded, self.namespace)

    def _append_many(self, entries: Sequence[tuple[str, PerformanceEstimate]]) -> None:
        """Append records, one JSON line each, with one shard-file open.

        Every record of one call carries the same ``ts``.
        """
        if not entries:
            return
        ts = round(self._clock(), 3)
        lines = [
            json.dumps(
                {
                    "namespace": self.namespace,
                    "key": key,
                    "estimate": _estimate_payload(estimate),
                    "ts": ts,
                },
                sort_keys=True,
            ) + "\n"
            for key, estimate in entries
        ]
        with self.shard_path.open("a", encoding="utf-8") as handle:
            handle.write("".join(lines))

    # ------------------------------------------------------------- evaluation
    def __call__(self, config: "DNNConfig") -> PerformanceEstimate:
        return self.evaluate(config)

    def evaluate(self, config: "DNNConfig") -> PerformanceEstimate:
        return self.evaluate_with_info(config)[0]

    def evaluate_with_info(self, config: "DNNConfig") -> tuple[PerformanceEstimate, bool]:
        """Evaluate one config; returns ``(estimate, served_from_disk)``.

        A miss is a batch of one through :meth:`estimate_batch`, so it
        reaches the underlying estimator's batched engine too.
        """
        key = self.key_fn(config)
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._hits += 1
        if cached is not None:
            reg = telemetry.registry()
            if reg is not None:
                reg.counter("sweep.disk_cache.hits").inc()
            return cached, True
        return self.estimate_batch([config])[0], False

    def estimate_batch(self, configs: Sequence["DNNConfig"]) -> list[PerformanceEstimate]:
        """Evaluate a batch: bulk disk lookup, one estimator batch, one append.

        ``misses`` still counts exactly the configs the underlying estimator
        scored (one per unique missing key — the in-memory layer above
        already deduplicates, so in the sweep stack this equals the scalar
        path's count record for record).  The underlying estimator's own
        ``estimate_batch`` is used when it offers one; results and shard
        records are bit-identical either way.
        """
        keys = [self.key_fn(config) for config in configs]
        results: list = [None] * len(configs)
        missing: dict[str, int] = {}
        batch_hits = 0
        with self._lock:
            for index, key in enumerate(keys):
                value = self._store.get(key)
                if value is not None:
                    results[index] = value
                    self._hits += 1
                    batch_hits += 1
                elif key not in missing:
                    missing[key] = index
        batch_misses = 0
        representatives = [configs[index] for index in missing.values()]
        if representatives:
            batch_estimate = resolve_batch_estimator(self.estimator)
            if batch_estimate is not None:
                values = batch_estimate(representatives)
            else:
                values = [self.estimator(config) for config in representatives]
            with self._lock:
                fresh: list[tuple[str, PerformanceEstimate]] = []
                for key, value in zip(missing, values):
                    self._misses += 1
                    batch_misses += 1
                    if key not in self._store:
                        self._store[key] = value
                        fresh.append((key, value))
                self._append_many(fresh)
        with self._lock:
            for index, key in enumerate(keys):
                if results[index] is None:
                    results[index] = self._store[key]
        reg = telemetry.registry()
        if reg is not None:
            if batch_hits:
                reg.counter("sweep.disk_cache.hits").inc(batch_hits)
            if batch_misses:
                reg.counter("sweep.disk_cache.misses").inc(batch_misses)
        return results

    # ------------------------------------------------------------- bulk access
    def get_many(self, configs: Sequence["DNNConfig"]) -> list:
        """Bulk lookup; ``None`` marks configs absent from the disk store.

        A pure read: found entries count as hits, absent ones leave
        ``misses`` untouched (that counter is reserved for real estimator
        invocations).
        """
        reg = telemetry.registry()
        results: list = []
        found = 0
        with self._lock:
            for config in configs:
                value = self._store.get(self.key_fn(config))
                if value is not None:
                    self._hits += 1
                    found += 1
                results.append(value)
        if reg is not None:
            if found:
                reg.counter("sweep.disk_cache.hits").inc(found)
        return results

    def put_many(
        self, configs: Sequence["DNNConfig"], estimates: Sequence[PerformanceEstimate]
    ) -> None:
        """Persist precomputed estimates; counter-neutral, one shard append."""
        if len(configs) != len(estimates):
            raise ValueError("configs and estimates must have the same length")
        with self._lock:
            fresh: list[tuple[str, PerformanceEstimate]] = []
            for config, value in zip(configs, estimates):
                key = self.key_fn(config)
                if key not in self._store:
                    self._store[key] = value
                    fresh.append((key, value))
            self._append_many(fresh)

    # ------------------------------------------------------------ bookkeeping
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        """Real estimator invocations (disk misses)."""
        return self._misses

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, size=len(self._store))

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, config: "DNNConfig") -> bool:
        return self.key_fn(config) in self._store


# --------------------------------------------------------- compaction and GC
@dataclass(frozen=True)
class CompactionReport:
    """What one :func:`compact_cache_dir` pass did to a cache directory."""

    shards_before: int
    shards_after: int
    entries_before: int
    entries_kept: int
    duplicates_dropped: int
    corrupt_lines_dropped: int
    evicted_by_age: int
    evicted_by_size: int
    bytes_before: int
    bytes_after: int
    #: Stale / garbage ``_timings.json`` cost hints dropped.
    timing_entries_pruned: int = 0
    #: Superseded / corrupt / aged ``_checkpoint.jsonl`` records dropped.
    checkpoint_records_pruned: int = 0

    def summary(self) -> str:
        line = (
            f"compaction: {self.shards_before} -> {self.shards_after} shards, "
            f"{self.entries_before} -> {self.entries_kept} entries "
            f"({self.duplicates_dropped} duplicates, "
            f"{self.corrupt_lines_dropped} corrupt lines, "
            f"{self.evicted_by_age} age-evicted, {self.evicted_by_size} size-evicted), "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )
        if self.timing_entries_pruned or self.checkpoint_records_pruned:
            line += (
                f"; sidecars: {self.timing_entries_pruned} timing hint(s) and "
                f"{self.checkpoint_records_pruned} checkpoint record(s) pruned"
            )
        return line


@dataclass(frozen=True)
class NamespaceStats:
    """Per-namespace view of one cache directory."""

    namespace: str
    entries: int
    shards: int
    bytes: int


@dataclass(frozen=True)
class CacheDirStats:
    """Aggregate view of one cache directory (see :func:`cache_dir_stats`).

    Corrupt lines and duplicates are directory-level counts: a torn line
    cannot be attributed to a namespace because it does not parse.
    """

    directory: str
    namespaces: list[NamespaceStats] = field(default_factory=list)
    corrupt_lines: int = 0
    duplicates: int = 0
    total_shards: int = 0
    total_bytes: int = 0
    #: Cost hints in the ``_timings.json`` sidecar (0 when absent).
    timing_entries: int = 0
    #: Settled cells currently recorded in ``_checkpoint.jsonl``.
    checkpoint_outcomes: int = 0
    checkpoint_failures: int = 0
    checkpoint_corrupt_lines: int = 0

    @property
    def entries(self) -> int:
        return sum(ns.entries for ns in self.namespaces)

    @property
    def checkpoint_records(self) -> int:
        return self.checkpoint_outcomes + self.checkpoint_failures


def _scan_cache_dir(directory: pathlib.Path):
    """Parse every shard; returns (records, corrupt, duplicates, bytes, shards).

    ``records`` maps ``(namespace, key)`` to the newest valid record line
    (dict).  Records missing a timestamp inherit their shard's mtime, so
    pre-timestamp caches still age-evict sensibly.
    """
    records: dict[tuple[str, str], dict] = {}
    corrupt = 0
    duplicates = 0
    total_bytes = 0
    # Underscore-prefixed files are sidecars (checkpoint, timings tempfiles),
    # not estimate shards: scanning them would misreport every checkpoint
    # line as corrupt — and compaction would delete the file.
    shard_paths = sorted(
        path for path in directory.glob("*.jsonl") if not path.name.startswith("_")
    )
    for path in shard_paths:
        try:
            mtime = path.stat().st_mtime
            text = path.read_text()
        except OSError:  # pragma: no cover - unreadable shard
            continue
        total_bytes += len(text.encode("utf-8"))
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt += 1
                continue
            namespace = record.get("namespace") if isinstance(record, dict) else None
            key = record.get("key") if isinstance(record, dict) else None
            estimate = _estimate_from_payload(record.get("estimate", {})) \
                if isinstance(record, dict) else None
            if not isinstance(namespace, str) or not isinstance(key, str) \
                    or estimate is None:
                corrupt += 1
                continue
            if not isinstance(record.get("ts"), (int, float)):
                record["ts"] = round(mtime, 3)
            slot = (namespace, key)
            if slot in records:
                duplicates += 1
                if record["ts"] >= records[slot]["ts"]:
                    records[slot] = record
            else:
                records[slot] = record
    return records, corrupt, duplicates, total_bytes, shard_paths


def _sidecar_stats(directory: pathlib.Path) -> tuple[int, int, int, int]:
    """(timing entries, checkpoint outcomes, failures, corrupt lines).

    Uses the cheap checkpoint scan — a stats command must not rebuild
    every recorded journal just to count them.
    """
    from repro.sweep.checkpoint import CHECKPOINT_FILENAME, load_timings, scan_checkpoint
    from repro.sweep.runner import TIMINGS_FILENAME

    timing_entries = len(load_timings(directory / TIMINGS_FILENAME))
    outcomes, failures, corrupt = scan_checkpoint(directory / CHECKPOINT_FILENAME)
    return timing_entries, outcomes, failures, corrupt


def cache_dir_stats(directory) -> CacheDirStats:
    """Summarise a cache directory (sidecars included) without modifying it."""
    directory = pathlib.Path(directory)
    records, corrupt, duplicates, total_bytes, shard_paths = _scan_cache_dir(directory)
    timing_entries, ck_outcomes, ck_failures, ck_corrupt = _sidecar_stats(directory)
    by_namespace: dict[str, dict] = {}
    for (namespace, _key), record in records.items():
        info = by_namespace.setdefault(namespace, {"entries": 0, "bytes": 0})
        info["entries"] += 1
        info["bytes"] += len(json.dumps(record, sort_keys=True)) + 1
    stats = []
    for namespace in sorted(by_namespace):
        info = by_namespace[namespace]
        prefix = f"{_sanitize(namespace)}--"
        shards = sum(1 for path in shard_paths if path.name.startswith(prefix))
        stats.append(NamespaceStats(
            namespace=namespace,
            entries=info["entries"],
            shards=shards,
            bytes=info["bytes"],
        ))
    return CacheDirStats(
        directory=str(directory),
        namespaces=stats,
        corrupt_lines=corrupt,
        duplicates=duplicates,
        total_shards=len(shard_paths),
        total_bytes=total_bytes,
        timing_entries=timing_entries,
        checkpoint_outcomes=ck_outcomes,
        checkpoint_failures=ck_failures,
        checkpoint_corrupt_lines=ck_corrupt,
    )


def compact_cache_dir(
    directory,
    *,
    max_age_days: Optional[float] = None,
    max_size_mb: Optional[float] = None,
    now: Optional[float] = None,
) -> CompactionReport:
    """Compact a cache directory: dedup, drop corrupt lines, evict by budget.

    All shards are parsed, corrupt / torn lines are dropped, duplicate
    ``(namespace, key)`` entries collapse to their newest record, entries
    older than ``max_age_days`` are evicted, then the oldest remaining
    entries are evicted until the directory fits ``max_size_mb``.  Each
    namespace is rewritten as a single ``<prefix>--main.jsonl`` shard
    (atomically: temp file + rename), and stale shard files are removed.
    The sidecars are pruned in the same pass: garbage and (under
    ``max_age_days``) stale ``_timings.json`` cost hints of grids that no
    longer run, plus superseded / corrupt / aged ``_checkpoint.jsonl``
    records — without this, every grid ever swept against the directory
    leaves its task uids behind forever.

    Run this offline — concurrent sweep writers appending to a shard being
    rewritten would lose their appends.
    """
    directory = pathlib.Path(directory)
    if max_age_days is not None and max_age_days <= 0:
        raise ValueError("max_age_days must be positive")
    if max_size_mb is not None and max_size_mb <= 0:
        raise ValueError("max_size_mb must be positive")
    now = time.time() if now is None else float(now)

    records, corrupt, duplicates, bytes_before, shard_paths = _scan_cache_dir(directory)
    entries_before = len(records) + duplicates

    evicted_age = 0
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        fresh = {slot: rec for slot, rec in records.items() if rec["ts"] >= cutoff}
        evicted_age = len(records) - len(fresh)
        records = fresh

    # Oldest-first size eviction against the serialized-line budget.
    lines = {
        slot: json.dumps(record, sort_keys=True) + "\n"
        for slot, record in records.items()
    }
    evicted_size = 0
    if max_size_mb is not None:
        budget = max_size_mb * 1024 * 1024
        total = sum(len(line.encode("utf-8")) for line in lines.values())
        for slot in sorted(records, key=lambda s: (records[s]["ts"], s)):
            if total <= budget:
                break
            total -= len(lines[slot].encode("utf-8"))
            del records[slot]
            del lines[slot]
            evicted_size += 1

    # Rewrite one shard per (sanitized) namespace; records of distinct
    # namespaces that sanitize to the same prefix share a file — harmless,
    # the loader checks the per-record namespace anyway.
    by_prefix: dict[str, list[tuple]] = {}
    for slot in sorted(records, key=lambda s: (s[0], records[s]["ts"], s[1])):
        by_prefix.setdefault(_sanitize(slot[0]), []).append(slot)
    written: set[str] = set()
    bytes_after = 0
    for prefix, slots in by_prefix.items():
        name = f"{prefix}--main.jsonl"
        payload = "".join(lines[slot] for slot in slots)
        tmp = directory / (name + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, directory / name)
        written.add(name)
        bytes_after += len(payload.encode("utf-8"))
    for path in shard_paths:
        if path.name not in written:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    from repro.sweep.checkpoint import (
        CHECKPOINT_FILENAME,
        compact_checkpoint,
        compact_timings,
    )
    from repro.sweep.runner import TIMINGS_FILENAME

    _, timings_pruned = compact_timings(
        directory / TIMINGS_FILENAME, max_age_days=max_age_days, now=now,
    )
    _, ck_pruned, ck_corrupt = compact_checkpoint(
        directory / CHECKPOINT_FILENAME, max_age_days=max_age_days, now=now,
    )

    reg = telemetry.registry()
    if reg is not None:
        if evicted_age or evicted_size:
            reg.counter("sweep.disk_cache.evicted").inc(evicted_age + evicted_size)
        telemetry.event(
            "sweep.disk_cache.compacted",
            kept=len(records), duplicates=duplicates, corrupt=corrupt,
            evicted_by_age=evicted_age, evicted_by_size=evicted_size,
        )

    report = CompactionReport(
        shards_before=len(shard_paths),
        shards_after=len(written),
        entries_before=entries_before,
        entries_kept=len(records),
        duplicates_dropped=duplicates,
        corrupt_lines_dropped=corrupt,
        evicted_by_age=evicted_age,
        evicted_by_size=evicted_size,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
        timing_entries_pruned=timings_pruned,
        checkpoint_records_pruned=ck_pruned + ck_corrupt,
    )
    logger.info("%s", report.summary())
    return report


# ------------------------------------------------------------- wire exchange
def read_cache_records(directory, namespaces: Optional[Sequence[str]] = None) -> list[dict]:
    """Export a cache directory's records as wire-ready JSON dicts.

    Deduplicated (newest per ``(namespace, key)``), deterministically
    ordered, optionally filtered to ``namespaces``.  This is the payload of
    the shard protocol's ``/v1/cache/pull`` — the record shape is exactly
    the on-disk JSONL line, so the receiving side can append verbatim.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    records, _corrupt, _dups, _bytes, _shards = _scan_cache_dir(directory)
    wanted = set(namespaces) if namespaces is not None else None
    return [
        record
        for (namespace, _key), record in sorted(records.items())
        if wanted is None or namespace in wanted
    ]


def append_cache_records(directory, records: Sequence[dict], *, shard: str = "pushed") -> int:
    """Merge wire cache records into ``directory``; returns how many were new.

    Malformed records are dropped, records whose ``(namespace, key)`` the
    directory already holds are skipped (pushes are idempotent), and fresh
    records are appended to per-namespace ``<ns>--<shard>.jsonl`` files in
    the exact on-disk format, so a :class:`DiskEvaluationCache` opened on
    the directory picks them up as ordinary shards.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    existing, _corrupt, _dups, _bytes, _shards = _scan_cache_dir(directory)
    seen = set(existing)
    fresh_lines: dict[str, list[str]] = {}
    accepted = 0
    for record in records:
        if not isinstance(record, dict):
            continue
        namespace = record.get("namespace")
        key = record.get("key")
        estimate = _estimate_from_payload(record.get("estimate", {}))
        if not isinstance(namespace, str) or not isinstance(key, str) \
                or estimate is None:
            continue
        if (namespace, key) in seen:
            continue
        seen.add((namespace, key))
        ts = record.get("ts")
        line = json.dumps({
            "namespace": namespace,
            "key": key,
            "estimate": _estimate_payload(estimate),
            # Keep the producer's timestamp; a missing one falls back to 0.0
            # ("oldest"), never to this machine's wall clock.
            "ts": round(float(ts), 3) if isinstance(ts, (int, float)) else 0.0,
        }, sort_keys=True)
        fresh_lines.setdefault(_sanitize(namespace), []).append(line)
        accepted += 1
    for prefix, lines in fresh_lines.items():
        path = directory / f"{prefix}--{_sanitize(shard)}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
    return accepted
