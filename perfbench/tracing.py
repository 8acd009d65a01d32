"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code around the calls it makes
into each layer's public functions; nothing inside ``repro`` is patched.
Each span carries a name (``<layer>.<what>``), start and end times
(``time.perf_counter`` seconds), the index of its parent span and the id
of the request it belongs to.  Spans stay in memory while the workload
runs and are written out once, at the end, so the recording itself adds
no file I/O to the measured requests.

A layer's self time is the time its spans cover minus the part of that
interval covered by their child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, request_id: int):
        if not self.enabled:
            return nullcontext()
        return self._record(name, request_id)

    @contextmanager
    def _record(self, name: str, request_id: int) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, request_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, children excluded."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(index, ())
            )
            totals[span.layer] = totals.get(span.layer, 0.0) + span.duration - covered
        return totals

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def write(self, path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request_id": span.request_id,
                }) + "\n")


def _union_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
