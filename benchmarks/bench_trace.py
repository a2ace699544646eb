"""In-memory spans and counts recorded by the harness around calls into oscispec.

A span is (name, start, end, parent, item).  Its layer is the part of the
name before the first dot, so ``solver.find`` belongs to ``solver``.  Spans
stay in memory until ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Stand-in for untraced runs: a span or count costs one call and records nothing."""

    def span(self, name: str):
        return _NO_SPAN

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.item = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every closed span with this name, in order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name and end is not None]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per layer: total self seconds (duration minus covered child time) and span count."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        layers: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = layers.setdefault(name.split(".", 1)[0], {"self_s": 0.0, "spans": 0})
            entry["self_s"] += end - start - child_time[index]
            entry["spans"] += 1
        return layers

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                fh,
            )
