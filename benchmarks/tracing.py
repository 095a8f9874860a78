"""In-memory spans recorded by the benchmark around its calls into the
program's layers, plus a garbage-collector watch for the traced passes.

Spans are kept in a list and written out once, when the run ends.  A
disabled tracer records nothing, so untraced runs pay only a no-op context
manager per layer call.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str    # "<module>.<function>" of the layer call
    label: str   # config string or instance label, "" if none
    start_ns: int
    end_ns: int


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, label: str = "") -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # reserve the slot so ids follow start order; the end is filled in below
        self.spans.append(Span(sid, parent, name, label, 0, 0))
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, name, label, start, end)

    def totals(self, since: int = 0) -> dict[tuple[str, str], int]:
        """Summed duration per (name, label) of the spans recorded from
        index `since` on."""
        out: dict[tuple[str, str], int] = {}
        for s in self.spans[since:]:
            key = (s.name, s.label)
            out[key] = out.get(key, 0) + s.end_ns - s.start_ns
        return out

    def self_times(self) -> dict[str, dict[str, int]]:
        """Per span name: count, total time, and self time (total minus the
        time covered by its child spans)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[str, dict[str, int]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_ns": 0, "self_ns": 0})
            dur = s.end_ns - s.start_ns
            row["count"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child_ns[s.id]
        return out

    def write(self, path: Path) -> None:
        doc = {"spans": [s._asdict() for s in self.spans],
               "self_times": self.self_times()}
        path.write_text(json.dumps(doc) + "\n", encoding="ascii")


class GcWatch:
    """Counts collections and their pause time through gc.callbacks while
    installed."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self._start = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.collections += 1
            self.pause_ns += time.perf_counter_ns() - self._start

    @contextmanager
    def installed(self) -> Iterator["GcWatch"]:
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)
