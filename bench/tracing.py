"""Spans and counts recorded by the benchmark around calls into each layer.

Spans live in memory as tuples and are written out once, when the run ends.
Their clock is the thread's CPU time, as for the end-to-end figures.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Untraced:
    """Calls straight through: the timer used by end-to-end runs."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


class Tracer:
    """Records ``(id, parent, op, name, start_ns, end_ns)`` for every span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1

    def root(self, name: str, op: int) -> "_Root":
        """A top-level span for operation ``op``; calls inside nest under it."""
        return _Root(self, name, op)

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        span = len(self.spans)
        self.spans.append(None)
        self._stack.append(span)
        start = time.thread_time_ns()
        try:
            return fn(*args)
        finally:
            end = time.thread_time_ns()
            self._stack.pop()
            self.spans[span] = (span, parent, self._op, name, start, end)

    def count(self, name: str, value: int) -> None:
        self.counts.append((self._op, name, value))

    def self_times(self) -> dict[tuple[int, str], int]:
        """Summed self time in ns per (operation, span name)."""
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(int)
        for span, _, op, name, start, end in self.spans:
            out[op, name] += end - start - child_ns[span]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span, "parent": parent, "op": op, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"op": op, "count": name, "value": value}) + "\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str, op: int):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        tracer = self.tracer
        tracer._op = self.op
        self.span = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.span)
        self.start = time.thread_time_ns()
        return self

    def __exit__(self, *exc):
        end = time.thread_time_ns()
        self.elapsed = end - self.start
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.span] = (self.span, None, self.op, self.name, self.start, end)
        return False
