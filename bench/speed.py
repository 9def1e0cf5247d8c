"""The host's speed, from a fixed loop of the benchmark's own.

On a shared VM the CPU time of the same work swings by up to 1.7x, as the
host's other tenants come and go: sometimes in flips of a fraction of a
second, sometimes in slow phases that last a whole run.  This loop runs the
same kind of work as the program (small dicts and tuples, numpy calls on
small arrays) and imports nothing from it, so its time follows the host and
never the program.

A run samples the loop every ``EVERY_S`` seconds between operations and keeps
its fastest sample, just as it keeps each operation's fastest pass.  Both are
the cost at the fastest speed the host reached during the run, so their
ratio holds, within the limits README.md gives, when a run never sees a
fast moment.  ``factor()`` turns a CPU
time at that speed into one at the reference machine's, where the loop takes
``REFERENCE_NS``.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU time of one ``_loop()`` on the reference machine (README.md): the
#: fastest sample of a run there, while its host was fast.
REFERENCE_NS = 1_200_000
#: seconds between samples during a run
EVERY_S = 0.1

_A = np.ones((2, 8, 8))
_V = np.ones(8)


def _loop() -> None:
    counts: dict = {}
    for i in range(200):
        key = (i % 7, i % 11)
        counts[key] = counts.get(key, 0) + 1
        np.tensordot(_A, _V, axes=([2], [0]))


class Speed:
    """The fastest of the loop samples taken so far."""

    def __init__(self):
        self.fastest_ns: int | None = None
        self.samples = 0
        self._due = 0.0

    def sample(self) -> None:
        start = time.thread_time_ns()
        _loop()
        elapsed = time.thread_time_ns() - start
        self.samples += 1
        if self.fastest_ns is None or elapsed < self.fastest_ns:
            self.fastest_ns = elapsed
        self._due = time.monotonic() + EVERY_S

    def sample_if_due(self) -> None:
        if time.monotonic() >= self._due:
            self.sample()

    def factor(self) -> float:
        """Multiply a CPU time measured at the fastest speed seen by this to
        get the time on the reference machine."""
        return REFERENCE_NS / self.fastest_ns
