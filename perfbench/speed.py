"""Contention-normalized timing: how fast the core ran while a timed
call ran.

On a shared host the core this process runs on is slowed by other
tenants, by up to about 2x, in spells that switch within a second.  A
configuration timed over several seconds therefore reads the share of
slow spells in its window, not only its own work.  ``Sampler`` fires a
wall-clock timer every ``INTERVAL`` seconds; its handler times
``probe``, a fixed ~80 us loop of attribute, dict and integer work
like the checkers' own.  A probe's duration says how fast the core was
at that moment: ``speed = REFERENCE_PROBE_S / duration``.

A timed window's probes are uniform in wall time, so its work at the
reference speed is ``work * mean(speed)``, where ``work`` is the
window's wall time minus the probes' own time.  ``Window`` keeps the
sums that needs; ``Window.seconds`` gives the normalized seconds.
Probes take 2-3% of the time they sample.

The reference is a constant, not the fastest probe of a run: the slow
spells also come in periods of minutes, in which even a run's fastest
probe reads 25% slow.  The normalized seconds are therefore the wall
seconds of a core on which one probe takes ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import List

#: seconds between probes
INTERVAL = 0.005

#: a probe's duration at the reference speed: about the fastest probe
#: seen on the 2-CPU Xeon host the benchmark was tuned on (77-96 us
#: over five runs; 2x that in slow spells)
REFERENCE_PROBE_S = 80e-6


class _Node:
    __slots__ = ("key", "next", "count")

    def __init__(self, key: int, nxt) -> None:
        self.key = key
        self.next = nxt
        self.count = 0


def _ring(size: int = 64) -> _Node:
    head = node = _Node(0, None)
    for key in range(1, size):
        node = _Node(key, node)
    head.next = node
    return head


_RING = _ring()


def probe() -> int:
    """A fixed slice of interpreter work: walk a ring of slotted
    objects, bump counters and fold keys into a dict."""
    table = {}
    node = _RING
    for r in range(40):
        for _ in range(16):
            node.count += 1
            key = node.key ^ r
            table[key] = table.get(key, 0) + node.count
            node = node.next
    return len(table)


@dataclass
class Window:
    """One timed window: wall seconds minus probe seconds, and the sum
    and count of ``1 / probe duration`` over the probes inside it."""

    work: float = 0.0
    inverse: float = 0.0
    probes: int = 0

    def __add__(self, other: "Window") -> "Window":
        return Window(self.work + other.work, self.inverse + other.inverse,
                      self.probes + other.probes)

    def speed(self) -> float:
        """Mean core speed over the window, relative to the reference."""
        return REFERENCE_PROBE_S * self.inverse / self.probes

    def seconds(self, fallback: float) -> float:
        """The window's work at the reference speed.  A window too short
        to hold a probe takes ``fallback``, the run's mean speed."""
        return self.work * (self.speed() if self.probes else fallback)


class Sampler:
    """Times ``probe`` on a wall-clock timer while installed."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - started)

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def window(self, mark: int, elapsed: float) -> Window:
        """The window of ``elapsed`` wall seconds that began at ``mark``."""
        inside = self.samples[mark:]
        return Window(elapsed - sum(inside), sum(1.0 / p for p in inside),
                      len(inside))

    def mean_speed(self) -> float:
        """Mean core speed over every probe so far (1 before the first)."""
        return self.window(0, 0.0).speed() if self.samples else 1.0
