"""A minimal discrete-event queue.

The cluster's virtual time is not kept here: the transport holds every
rank's clock in one float64 vector (``Transport.clocks``).
:class:`EventQueue` is a self-contained scheduler with no caller in the
package (the pipeline simulator in :mod:`repro.simulation.pipeline` computes
its spans directly).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from collections.abc import Callable


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class EventQueue:
    """A minimal discrete-event scheduler.

    Events are callables executed in timestamp order; ties break by insertion
    order, which keeps simulations deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._processed = 0

    def schedule(self, time: float, action: Callable[[], None], label: str = "") -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time} before now={self.now}")
        heapq.heappush(self._heap, _Event(time, next(self._counter), action, label))

    def schedule_after(self, delay: float, action: Callable[[], None], label: str = "") -> None:
        self.schedule(self.now + delay, action, label)

    def empty(self) -> bool:
        return not self._heap

    def step(self) -> tuple[float, str] | None:
        """Pop and run the next event; return (time, label) or None if empty."""
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        self.now = event.time
        self._processed += 1
        event.action()
        return (event.time, event.label)

    def run(self, max_events: int = 10_000_000) -> float:
        """Drain the queue; return the final simulated time."""
        remaining = max_events
        while self._heap:
            if remaining <= 0:
                raise RuntimeError("event budget exhausted; likely a scheduling loop")
            self.step()
            remaining -= 1
        return self.now

    @property
    def processed(self) -> int:
        return self._processed
