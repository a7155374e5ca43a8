"""Run-time span tracer for the end-to-end benchmark.

The tracer measures the program from outside: it replaces public callables
with timing wrappers for the length of one traced run and puts the originals
back afterwards.  Nothing under ``src/`` knows it exists.

* Methods are wrapped on their class (:meth:`Tracer.wrap_attr`).
* Module-level functions are wrapped by rebinding every ``repro.*`` module
  attribute that *is* the original (:meth:`Tracer.wrap_function`), because
  the package imports its own functions by name (``from ..core.primitives
  import c_fp_s``) and a rebind of the defining module alone would miss
  those call sites.

A span is ``[name, start, end, parent, op_id]``: ``parent`` indexes the
enclosing span (-1 at the root) and ``op_id`` is the benchmark op the span
belongs to (-1 during set-up and warm-up).  Spans stay in memory until the
run ends.  The benchmark is single-threaded, so spans nest properly and a
span's *self time* is its duration minus the durations of its direct
children (:func:`self_times`).

Span names are ``"<group>:<callable>"``; the group (``comm.collective``,
``tensor.backward`` ...) is what the per-layer metrics aggregate over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

_MISSING = object()

#: ``count(tracer, args, result)`` hooks run after the wrapped call returned.
CountFn = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Records spans and counters; owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: counter name -> sum over timed ops (set-up and warm-up excluded)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code (data loading, one op)."""
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Attribute every span opened inside to benchmark op ``op_id``."""
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = -1

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter, if a timed op is running."""
        if self.op_id >= 0:
            self.counters[name] += value

    def inside(self, group: str) -> bool:
        """Whether a span of ``group`` is currently open."""
        prefix = group + ":"
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def traced(self, fn: Callable, name: str, count: CountFn | None = None) -> Callable:
        """``fn`` wrapped so that every call records a span called ``name``.

        The recording is written out here, not shared with :meth:`span`: a
        generator-based context manager per call would cost several times
        what the span itself does, on callables hit thousands of times per op.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember how to undo it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap_attr(
        self, owner: Any, attr: str, name: str, count: CountFn | None = None
    ) -> None:
        """Trace a method (``owner`` is its class) or a module attribute."""
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, count))

    def wrap_function(
        self, fn: Callable, name: str, count: CountFn | None = None
    ) -> int:
        """Trace a module-level function wherever ``repro`` bound it by name.

        Returns the number of module attributes rebound.
        """
        wrapper = self.traced(fn, name, count)
        rebound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)
                    rebound += 1
        return rebound

    def remove(self) -> None:
        """Put every original back (newest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Children of one parent never overlap (one thread), so the sum of their
    durations is exactly the part of the parent's interval they cover.  A
    re-entrant call is simply a child with the same name as its parent:
    summing self times by name counts every instant once.
    """
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def group_of(name: str) -> str:
    return name.split(":", 1)[0]


def group_totals(spans: list[list], timed_only: bool = True) -> dict[str, tuple[float, int]]:
    """``group -> (self seconds, calls)`` over timed-op spans (or all spans)."""
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, self_s in zip(spans, own):
        if timed_only and span[4] < 0:
            continue
        group = group_of(span[0])
        seconds[group] += self_s
        calls[group] += 1
    return {group: (seconds[group], calls[group]) for group in seconds}


def count_under(spans: list[list], group: str, ancestor_group: str) -> int:
    """Timed-op spans of ``group`` that have an ancestor of ``ancestor_group``."""
    total = 0
    for span in spans:
        if span[4] < 0 or group_of(span[0]) != group:
            continue
        parent = span[3]
        while parent >= 0:
            if group_of(spans[parent][0]) == ancestor_group:
                total += 1
                break
            parent = spans[parent][3]
    return total


def write_chrome_trace(spans: list[list], path: str, max_events: int = 200_000) -> int:
    """Write spans as Chrome-trace "complete" events; returns events written.

    Only the first ``max_events`` spans are written so that the file of a
    long run stays loadable; the metrics always use every span.
    """
    events = [
        {
            "name": name,
            "cat": group_of(name),
            "ph": "X",
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"op": op_id},
        }
        for name, start, end, _parent, op_id in spans[:max_events]
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)
