"""Report-only microbenches (``python -m repro perf``); see :mod:`.harness`."""

from .harness import render, run_suite

__all__ = ["run_suite", "render"]
