"""Benchmark-suite configuration.

``python -m repro run <name|all>`` regenerates the paper's tables and
figures and tier-1 asserts their shapes; the benches kept here are the ones
that check something more (each docstring says what): the full-size
functional-mode figure runs, the design-choice ablations, which have no
``repro run`` entry, and the codec microbenchmarks.  The experiment benches
run once (``benchmark.pedantic`` with a single round — they are
deterministic simulations, not microbenchmarks) and print what they render.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Execute a function exactly once under pytest-benchmark timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
