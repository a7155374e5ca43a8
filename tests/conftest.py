"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import ClusterSpec, TCP_25G, Transport
from repro.comm import CommGroup
from repro.core import BaguaConfig, ExecutionOptimizer, TensorBucket
from repro.core.profiler import ExecutionProfile, TensorRecord
from repro.tensor import DTYPE

# Derandomized by default, so every run draws the same examples and a red
# run replays; no per-example deadline, so no test asserts on wall-clock.
# HYPOTHESIS_PROFILE=random opts in to fresh random examples.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.register_profile("random", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_cluster() -> ClusterSpec:
    """2 nodes x 4 workers — the standard functional-mode test cluster."""
    return ClusterSpec(num_nodes=2, workers_per_node=4, inter_node=TCP_25G)


@pytest.fixture
def transport(small_cluster: ClusterSpec) -> Transport:
    return Transport(small_cluster)


@pytest.fixture
def group(transport: Transport) -> CommGroup:
    return CommGroup(transport, list(range(transport.spec.world_size)))


def exact_rows(rng: np.random.Generator, count: int, length: int) -> list[np.ndarray]:
    """``count`` ``DTYPE`` rows of dyadic values ``k / 2**12``, ``|k| < 2**14``.

    Unit-scale like normal draws, with about 15 significant bits: every sum
    of a few hundred of these rows is exact in fp32, so a reduction's result
    does not depend on the order it folds in and a check against ``np.sum``
    tests the semantics, not the rounding; but fp16 (11 bits) or an integer
    cast would change them, so a full-precision path that narrows its data
    still fails the check."""
    return [(rng.integers(-(2**14), 2**14, length) / 2**12).astype(DTYPE) for _ in range(count)]


def make_group(
    num_nodes: int = 2, workers_per_node: int = 4, backend: str | None = None
) -> CommGroup:
    spec = ClusterSpec(num_nodes=num_nodes, workers_per_node=workers_per_node)
    return CommGroup(Transport(spec, backend=backend), list(range(spec.world_size)))


def plan_buckets(params, bucket_bytes: float) -> list[TensorBucket]:
    """The buckets the engine builds over ``params``, taken as the ready order.

    The execution optimizer plans the schedule with fusion on, so buckets
    hold several tensors up to the cap; each bucket is built from its
    scheduled ``views``, as ``BaguaEngine._build_buckets`` does.
    """
    profile = ExecutionProfile(
        [TensorRecord(str(i), p.data.size, ready_index=i) for i, p in enumerate(params)]
    )
    config = BaguaConfig(flatten=True, bucket_bytes=bucket_bytes)
    schedule = ExecutionOptimizer(config).plan(profile, per_bucket_updates=True)
    return [
        TensorBucket(
            [params[int(name)] for name, _elements in scheduled.views],
            name=scheduled.name,
        )
        for scheduled in schedule.buckets
    ]
