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


def make_group(
    num_nodes: int = 2, workers_per_node: int = 4, backend: str | None = None
) -> CommGroup:
    spec = ClusterSpec(num_nodes=num_nodes, workers_per_node=workers_per_node)
    return CommGroup(Transport(spec, backend=backend), list(range(spec.world_size)))


def plan_buckets(params, bucket_bytes: float, flatten: bool = True) -> list[TensorBucket]:
    """The buckets the engine builds over ``params``, taken as the ready order.

    The execution optimizer plans the schedule with fusion on, so buckets
    hold several tensors up to the cap; each bucket is built from its
    scheduled ``views``, as ``BaguaEngine._build_buckets`` does.  ``flatten``
    only chooses whether those buckets are backed by contiguous memory.
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
            flatten=flatten,
        )
        for scheduled in schedule.buckets
    ]
