"""Hierarchical communication: correctness and inter-node traffic savings."""

import numpy as np
import pytest

from repro.comm import HierarchicalComm, ring_allreduce, scatter_reduce
from repro.compression import QSGDCompressor

from .conftest import exact_rows, make_group


@pytest.fixture
def arrays(rng, group):
    return exact_rows(rng, group.size, 64)


class TestHierarchicalAllreduce:
    def test_equals_sum(self, group, arrays):
        expected = np.sum(arrays, axis=0)
        for out in HierarchicalComm(group).allreduce(arrays):
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_results_in_group_order(self, group, rng):
        # Make each member's array encode its own index.
        arrays = [np.full(4, float(i)) for i in range(group.size)]
        outs = HierarchicalComm(group).allreduce(arrays)
        expected = np.full(4, sum(range(group.size)))
        for out in outs:
            np.testing.assert_allclose(out, expected)

    def test_fewer_inter_node_bytes_than_flat(self, rng):
        arrays = [rng.standard_normal(4096) for _ in range(8)]
        flat = make_group(2, 4)
        scatter_reduce(arrays, flat)
        hier = make_group(2, 4)
        HierarchicalComm(hier).allreduce(arrays)
        assert (
            hier.transport.stats.inter_node_bytes
            < flat.transport.stats.inter_node_bytes / 3
        )

    def test_compression_only_on_inter_tier(self, group, arrays):
        codec = QSGDCompressor(bits=8)
        calls = []

        def compress(chunk, member, chunk_id):
            calls.append(len(chunk))
            return codec.compress(chunk)

        HierarchicalComm(group).allreduce(
            arrays,
            compress_phase1=compress,
            decompress_phase1=codec.decompress,
            compress_phase2=compress,
            decompress_phase2=codec.decompress,
        )
        # Only leaders compress: phase 1 = 2 leaders x 2 chunks; phase 2 =
        # one merged partition per leader.
        assert len(calls) == 6

    def test_single_node_cluster(self, rng):
        group = make_group(1, 4)
        arrays = exact_rows(rng, 4, 10)
        expected = np.sum(arrays, axis=0)
        for out in HierarchicalComm(group).allreduce(arrays):
            np.testing.assert_allclose(out, expected, atol=1e-10)


class TestHierarchicalDecentralized:
    def test_intra_node_fully_synchronized(self, group, rng):
        arrays = exact_rows(rng, group.size, 16)

        def exchange(leader_arrays, leader_group):
            # Identity exchange: leaders keep their node means.
            return [a.copy() for a in leader_arrays]

        outs = HierarchicalComm(group).decentralized_average(arrays, exchange)
        # All workers of node 0 hold the same tensor (node mean).
        for out in outs[1:4]:
            np.testing.assert_allclose(out, outs[0], atol=1e-10)
        node0_mean = np.mean(arrays[:4], axis=0)
        np.testing.assert_allclose(outs[0], node0_mean, atol=1e-10)

    def test_leader_exchange_applied(self, group, rng):
        arrays = exact_rows(rng, group.size, 8)

        def exchange(leader_arrays, leader_group):
            summed = ring_allreduce(leader_arrays, leader_group)
            return [s / leader_group.size for s in summed]

        outs = HierarchicalComm(group).decentralized_average(arrays, exchange)
        global_mean = np.mean(arrays, axis=0)
        for out in outs:
            np.testing.assert_allclose(out, global_mean, atol=1e-10)
