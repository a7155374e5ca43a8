"""Collectives: correctness of data movement and traffic accounting."""

import numpy as np
import pytest

from repro.comm import (
    CommGroup,
    broadcast,
    chunk_bounds,
    gather,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.comm.collectives import allgather_payloads, alltoall
from repro.tensor import DTYPE

from .conftest import exact_rows, make_group


@pytest.fixture
def arrays(rng, group):
    return exact_rows(rng, group.size, 53)


class TestChunkBounds:
    def test_covers_range_exactly(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == ((0, 4), (4, 7), (7, 10))

    def test_handles_fewer_elements_than_parts(self):
        bounds = chunk_bounds(2, 4)
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == 2
        assert len(bounds) == 4


class TestGroup:
    def test_rejects_empty(self, transport):
        with pytest.raises(ValueError):
            CommGroup(transport, [])

    def test_rejects_duplicates(self, transport):
        with pytest.raises(ValueError):
            CommGroup(transport, [0, 0])

    def test_rejects_out_of_world(self, transport):
        with pytest.raises(ValueError):
            CommGroup(transport, [99])

    def test_node_subgroups(self, group):
        subs = group.node_subgroups()
        assert [s.ranks for s in subs] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_leader_group(self, group):
        assert group.leader_group().ranks == [0, 4]

    def test_subgroup_membership_enforced(self, group):
        sub = group.subgroup([0, 1])
        assert sub.size == 2
        with pytest.raises(ValueError):
            sub.subgroup([5])


class TestRingAllreduce:
    def test_computes_exact_sum(self, group, arrays):
        expected = np.sum(arrays, axis=0)
        for out in ring_allreduce(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_single_member(self, transport, rng):
        g = CommGroup(transport, [3])
        x = rng.standard_normal(7)
        (out,) = ring_allreduce([x], g)
        np.testing.assert_allclose(out, x)

    def test_input_arrays_unchanged(self, group, arrays):
        snapshots = [a.copy() for a in arrays]
        ring_allreduce(arrays, group)
        for a, s in zip(arrays, snapshots):
            np.testing.assert_array_equal(a, s)

    def test_rejects_shape_mismatch(self, group, rng):
        bad = [rng.standard_normal(5) for _ in range(group.size)]
        bad[2] = rng.standard_normal(6)
        with pytest.raises(ValueError):
            ring_allreduce(bad, group)

    def test_rejects_2d(self, group, rng):
        bad = [rng.standard_normal((2, 2)) for _ in range(group.size)]
        with pytest.raises(ValueError):
            ring_allreduce(bad, group)

    def test_message_rounds(self, group, arrays):
        ring_allreduce(arrays, group)
        # 2(n-1) rounds of n messages each.
        n = group.size
        assert group.transport.stats.rounds == 2 * (n - 1)
        assert group.transport.stats.messages == 2 * (n - 1) * n

    def test_reduce_scatter_chunks(self, group, arrays):
        chunks = ring_reduce_scatter(arrays, group)
        expected = np.sum(arrays, axis=0)
        bounds = chunk_bounds(len(arrays[0]), group.size)
        for i, chunk in enumerate(chunks):
            lo, hi = bounds[(i + 1) % group.size]
            np.testing.assert_allclose(chunk, expected[lo:hi], atol=1e-10)

    @pytest.mark.parametrize("nodes,workers", [(1, 2), (1, 3), (2, 2), (3, 4)])
    def test_various_world_sizes(self, rng, nodes, workers):
        group = make_group(nodes, workers)
        arrays = exact_rows(rng, group.size, 17)
        expected = np.sum(arrays, axis=0)
        for out in ring_allreduce(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-10)


class TestStarCollectives:
    def test_gather(self, group, arrays):
        gathered = gather(arrays, group, root_index=2)
        assert len(gathered) == group.size
        for orig, got in zip(arrays, gathered):
            np.testing.assert_array_equal(orig, got)

    def test_broadcast(self, group, rng):
        x = rng.standard_normal(9)
        results = broadcast(x, group, root_index=1)
        for out in results:
            np.testing.assert_array_equal(out, x)


class TestAllToAll:
    def test_grid_transpose(self, group):
        n = group.size
        parts = [[(i, j) for j in range(n)] for i in range(n)]
        received = alltoall(parts, group)
        for j in range(n):
            for i in range(n):
                assert received[j][i] == (i, j)

    def test_rejects_ragged(self, group):
        parts = [[0] * group.size for _ in range(group.size)]
        parts[0] = [0]
        with pytest.raises(ValueError):
            alltoall(parts, group)

    def test_allgather_payloads(self, group):
        payloads = [f"p{i}" for i in range(group.size)]
        results = allgather_payloads(payloads, group)
        for row in results:
            assert row == payloads


class TestTrafficShape:
    def test_ring_allreduce_bytes_per_worker(self, rng):
        group = make_group(2, 2)
        size = 100
        arrays = [rng.standard_normal(size) for _ in range(4)]
        ring_allreduce(arrays, group)
        sent = group.transport.stats.per_rank_sent_bytes
        # Each member sends 2(n-1) chunks of ~size/n elements (+16B
        # (index, chunk) envelope).
        expected = 2 * 3 * (size / 4 * DTYPE.itemsize + 16)
        for rank in range(4):
            assert sent[rank] == pytest.approx(expected, rel=0.05)
