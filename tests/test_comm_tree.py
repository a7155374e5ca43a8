"""Binomial-tree collectives: correctness and round counts."""

import math

import numpy as np
import pytest

from repro.comm import tree_allreduce, tree_broadcast, tree_reduce

from .conftest import exact_rows, make_group


@pytest.mark.parametrize("nodes,workers", [(1, 1), (1, 2), (2, 2), (2, 4), (3, 3)])
class TestTreeCollectives:
    def test_broadcast_delivers(self, rng, nodes, workers):
        group = make_group(nodes, workers)
        x = rng.standard_normal(11)
        for out in tree_broadcast(x, group):
            np.testing.assert_array_equal(out, x)

    def test_reduce_sums(self, rng, nodes, workers):
        group = make_group(nodes, workers)
        arrays = exact_rows(rng, group.size, 7)
        total = tree_reduce(arrays, group)
        np.testing.assert_allclose(total, np.sum(arrays, axis=0), atol=1e-10)

    def test_allreduce(self, rng, nodes, workers):
        group = make_group(nodes, workers)
        arrays = exact_rows(rng, group.size, 7)
        expected = np.sum(arrays, axis=0)
        for out in tree_allreduce(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-10)


class TestTreeStructure:
    def test_log_rounds(self, rng):
        group = make_group(2, 4)
        tree_broadcast(rng.standard_normal(5), group)
        assert group.transport.stats.rounds == math.ceil(math.log2(8))

    def test_broadcast_message_count(self, rng):
        group = make_group(2, 4)
        tree_broadcast(rng.standard_normal(5), group)
        # A broadcast must inform n-1 members, one message each.
        assert group.transport.stats.messages == 7

    def test_nonzero_root(self, rng):
        group = make_group(2, 2)
        arrays = exact_rows(rng, 4, 4)
        total = tree_reduce(arrays, group, root_index=2)
        np.testing.assert_allclose(total, np.sum(arrays, axis=0), atol=1e-10)

    def test_reduce_wrong_count(self, rng):
        group = make_group(2, 2)
        with pytest.raises(ValueError):
            tree_reduce([rng.standard_normal(3)], group)

    def test_tree_root_nic_cheaper_than_star(self, rng):
        """For large payloads and groups, the tree spreads the root's load."""
        from repro.comm import broadcast

        big = rng.standard_normal(500_000)
        star = make_group(4, 1)
        broadcast(big, star)
        star_time = star.transport.max_time()
        tree = make_group(4, 1)
        tree_broadcast(big, tree)
        tree_time = tree.transport.max_time()
        assert tree_time < star_time
