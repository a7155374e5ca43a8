"""Dry-run pattern schedules: structure, sizes and edge cases."""

import pytest

from repro.cluster import ClusterSpec, Transport
from repro.comm import CommGroup
from repro.core.primitives import RingPeers
from repro.simulation.patterns import (
    dry_broadcast,
    dry_decentralized,
    dry_gather,
    dry_hierarchical_allreduce,
    dry_ps_push_pull,
    dry_ring_allreduce,
    dry_scatter_reduce,
    fp32_wire,
)


def fresh_group(nodes=2, workers=4):
    spec = ClusterSpec(num_nodes=nodes, workers_per_node=workers)
    return CommGroup(Transport(spec), list(range(spec.world_size)))


ELEMENTS = 1 << 16
PATTERNS = (
    lambda g: dry_ring_allreduce(g, ELEMENTS),
    lambda g: dry_scatter_reduce(g, ELEMENTS),
    lambda g: dry_gather(g, ELEMENTS),
    lambda g: dry_broadcast(g, ELEMENTS),
    lambda g: dry_hierarchical_allreduce(g, ELEMENTS),
    lambda g: dry_decentralized(g, ELEMENTS, RingPeers()),
    lambda g: dry_decentralized(g, ELEMENTS, RingPeers(), hierarchical=True),
    lambda g: dry_ps_push_pull(g, ELEMENTS),
    lambda g: dry_ps_push_pull(g, ELEMENTS, local_aggregation=False),
)


class TestBasics:
    def test_fp32_wire(self):
        assert fp32_wire(100) == 400.0

    def test_all_patterns_return_positive_elapsed(self):
        for pattern in PATTERNS:
            assert pattern(fresh_group()) > 0.0

    def test_no_pattern_reaches_the_backend(self):
        """Dry schedules are size-only rounds: the transport prices them and
        no payload routing (``backend.route_round``) ever happens."""
        for pattern in PATTERNS:
            group = fresh_group()
            routed = []
            group.transport.backend.route_round = routed.append
            assert pattern(group) > 0.0
            assert group.transport.stats.rounds > 0 and routed == []

    def test_single_member_patterns_free(self):
        group = fresh_group(nodes=1, workers=1)
        assert dry_ring_allreduce(group, 1000) == 0.0
        assert dry_scatter_reduce(group, 1000) == 0.0

    def test_elapsed_equals_clock_delta(self):
        group = fresh_group()
        before = group.transport.max_time()
        elapsed = dry_ring_allreduce(group, 1 << 18)
        assert group.transport.max_time() - before == pytest.approx(elapsed)


class TestByteAccounting:
    def test_ring_bytes(self):
        group = fresh_group(nodes=1, workers=4)
        elements = 4096
        dry_ring_allreduce(group, elements)
        expected = 2 * 3 * 4 * fp32_wire(elements // 4)  # rounds x members x chunk
        assert group.transport.stats.total_bytes == pytest.approx(expected)

    def test_scatter_reduce_bytes(self):
        group = fresh_group(nodes=1, workers=4)
        elements = 4096
        dry_scatter_reduce(group, elements)
        chunk = fp32_wire(elements // 4)
        expected = 2 * 4 * 3 * chunk  # two phases of n(n-1) chunk messages
        assert group.transport.stats.total_bytes == pytest.approx(expected)

    def test_compressed_wire_fn_respected(self):
        group_fp = fresh_group()
        dry_scatter_reduce(group_fp, 4096)
        group_lp = fresh_group()
        dry_scatter_reduce(group_lp, 4096, wire_phase1=lambda n: n, wire_phase2=lambda n: n)
        assert group_lp.transport.stats.total_bytes == pytest.approx(
            group_fp.transport.stats.total_bytes / 4
        )

    def test_ps_local_aggregation_reduces_inter_bytes(self):
        group_a = fresh_group()
        dry_ps_push_pull(group_a, 1 << 18, local_aggregation=False)
        group_b = fresh_group()
        dry_ps_push_pull(group_b, 1 << 18, local_aggregation=True)
        assert (
            group_b.transport.stats.inter_node_bytes
            < group_a.transport.stats.inter_node_bytes
        )


class TestHierarchicalStructure:
    def test_hierarchical_decentralized_syncs_nodes(self):
        group = fresh_group()
        dry_decentralized(group, 1 << 16, RingPeers(), hierarchical=True)
        # All ranks advanced (intra-node allreduce + broadcast touch everyone).
        for rank in group.ranks:
            assert group.transport.now(rank) > 0

    def test_flat_decentralized_touches_only_neighbors(self):
        spec = ClusterSpec(num_nodes=8, workers_per_node=1)
        group = CommGroup(Transport(spec), list(range(8)))
        from repro.core.primitives import RandomPeers

        dry_decentralized(group, 1 << 16, RandomPeers(seed=0), step=0)
        # Every rank is in exactly one pair; everyone moved.
        assert group.transport.stats.messages == 8
