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


# Every pattern's timing on the 2 x 4 cluster of ``fresh_group``, with rank r
# starting at r * 0.1 ms, as bits: ``(elapsed, clocks, (total, inter-node,
# intra-node) bytes, per-rank sent bytes)``, in ``PATTERNS`` order.
PINNED = (
    (  # ring
        '0x1.9b0b20d4e8a39p-11',
        ('0x1.8505c4d83a280p-10', '0x1.7822fbc6bd601p-10', '0x1.6b4032b540982p-10',
         '0x1.5e5d69a3c3d04p-10', '0x1.6b78db1951f1dp-10', '0x1.5e961207d529ep-10',
         '0x1.51b348f65861fp-10', '0x1.77ea5362ac067p-10'),
        ('0x1.c000000000000p+21', '0x1.c000000000000p+19', '0x1.5000000000000p+21'),
        ('0x1.c000000000000p+18', '0x1.c000000000000p+18', '0x1.c000000000000p+18',
         '0x1.c000000000000p+18', '0x1.c000000000000p+18', '0x1.c000000000000p+18',
         '0x1.c000000000000p+18', '0x1.c000000000000p+18'),
    ),
    (  # scatter-reduce
        '0x1.d204e088981f2p-10',
        ('0x1.3e34d1c067e9ep-9', '0x1.375599c9f1fa7p-9', '0x1.299729dd061b9p-9',
         '0x1.22b7f1e6902c2p-9', '0x1.1c2a392bc91b5p-9', '0x1.226672aae14d8p-9',
         '0x1.37041a8e431bdp-9', '0x1.44c28a7b2efabp-9'),
        ('0x1.c000000000000p+21', '0x1.0000000000000p+21', '0x1.8000000000000p+20'),
        ('0x1.c000000000000p+18', '0x1.c000000000000p+18', '0x1.c000000000000p+18',
         '0x1.c000000000000p+18', '0x1.c000000000000p+18', '0x1.c000000000000p+18',
         '0x1.c000000000000p+18', '0x1.c000000000000p+18'),
    ),
    (  # gather
        '0x1.099f1ff446ce6p-12',
        ('0x1.f3cff8d5af13ap-11', '0x1.aafd52a745ed6p-14', '0x1.a735c0ac85102p-13',
         '0x1.3c766c02b394cp-12', '0x1.13af96fd4e472p-11', '0x1.55a816a1ba74ep-11',
         '0x1.97a0964626a2ap-11', '0x1.d99915ea92d06p-11'),
        ('0x1.c000000000000p+20', '0x1.0000000000000p+20', '0x1.8000000000000p+19'),
        ('0x0.0p+0', '0x1.0000000000000p+18', '0x1.0000000000000p+18', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18', '0x1.0000000000000p+18', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18'),
    ),
    (  # broadcast
        '0x0.0p+0',
        ('0x1.07e1fe91b0b70p-11', '0x1.a36e2eb1c432dp-14', '0x1.a36e2eb1c432dp-13',
         '0x1.3a92a30553262p-12', '0x1.a36e2eb1c432dp-12', '0x1.0624dd2f1a9fcp-11',
         '0x1.3a92a30553262p-11', '0x1.6f0068db8bac7p-11'),
        ('0x1.c000000000000p+20', '0x1.0000000000000p+20', '0x1.8000000000000p+19'),
        ('0x1.c000000000000p+20', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
         '0x0.0p+0', '0x0.0p+0'),
    ),
    (  # hierarchical
        '0x1.26a14b8a02252p-12',
        ('0x1.e687847e5f6d8p-11', '0x1.e63662b8100d2p-11', '0x1.e7284736c0447p-11',
         '0x1.e81a2bb5707bcp-11', '0x1.005f33b4bdd86p-10', '0x1.0036a2d196283p-10',
         '0x1.00af9510ee43ep-10', '0x1.01288750465f8p-10'),
        ('0x1.c000000000000p+21', '0x1.0000000000000p+19', '0x1.8000000000000p+21'),
        ('0x1.0000000000000p+20', '0x1.0000000000000p+18', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18', '0x1.0000000000000p+20', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18', '0x1.0000000000000p+18'),
    ),
    (  # decentralized
        '0x1.70bd8a3e21c3cp-13',
        ('0x1.cb2fcb6b141d6p-11', '0x1.ad805d88c9493p-13', '0x1.3f9bba70d5b15p-12',
         '0x1.2de679e86a8a6p-11', '0x1.13af96fd4e472p-11', '0x1.3d172ebb146bbp-11',
         '0x1.7184f4914cf20p-11', '0x1.b0f8e87ff7da3p-11'),
        ('0x1.0000000000000p+22', '0x1.0000000000000p+20', '0x1.8000000000000p+21'),
        ('0x1.0000000000000p+19', '0x1.0000000000000p+19', '0x1.0000000000000p+19',
         '0x1.0000000000000p+19', '0x1.0000000000000p+19', '0x1.0000000000000p+19',
         '0x1.0000000000000p+19', '0x1.0000000000000p+19'),
    ),
    (  # decentralized-H
        '0x1.a803394f67d60p-13',
        ('0x1.d76e8ff85493bp-11', '0x1.d71d6e3205335p-11', '0x1.d80f52b0b56aap-11',
         '0x1.d901372f65a1fp-11', '0x1.bd37ad0d38508p-11', '0x1.bce68b46e8f02p-11',
         '0x1.bdd86fc599277p-11', '0x1.beca5444495ecp-11'),
        ('0x1.4000000000000p+22', '0x1.0000000000000p+19', '0x1.2000000000000p+22'),
        ('0x1.6000000000000p+20', '0x1.8000000000000p+18', '0x1.8000000000000p+18',
         '0x1.8000000000000p+18', '0x1.6000000000000p+20', '0x1.8000000000000p+18',
         '0x1.8000000000000p+18', '0x1.8000000000000p+18'),
    ),
    (  # ps
        '0x1.26a14b8a02252p-12',
        ('0x1.e687847e5f6d8p-11', '0x1.e63662b8100d2p-11', '0x1.e7284736c0447p-11',
         '0x1.e81a2bb5707bcp-11', '0x1.005f33b4bdd86p-10', '0x1.0036a2d196283p-10',
         '0x1.00af9510ee43ep-10', '0x1.01288750465f8p-10'),
        ('0x1.c000000000000p+21', '0x1.0000000000000p+19', '0x1.8000000000000p+21'),
        ('0x1.0000000000000p+20', '0x1.0000000000000p+18', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18', '0x1.0000000000000p+20', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18', '0x1.0000000000000p+18'),
    ),
    (  # ps-no-local-aggregation
        '0x1.1054c4a4f6743p-11',
        ('0x1.328f254ab2eebp-10', '0x1.e33c8f02f1958p-11', '0x1.079bc762f22f5p-10',
         '0x1.1d9947446b93ep-10', '0x1.107dd5cedd725p-10', '0x1.13af96fd4e473p-10',
         '0x1.29ad16dec7abcp-10', '0x1.3faa96c041105p-10'),
        ('0x1.c000000000000p+21', '0x1.0000000000000p+21', '0x1.8000000000000p+20'),
        ('0x1.0000000000000p+20', '0x1.0000000000000p+18', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18', '0x1.0000000000000p+20', '0x1.0000000000000p+18',
         '0x1.0000000000000p+18', '0x1.0000000000000p+18'),
    ),
)


class TestPinnedBits:
    def test_timing_bits_match_literals(self):
        """``TestOneTimingCore`` checks ``exchange`` against ``exchange_sized``;
        these literals also catch a change to the round-timing routine that
        moves both alike."""
        assert len(PINNED) == len(PATTERNS)
        for pattern, (elapsed, clocks, totals, sent) in zip(PATTERNS, PINNED):
            group = fresh_group()
            transport = group.transport
            for rank in group.ranks:
                transport.compute(rank, rank * 1e-4)
            stats = transport.stats
            assert float(pattern(group)).hex() == elapsed
            assert tuple(now.hex() for now in transport.clocks.tolist()) == clocks
            totals_now = (stats.total_bytes, stats.inter_node_bytes, stats.intra_node_bytes)
            assert tuple(float(b).hex() for b in totals_now) == totals
            assert tuple(b.hex() for b in stats.per_rank_sent_bytes.tolist()) == sent
