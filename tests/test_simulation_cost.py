"""Cost model: dry-run/real consistency, caching, monotonicity."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, Transport
from repro.comm import CommGroup, ring_allreduce, scatter_reduce
from repro.compression import OneBitCompressor, QSGDCompressor
from repro.core.primitives import RingPeers, d_fp_s
from repro.simulation import CommCostModel
from repro.simulation.patterns import (
    dry_decentralized,
    dry_ring_allreduce,
    dry_scatter_reduce,
)
from repro.tensor import DTYPE


@pytest.fixture
def spec() -> ClusterSpec:
    return ClusterSpec(num_nodes=2, workers_per_node=4)


class TestDryRealConsistency:
    """Dry-run schedules must charge the same simulated time as real runs
    moving ``DTYPE`` payloads of the same size."""

    ELEMENTS = 4096

    def _real_time(self, spec, collective):
        transport = Transport(spec)
        group = CommGroup(transport, list(range(spec.world_size)))
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(self.ELEMENTS).astype(DTYPE) for _ in range(group.size)]
        collective(arrays, group)
        return transport.max_time()

    def _dry_time(self, spec, pattern):
        transport = Transport(spec)
        group = CommGroup(transport, list(range(spec.world_size)))
        pattern(group)
        return transport.max_time()

    def test_ring_allreduce(self, spec):
        real = self._real_time(spec, ring_allreduce)
        # Payloads in the real run are ``DTYPE`` tuples (+8B tag per message).
        dry = self._dry_time(
            spec,
            lambda g: dry_ring_allreduce(
                g, self.ELEMENTS, wire=lambda n: n * DTYPE.itemsize + 8.0
            ),
        )
        assert dry == pytest.approx(real, rel=0.02)

    def test_scatter_reduce(self, spec):
        real = self._real_time(spec, scatter_reduce)
        dry = self._dry_time(
            spec,
            lambda g: dry_scatter_reduce(
                g,
                self.ELEMENTS,
                wire_phase1=lambda n: n * DTYPE.itemsize + 8.0,
                wire_phase2=lambda n: n * DTYPE.itemsize + 8.0,
            ),
        )
        assert dry == pytest.approx(real, rel=0.05)

    def test_decentralized(self, spec):
        real = self._real_time(
            spec, lambda a, g: d_fp_s(a, g, peers=RingPeers(), step=0)
        )
        dry = self._dry_time(
            spec,
            lambda g: dry_decentralized(
                g, self.ELEMENTS, RingPeers(), wire=lambda n: n * DTYPE.itemsize + 8.0
            ),
        )
        assert dry == pytest.approx(real, rel=0.05)


class TestCostModel:
    def test_caching_returns_same_object_fast(self, spec):
        cost = CommCostModel(spec)
        first = cost.centralized(1 << 20)
        second = cost.centralized(1 << 20)
        assert first == second
        assert len(cost._cache) == 1

    def test_monotone_in_size(self, spec):
        cost = CommCostModel(spec)
        assert cost.centralized(1 << 22) > cost.centralized(1 << 18)
        assert cost.ring_allreduce(1 << 22) > cost.ring_allreduce(1 << 18)

    def test_compression_cheaper(self, spec):
        cost = CommCostModel(spec)
        n = 1 << 22
        fp = cost.centralized(n)
        q8 = cost.centralized(n, compressor=QSGDCompressor(bits=8))
        onebit = cost.centralized(n, compressor=OneBitCompressor())
        assert onebit < q8 < fp

    def test_hierarchical_cheaper_than_flat_at_scale(self):
        spec = ClusterSpec(num_nodes=8, workers_per_node=8)
        cost = CommCostModel(spec)
        n = 1 << 22
        assert cost.centralized(n, hierarchical=True) < cost.centralized(n)

    def test_decentralized_cheapest_per_round(self, spec):
        cost = CommCostModel(spec)
        n = 1 << 22
        assert cost.decentralized(n) < cost.centralized(n)

    def test_more_bandwidth_is_faster(self):
        from repro.cluster import TCP_10G, TCP_100G

        slow = CommCostModel(ClusterSpec(num_nodes=2, workers_per_node=4, inter_node=TCP_10G))
        fast = CommCostModel(ClusterSpec(num_nodes=2, workers_per_node=4, inter_node=TCP_100G))
        n = 1 << 22
        assert fast.centralized(n) < slow.centralized(n)

    def test_ps_local_aggregation_helps(self, spec):
        cost = CommCostModel(spec)
        n = 1 << 22
        assert cost.ps_push_pull(n, local_aggregation=True) < cost.ps_push_pull(
            n, local_aggregation=False
        )

    def test_kernel_costs_positive_and_scaling(self, spec):
        cost = CommCostModel(spec)
        assert cost.compress_time(1 << 20) > cost.compress_time(1 << 10) > 0
        assert cost.update_time(1 << 20, num_tensors=100) > cost.update_time(
            1 << 20, num_tensors=1
        )
        assert cost.server_aggregation_time(1 << 20, num_pushers=16) > 0
