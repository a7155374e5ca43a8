"""Cost model for timing-mode simulation.

Communication costs are *measured* by replaying dry-run message schedules
(:mod:`repro.simulation.patterns`) on a scratch transport — not derived from
closed-form formulas — so contention effects (shared per-node NICs, ingress
serialization) are identical to what functional mode experiences.  Results
are memoized: costs depend only on sizes, codecs and the cluster, and the
pipeline simulator asks for the same bucket costs every iteration.

Compute-side constants model a V100-class GPU: FLOP throughput lives on the
:class:`~repro.cluster.topology.ClusterSpec`; this module adds memory-bound
costs (compression passes, optimizer updates), kernel-launch overhead, and
BytePS's server-side CPU aggregation bandwidth.
"""

from __future__ import annotations

from collections.abc import Callable

from ..cluster.topology import ClusterSpec
from ..cluster.transport import Transport
from ..comm.group import CommGroup
from ..compression.base import Compressor
from ..core.primitives import make_peer_selector
from . import patterns

#: device memory bandwidth (bytes/s) for memory-bound kernels
GPU_MEM_BW = 900e9
#: effective CPU summation throughput of a parameter server (bytes/s)
CPU_AGG_BW = 25e9
#: fixed cost of launching one GPU kernel
KERNEL_LAUNCH = 10e-6
#: memory passes needed to compress / decompress a tensor
COMPRESS_PASSES = 3
#: memory passes of one optimizer update (read grad, read/write state, write x)
UPDATE_PASSES = 4


class CommCostModel:
    """Memoized communication and kernel costs for one cluster."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self._cache: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Measurement plumbing
    # ------------------------------------------------------------------
    def _measure(self, key: tuple, run: Callable[[CommGroup], float]) -> float:
        if key not in self._cache:
            transport = Transport(self.spec)
            group = CommGroup(transport, list(range(self.spec.world_size)))
            self._cache[key] = run(group)
        return self._cache[key]

    @staticmethod
    def _wire(compressor: Compressor | None) -> patterns.WireFn:
        if compressor is None:
            return patterns.fp32_wire
        return compressor.wire_bytes

    # ------------------------------------------------------------------
    # Collective patterns
    # ------------------------------------------------------------------
    def ring_allreduce(self, elements: int, compressor: Compressor | None = None) -> float:
        key = ("ring", elements, compressor.name if compressor else None)
        wire = self._wire(compressor)
        return self._measure(key, lambda g: patterns.dry_ring_allreduce(g, elements, wire))

    def centralized(
        self,
        elements: int,
        compressor: Compressor | None = None,
        hierarchical: bool = False,
    ) -> float:
        """C_FP_S / C_LP_S cost (ScatterReduce, optionally hierarchical)."""
        key = ("central", elements, compressor.name if compressor else None, hierarchical)
        wire = self._wire(compressor)
        if hierarchical:
            return self._measure(
                key, lambda g: patterns.dry_hierarchical_allreduce(g, elements, wire, wire)
            )
        return self._measure(
            key, lambda g: patterns.dry_scatter_reduce(g, elements, wire, wire)
        )

    def decentralized(
        self,
        elements: int,
        compressor: Compressor | None = None,
        topology: str = "ring",
        hierarchical: bool = False,
    ) -> float:
        """D_FP_S / D_LP_S cost under a ring or random peer selector."""
        peers = make_peer_selector(topology)
        key = ("decen", elements, compressor.name if compressor else None, topology, hierarchical)
        wire = self._wire(compressor)
        return self._measure(
            key,
            lambda g: patterns.dry_decentralized(
                g, elements, peers, wire=wire, hierarchical=hierarchical
            ),
        )

    def ps_push_pull(self, elements: int, local_aggregation: bool = True) -> float:
        """BytePS push/pull network cost (server CPU cost charged separately)."""
        key = ("ps", elements, local_aggregation)
        return self._measure(
            key,
            lambda g: patterns.dry_ps_push_pull(
                g, elements, local_aggregation=local_aggregation
            ),
        )

    # ------------------------------------------------------------------
    # Kernel-side costs
    # ------------------------------------------------------------------
    def compress_time(self, elements: int) -> float:
        """GPU time to compress (or decompress) ``elements`` values."""
        return KERNEL_LAUNCH + COMPRESS_PASSES * elements * 4.0 / GPU_MEM_BW

    def update_time(self, elements: int, num_tensors: int = 1) -> float:
        """Optimizer update: one fused kernel per tensor (1 if flattened)."""
        return num_tensors * KERNEL_LAUNCH + UPDATE_PASSES * elements * 4.0 / GPU_MEM_BW

    def server_aggregation_time(self, elements: int, num_pushers: int) -> float:
        """CPU time for PS servers to sum all pushed shards.

        Work is spread over one server per node; each server sums
        ``num_pushers`` shards of its ``elements / num_nodes`` slice.
        """
        per_server_bytes = elements * 4.0 / self.spec.num_nodes * num_pushers
        return per_server_bytes / CPU_AGG_BW
