"""Hierarchical (two-level) communication (paper §3.4, optimization H).

Bandwidth inside a server (NVLink) dwarfs the TCP bandwidth between servers,
so BAGUA communicates in two tiers: aggregate locally without compression,
run the expensive inter-node step only among one elected leader per node, and
broadcast the result back within each node.

For decentralized primitives, hierarchy *changes the semantics*: workers
within a node are always fully synchronized (intra-node allreduce) while only
leaders perform the peer exchange — the paper calls this out explicitly.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .batched import (
    _replicate,
    _sum_rows,
    broadcast_sizes,
    gather_sizes,
    scatter_reduce_batched,
)
from .chunking import check_arrays, store_rows
from .collectives import broadcast, gather, ring_allreduce
from .group import CommGroup
from .scatter_reduce import CompressFn, DecompressFn, scatter_reduce
from ..tensor.tensor import DTYPE

if TYPE_CHECKING:
    from ..compression.base import Compressor
    from ..compression.error_feedback import ErrorFeedback


def hierarchical_phases(
    node_group: Sequence[int],
    leaders: Sequence[int],
    rank: int,
) -> list[tuple[str, tuple[int, ...]]]:
    """The phase sequence ``rank`` participates in under optimization H.

    Returns ``(phase, group)`` pairs in execution order, where ``phase`` is
    ``"reduce"`` (intra-node aggregation onto the leader), ``"inter"`` (the
    leader-subgroup exchange — ScatterReduce for centralized primitives, the
    peer exchange for decentralized ones) or ``"broadcast"`` (the result
    fanned back within the node).  Single-rank nodes skip the intra phases;
    non-leaders skip the inter phase; a single-node world has no inter
    phase at all.

    This is the *static* description of what :class:`HierarchicalComm`
    executes — the schedule lowering (:mod:`repro.analysis.lowering`) and
    the symbolic verifier enumerate per-rank events from exactly this structure,
    so what the analyzer proves is the phase order the communicator runs.
    """
    node = tuple(node_group)
    phases: list[tuple[str, tuple[int, ...]]] = []
    if len(node) > 1:
        phases.append(("reduce", node))
    if rank in leaders and len(leaders) > 1:
        phases.append(("inter", tuple(leaders)))
    if len(node) > 1:
        phases.append(("broadcast", node))
    return phases


class HierarchicalComm:
    """Two-tier communicator derived from a flat group."""

    def __init__(self, group: CommGroup) -> None:
        self.group = group
        self.node_groups = group.node_subgroups()
        self.leaders = group.leader_group()
        # Map each member index in the flat group to (node-group idx, idx within it).
        self._placement = {}
        for gi, sub in enumerate(self.node_groups):
            for li, rank in enumerate(sub.ranks):
                self._placement[rank] = (gi, li)

    def _split_by_node(self, arrays: Sequence[np.ndarray]) -> list[list[np.ndarray]]:
        per_node: list[list[np.ndarray]] = [[] for _ in self.node_groups]
        for member_idx, rank in enumerate(self.group.ranks):
            gi, _li = self._placement[rank]
            per_node[gi].append(arrays[member_idx])
        return per_node

    def _merge_from_node(self, per_node: list[list[np.ndarray]]) -> list[np.ndarray]:
        out: list[np.ndarray | None] = [None] * self.group.size
        for gi, sub in enumerate(self.node_groups):
            for li, rank in enumerate(sub.ranks):
                out[self.group.index_of(rank)] = per_node[gi][li]
        return [o for o in out if o is not None]

    # ------------------------------------------------------------------
    # Centralized: intra reduce -> inter scatter-reduce -> intra broadcast
    # ------------------------------------------------------------------
    def allreduce(
        self,
        arrays: Sequence[np.ndarray],
        compress_phase1: CompressFn | None = None,
        decompress_phase1: DecompressFn | None = None,
        compress_phase2: CompressFn | None = None,
        decompress_phase2: DecompressFn | None = None,
    ) -> list[np.ndarray]:
        """Hierarchical sum; compression hooks apply only to the inter-node tier."""
        per_node = self._split_by_node(arrays)

        # Tier 1: full-precision reduce to each node leader over NVLink.
        leader_sums: list[np.ndarray] = []
        for sub, node_arrays in zip(self.node_groups, per_node):
            gathered = gather(node_arrays, sub, root_index=0)
            leader_sums.append(np.sum(gathered, axis=0))

        # Tier 2: compressed ScatterReduce among leaders over TCP.
        aggregated = scatter_reduce(
            leader_sums,
            self.leaders,
            compress_phase1=compress_phase1,
            decompress_phase1=decompress_phase1,
            compress_phase2=compress_phase2,
            decompress_phase2=decompress_phase2,
        )

        # Tier 3: each leader broadcasts the aggregate within its node.
        results_per_node: list[list[np.ndarray]] = []
        for sub, agg in zip(self.node_groups, aggregated):
            results_per_node.append(broadcast(agg, sub, root_index=0))
        return self._merge_from_node(results_per_node)

    def allreduce_batched(
        self,
        arrays: Sequence[np.ndarray],
        codec: Compressor | None = None,
        worker_errors: Sequence[ErrorFeedback] | None = None,
        server_errors: Sequence[ErrorFeedback] | None = None,
        out: Sequence[np.ndarray] | None = None,
        divisor: int = 1,
    ) -> list[np.ndarray]:
        """Hierarchical sum, world-batched on all three tiers.

        Bitwise equal to :meth:`allreduce` driven by the codec's hooks,
        transport and compressor state included.  Each intra-node tier is
        one stub round carrying the loop ``gather`` / ``broadcast``'s sizes
        and match ids; the leader folds its node's rows without gathering
        copies of them and fans the aggregate out with one block store.  The
        inter-node ScatterReduce — where compression lives — runs through
        :func:`repro.comm.batched.scatter_reduce_batched`.  Error-feedback
        stores are indexed by leader-group member, exactly as the loop's
        compression hooks address them.  Returned rows never share memory
        with each other or, unless they are ``out``'s, with ``arrays``.

        ``out`` (:func:`~.chunking.check_out`'s convention, validated by the
        primitives) receives the results instead of fresh rows and may be
        ``arrays`` itself: the first tier has folded every input into the
        leader sums before the last tiers store anything.  The inter-node
        tier divides by ``divisor`` before the fan-out: at most once per node.
        """
        check_arrays(arrays, self.group)
        per_node = self._split_by_node(arrays)
        out_per_node = None if out is None else self._split_by_node(out)

        for sub, node_arrays in zip(self.node_groups, per_node):
            gather_sizes(sub, [a.nbytes for a in node_arrays])
        # One matrix of the rows' own dtype: ``DTYPE`` rows fold straight into
        # what the inter-node kernel works on; other rows fold in their own
        # precision, as the loop does, and the kernel casts them only then —
        # folded into a ``DTYPE`` row they would come out with different bits.
        leader_sums = np.empty(
            (len(per_node), arrays[0].shape[0]), dtype=np.result_type(*arrays)
        )
        for row, node_arrays in zip(leader_sums, per_node):
            _sum_rows(node_arrays, out=row)

        aggregated = scatter_reduce_batched(
            leader_sums,
            self.leaders,
            codec=codec,
            worker_errors=worker_errors,
            server_errors=server_errors,
            out=None if out_per_node is None else [rows[0] for rows in out_per_node],
            divisor=divisor,
        )

        results_per_node: list[list[np.ndarray]] = []
        for i, (sub, agg) in enumerate(zip(self.node_groups, aggregated)):
            broadcast_sizes(sub, float(agg.nbytes))
            node_out = None if out_per_node is None else out_per_node[i]
            results_per_node.append(_replicate(agg, sub.size, node_out))
        return self._merge_from_node(results_per_node)

    # ------------------------------------------------------------------
    # Decentralized: intra allreduce-average, leaders exchange with peers
    # ------------------------------------------------------------------
    def decentralized_average(
        self,
        arrays: Sequence[np.ndarray],
        leader_exchange: Callable[[Sequence[np.ndarray], CommGroup], list[np.ndarray]],
        out: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Intra-node average, leader peer exchange, intra-node broadcast.

        ``leader_exchange`` runs the decentralized step among node leaders
        (e.g. ring or random peer averaging from :mod:`repro.core.primitives`)
        on the ``DTYPE`` node means, which the leaders own: it may average them
        in place.  On a backend that runs the batched kernels no tier sends a
        payload: the intra-node allreduce and the leaders' gossip are
        stub-round kernels already, and the fan-out is one ``broadcast_sizes``
        stub round per node.

        Every member's result is stored into its ``out`` row
        (:func:`~.chunking.check_out`'s ``like_inputs`` convention, validated
        by the primitives), which may be its input: the first tier has read
        every input before the last stores anything.  Without ``out`` the
        rows are fresh, each in its member's input dtype.
        """
        fast = self.group.transport.backend.prefers_fast_path
        per_node = self._split_by_node(arrays)
        if out is None:
            out = [np.empty_like(a) for a in arrays]
        out_per_node = self._split_by_node(out)

        node_means: list[np.ndarray] = []
        for sub, node_arrays in zip(self.node_groups, per_node):
            if sub.size == 1:
                node_means.append(node_arrays[0].astype(DTYPE, copy=True))
            else:
                summed = ring_allreduce(node_arrays, sub)
                node_means.append(summed[0] / sub.size)

        exchanged = leader_exchange(node_means, self.leaders)

        for sub, result, node_out in zip(self.node_groups, exchanged, out_per_node):
            if fast:
                broadcast_sizes(sub, float(result.nbytes))
                store_rows([result] * sub.size, node_out)
            else:
                store_rows(broadcast(result, sub, root_index=0), node_out)
        return list(out)
