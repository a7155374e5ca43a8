"""NCCL-like collectives over the simulated transport.

Public entry points ask the group's transport backend which implementation
to run: ``backend.prefers_fast_path`` selects the world-batched kernels of
:mod:`repro.comm.batched` (``batched``, ``shm``), otherwise the per-rank loop
implementations of :mod:`repro.comm.collectives` run — the reference oracle,
reached with ``backend="local"``.  The two are bitwise indistinguishable.
"""

from .batched import (
    allgather_sizes,
    alltoall_sizes,
    gossip_average_batched,
    ring_all_gather_chunks_batched,
    ring_allreduce_batched,
    ring_reduce_scatter_batched,
    scatter_reduce_batched,
)
from .chunking import chunk_bounds, chunk_sizes
from .collectives import (
    allreduce_via_root,
    broadcast,
    gather,
    reduce_to_root,
    ring_all_gather_chunks,
    ring_allreduce,
    ring_reduce_scatter,
    send_recv,
)
from .group import CommGroup
from .hierarchical import HierarchicalComm
from .scatter_reduce import scatter_reduce
from .tree import tree_allreduce, tree_broadcast, tree_reduce

__all__ = [
    "CommGroup",
    "ring_allreduce",
    "ring_reduce_scatter",
    "ring_all_gather_chunks",
    "gather",
    "broadcast",
    "reduce_to_root",
    "allreduce_via_root",
    "send_recv",
    "scatter_reduce",
    "HierarchicalComm",
    "tree_broadcast",
    "tree_reduce",
    "tree_allreduce",
    # world-batched fast path
    "scatter_reduce_batched",
    "ring_allreduce_batched",
    "ring_reduce_scatter_batched",
    "ring_all_gather_chunks_batched",
    "gossip_average_batched",
    "alltoall_sizes",
    "allgather_sizes",
    "chunk_bounds",
    "chunk_sizes",
]
