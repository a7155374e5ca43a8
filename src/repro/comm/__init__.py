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
from .chunking import chunk_bounds
from .collectives import (
    broadcast,
    gather,
    ring_all_gather_chunks,
    ring_allreduce,
    ring_reduce_scatter,
)
from .group import CommGroup
from .hierarchical import HierarchicalComm
from .scatter_reduce import scatter_reduce

__all__ = [
    "CommGroup",
    "ring_allreduce",
    "ring_reduce_scatter",
    "ring_all_gather_chunks",
    "gather",
    "broadcast",
    "scatter_reduce",
    "HierarchicalComm",
    # world-batched fast path
    "scatter_reduce_batched",
    "ring_allreduce_batched",
    "ring_reduce_scatter_batched",
    "ring_all_gather_chunks_batched",
    "gossip_average_batched",
    "alltoall_sizes",
    "allgather_sizes",
    "chunk_bounds",
]
