"""The ScatterReduce communication pattern (paper §3.3).

BAGUA runs its centralized primitives with ScatterReduce rather than ring
allreduce because, unlike a ring, it exposes two well-defined aggregation
points where lossy compression can be applied:

1. every worker partitions its tensor into ``n`` chunks and sends chunk ``j``
   to worker ``j`` (compressing each outgoing chunk — *phase 1*);
2. worker ``j`` decompresses and merges all received chunks for partition
   ``j``, then sends the merged chunk to everyone (compressing once —
   *phase 2*);
3. every worker decompresses the ``n`` merged chunks it receives and
   concatenates them into the aggregated tensor.

With identity compression this computes an exact sum using the aggregate
bandwidth of all workers, like allreduce.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .batched import scatter_reduce_batched
from .chunking import check_arrays, chunk_bounds, store_rows
from .collectives import allgather_payloads, alltoall
from .group import CommGroup

# A compressor maps (chunk, member_index, chunk_index) -> payload; the matching
# decompressor inverts it.  Indices let stateful wrappers (error feedback)
# address their per-partition state.
CompressFn = Callable[[np.ndarray, int, int], object]
DecompressFn = Callable[[object], np.ndarray]


def _identity_compress(chunk: np.ndarray, _member: int, _chunk_id: int) -> np.ndarray:
    return chunk.copy()


def _identity_decompress(payload: object) -> np.ndarray:
    return np.asarray(payload)


def scatter_reduce(
    arrays: Sequence[np.ndarray],
    group: CommGroup,
    compress_phase1: CompressFn | None = None,
    decompress_phase1: DecompressFn | None = None,
    compress_phase2: CompressFn | None = None,
    decompress_phase2: DecompressFn | None = None,
    out: Sequence[np.ndarray] | None = None,
    divisor: int = 1,
) -> list[np.ndarray]:
    """Aggregate (sum) per-member arrays with the ScatterReduce pattern.

    Phase hooks default to identity (exact C_FP_S).  Phase-1 compression is
    applied per outgoing chunk at its source member; phase-2 compression is
    applied once per merged partition at its owner.  Returns the aggregated
    array each member ends up with (identical across members only when the
    compressors are deterministic or identity).

    With all hooks at their identity defaults, a backend that prefers the
    batched kernels gets the world-batched one (bitwise-identical results and
    transport state); custom hooks always take the loop path, since arbitrary
    callables cannot be batched.  Codec-driven compression goes through
    :func:`repro.comm.batched.scatter_reduce_batched` via ``c_lp_s``.

    ``out`` (:func:`~.chunking.check_out`'s convention, validated by the
    primitives) receives the results and may be ``arrays`` itself: the
    batched kernel stores only after its last read, the loop copies its
    finished results in.  Without ``out`` the inputs are only read — except
    that the batched kernel reduces dense ``DTYPE`` rows living in their
    members' own backend pools in place and returns them (docs/primitives.md
    § "Where the result lands").  Every result is divided by ``divisor``.
    """
    hooks_default = (
        compress_phase1 is None
        and decompress_phase1 is None
        and compress_phase2 is None
        and decompress_phase2 is None
    )
    if hooks_default and group.transport.backend.prefers_fast_path:
        return scatter_reduce_batched(arrays, group, out=out, divisor=divisor)
    check_arrays(arrays, group)
    n = group.size
    c1 = compress_phase1 or _identity_compress
    d1 = decompress_phase1 or _identity_decompress
    c2 = compress_phase2 or _identity_compress
    d2 = decompress_phase2 or _identity_decompress

    total = arrays[0].shape[0]
    bounds = chunk_bounds(total, n)

    if n == 1:
        # copy=False: the identity phase-1 hook already copies, and custom
        # hooks never mutate their input — the extra eager copy was waste.
        merged = d2(c2(d1(c1(arrays[0].astype(DTYPE, copy=False), 0, 0)), 0, 0))
        return store_rows([merged], out, divisor)

    # Phase 1: all-to-all of compressed chunks (one message round).
    parts: list[list[object]] = []
    for i in range(n):
        row = []
        for j, (lo, hi) in enumerate(bounds):
            row.append(c1(arrays[i][lo:hi].astype(DTYPE, copy=False), i, j))
        parts.append(row)
    received = alltoall(parts, group)

    # Merge: member j sums the decompressed chunks of partition j.
    merged: list[np.ndarray] = []
    for j in range(n):
        acc = np.zeros(bounds[j][1] - bounds[j][0], DTYPE)
        for i in range(n):
            acc += d1(received[j][i])
        merged.append(acc)

    # Phase 2: broadcast each merged partition to all members (one round).
    compressed_merged = [c2(merged[j], j, j) for j in range(n)]
    gathered = allgather_payloads(compressed_merged, group)

    results: list[np.ndarray] = []
    for i in range(n):
        full = np.empty(total, DTYPE)
        for j, (lo, hi) in enumerate(bounds):
            full[lo:hi] = d2(gathered[i][j])
        results.append(full)
    return store_rows(results, out, divisor)
