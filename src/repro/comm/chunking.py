"""Shared chunk-partitioning helpers for collectives, buckets and simulation.

``chunk_bounds`` is the canonical "split a flat buffer into ``parts``
contiguous chunks" layout used by ScatterReduce, the ring kernels,
parameter-server sharding and the dry-run schedules.  It is pure and called
on every collective invocation, so results are memoized: the function
returns an immutable tuple-of-tuples that callers may safely share.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..tensor.tensor import DTYPE
if TYPE_CHECKING:
    from .group import CommGroup

#: One 1-D array per group member: a sequence of them, or the ``(world, n)``
#: matrix whose rows they are.
Rows = Sequence[np.ndarray] | np.ndarray


@lru_cache(maxsize=4096)
def chunk_bounds(length: int, parts: int) -> tuple[tuple, ...]:
    """Split ``range(length)`` into ``parts`` contiguous chunks (numpy-style).

    Returns ``((lo, hi), ...)`` with larger chunks first, exactly like
    ``np.array_split``.  Cached — the same (length, parts) pair is requested
    once per bucket per collective per round otherwise.
    """
    sizes = [length // parts + (1 if i < length % parts else 0) for i in range(parts)]
    bounds = []
    offset = 0
    for size in sizes:
        bounds.append((offset, offset + size))
        offset += size
    return tuple(bounds)


def check_arrays(arrays: Rows, group: CommGroup) -> None:
    """Validate the per-member input convention of the collectives.

    One 1-D array per group member, all the same shape.
    """
    if len(arrays) != group.size:
        raise ValueError(f"expected {group.size} arrays, got {len(arrays)}")
    shape = arrays[0].shape
    for i, a in enumerate(arrays):
        if a.ndim != 1:
            raise ValueError(
                f"collectives operate on flattened 1-D arrays; arg {i} has shape {a.shape}"
            )
        if a.shape != shape:
            raise ValueError(f"shape mismatch: member 0 has {shape}, member {i} has {a.shape}")


def check_out(
    out: Sequence[np.ndarray], arrays: Sequence[np.ndarray], like_inputs: bool = False
) -> None:
    """Validate the ``out=`` convention of the primitives.

    One ``DTYPE`` row per member, shaped like the inputs.  A row may be that
    member's own input — every kernel reads all inputs before its first
    store — but no two rows may share memory, or one member's result would
    overwrite another's (a bounds check, so it costs microseconds).

    ``like_inputs`` is the gossip primitives' variant: row ``i`` has
    ``arrays[i]``'s dtype (a peer average keeps its member's precision), and
    may share memory with no *other* member's input — the gossip kernel
    stores a pair's average as soon as the pair is read, not after the last
    read of the call.
    """
    if len(out) != len(arrays):
        raise ValueError(f"expected {len(arrays)} out rows, got {len(out)}")
    for i, row in enumerate(out):
        dtype = arrays[i].dtype if like_inputs else DTYPE
        if row.shape != arrays[0].shape or row.dtype != dtype:
            raise ValueError(
                f"out rows must be {dtype} of shape {arrays[0].shape}; "
                f"row {i} is {row.dtype} {row.shape}"
            )
        for j in range(i):
            if np.may_share_memory(out[j], row):
                raise ValueError(f"out rows {j} and {i} share memory")
        if like_inputs:
            for j, a in enumerate(arrays):
                if j != i and np.may_share_memory(a, row):
                    raise ValueError(f"out row {i} shares memory with another member's input ({j})")


def store_rows(
    rows: list[np.ndarray], out: Sequence[np.ndarray] | None, divisor: int = 1
) -> list[np.ndarray]:
    """Per-member results copied into the caller's ``out`` rows, if any.

    For paths whose results exist in full before anything is stored — the
    loop collectives, the in-place pool-ref reduce (whose results *are* the
    inputs) — so ``out`` rows may be the inputs themselves.  ``divisor``
    divides each stored row in place (without ``out``: into a fresh row).
    """
    if out is None:
        return rows if divisor == 1 else [row / divisor for row in rows]
    for dst, row in zip(out, rows):
        if dst is not row:
            dst[...] = row
        if divisor != 1:
            dst /= divisor
    return list(out)
