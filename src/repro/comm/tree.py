"""Binomial-tree broadcast and reduce.

The star patterns in :mod:`repro.comm.collectives` serialize the root's NIC
across ``n - 1`` messages; a binomial tree spreads the load over
``ceil(log2 n)`` rounds in which every holder forwards to one new member.
Loop implementations only (every round carries its payload); nothing in
``src/`` calls them — they are a public alternative to the star.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cluster.transport import Message
from ..tensor.tensor import DTYPE
from .group import CommGroup


def tree_broadcast(array: np.ndarray, group: CommGroup, root_index: int = 0) -> list[np.ndarray]:
    """Binomial broadcast from ``root_index``; log2(n) message rounds."""
    n = group.size
    results: list[np.ndarray] = [array.copy() for _ in range(n)]
    if n == 1:
        return results

    # Work in a rotated index space where the root is member 0.
    def actual(virtual: int) -> int:
        return group.ranks[(virtual + root_index) % n]

    have = {0}
    span = 1
    while span < n:
        messages = []
        senders = sorted(have)
        for src in senders:
            dst = src + span
            if dst < n:
                messages.append(Message(actual(src), actual(dst), array.copy()))
                have.add(dst)
        if messages:
            group.transport.exchange(messages)
        span *= 2
    return results


def tree_reduce(
    arrays: Sequence[np.ndarray], group: CommGroup, root_index: int = 0
) -> np.ndarray:
    """Binomial reduction (sum) to ``root_index``; log2(n) message rounds."""
    n = group.size
    if len(arrays) != n:
        raise ValueError(f"expected {n} arrays, got {len(arrays)}")
    partial = [a.astype(DTYPE, copy=True) for a in arrays]

    def actual(virtual: int) -> int:
        return group.ranks[(virtual + root_index) % n]

    span = 1
    while span < n:
        messages = []
        merges = []
        for dst in range(0, n, 2 * span):
            src = dst + span
            if src < n:
                messages.append(Message(actual(src), actual(dst), (src, partial[src])))
                merges.append((dst, src))
        if messages:
            group.transport.exchange(messages)
        for dst, src in merges:
            partial[dst] = partial[dst] + partial[src]
        span *= 2
    return partial[0]


def tree_allreduce(
    arrays: Sequence[np.ndarray], group: CommGroup, root_index: int = 0
) -> list[np.ndarray]:
    """Reduce to root, then broadcast — 2 log2(n) rounds total."""
    total = tree_reduce(arrays, group, root_index=root_index)
    return tree_broadcast(total, group, root_index=root_index)
