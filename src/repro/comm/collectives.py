"""MPI-style collectives implemented from point-to-point message rounds.

Every function takes ``arrays`` — one 1-D numpy array per group member, in
``group.ranks`` order — and returns per-member results.  This god's-eye
calling convention is how the lock-step trainer drives the simulated workers;
the message schedules underneath are the real thing (ring reduce-scatter,
all-gather, star gather, ...), and the transport charges their simulated
time and bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cluster.transport import Message
from ..tensor.tensor import DTYPE
from .batched import (
    ring_all_gather_chunks_batched,
    ring_allreduce_batched,
    ring_reduce_scatter_batched,
)
from .chunking import check_arrays as _check_arrays
from .chunking import chunk_bounds
from .group import CommGroup


# ----------------------------------------------------------------------
# Ring allreduce (Horovod / PyTorch-DDP substrate)
# ----------------------------------------------------------------------
def ring_reduce_scatter(arrays: Sequence[np.ndarray], group: CommGroup) -> list[np.ndarray]:
    """Ring reduce-scatter: member i ends with the full sum of chunk i.

    Runs ``n - 1`` rounds; in round r, member i sends chunk ``(i - r) mod n``
    to its right neighbor and accumulates the chunk arriving from the left.
    Returns the reduced chunk owned by each member.
    """
    if group.transport.backend.prefers_fast_path:
        return ring_reduce_scatter_batched(arrays, group)
    _check_arrays(arrays, group)
    n = group.size
    bounds = chunk_bounds(arrays[0].shape[0], n)
    work = [a.astype(DTYPE, copy=True) for a in arrays]
    if n == 1:
        return [work[0]]

    for r in range(n - 1):
        messages = []
        for i in range(n):
            chunk = (i - r) % n
            lo, hi = bounds[chunk]
            # The slice is sent as a view: messages for the round are built
            # before any receiver mutates its buffer, and a receiver only
            # updates chunk (i-1-r) while forwarding chunk (i-r) — disjoint,
            # so skipping the copy is safe.
            messages.append(
                Message(
                    group.ranks[i], group.ranks[(i + 1) % n],
                    (chunk, work[i][lo:hi]),
                    match_id=f"rs.r{r}.c{chunk}",
                )
            )
        inbox = group.transport.exchange(messages)
        for i in range(n):
            chunk, data = inbox[group.ranks[i]][0].payload
            lo, hi = bounds[chunk]
            work[i][lo:hi] += data

    out = []
    for i in range(n):
        lo, hi = bounds[(i + 1) % n]
        out.append(work[i][lo:hi].copy())
    return out


def ring_all_gather_chunks(
    chunks: Sequence[np.ndarray],
    owners: Sequence[int],
    group: CommGroup,
    total: int,
) -> list[np.ndarray]:
    """Ring all-gather of per-member chunks into full arrays.

    ``chunks[i]`` is the chunk owned by member i whose id is ``owners[i]``;
    chunk ids index into the canonical ``chunk_bounds(total, n)`` layout.
    """
    if group.transport.backend.prefers_fast_path:
        return ring_all_gather_chunks_batched(chunks, owners, group, total)
    n = group.size
    bounds = chunk_bounds(total, n)
    results = [np.zeros(total, DTYPE) for _ in range(n)]
    for i in range(n):
        lo, hi = bounds[owners[i]]
        results[i][lo:hi] = chunks[i]

    # In round r, member i forwards the chunk it received r rounds ago —
    # i.e. the chunk originally owned by member (i - r) mod n.  As in
    # ring_reduce_scatter, the forwarded slice is a view: the chunk a member
    # overwrites on receive is never the one it just sent.
    for r in range(n - 1):
        messages = []
        for i in range(n):
            chunk_id = owners[(i - r) % n]
            lo, hi = bounds[chunk_id]
            messages.append(
                Message(
                    group.ranks[i], group.ranks[(i + 1) % n],
                    (chunk_id, results[i][lo:hi]),
                    match_id=f"ag.r{r}.c{chunk_id}",
                )
            )
        inbox = group.transport.exchange(messages)
        for i in range(n):
            chunk_id, data = inbox[group.ranks[i]][0].payload
            lo, hi = bounds[chunk_id]
            results[i][lo:hi] = data
    return results


def ring_allreduce(arrays: Sequence[np.ndarray], group: CommGroup) -> list[np.ndarray]:
    """Classic two-phase ring allreduce (sum); 2(n-1) rounds of S/n bytes.

    On a backend that runs the batched kernels, dense ``DTYPE`` rows living in
    their members' own backend pools are reduced in place — the returned
    rows *are* the inputs; any other input (other dtypes, arrays owning
    their storage, every input on ``local``) is only read.  See
    docs/primitives.md § "Where the result lands".
    """
    if group.transport.backend.prefers_fast_path:
        return ring_allreduce_batched(arrays, group)
    _check_arrays(arrays, group)
    n = group.size
    if n == 1:
        return [arrays[0].astype(DTYPE, copy=True)]
    total = arrays[0].shape[0]
    reduced = ring_reduce_scatter(arrays, group)
    owners = [(i + 1) % n for i in range(n)]
    return ring_all_gather_chunks(reduced, owners, group, total)


# ----------------------------------------------------------------------
# Star-pattern collectives (parameter-server substrate)
# ----------------------------------------------------------------------
def gather(arrays: Sequence[np.ndarray], group: CommGroup, root_index: int = 0) -> list[np.ndarray]:
    """All members send to ``root_index``; returns the gathered list at root order."""
    _check_arrays(arrays, group)
    root = group.ranks[root_index]
    messages = [
        Message(group.ranks[i], root, (i, arrays[i].copy()), match_id=f"gather.m{i}")
        for i in range(group.size)
        if i != root_index
    ]
    gathered: list[np.ndarray | None] = [None] * group.size
    gathered[root_index] = arrays[root_index].copy()
    if messages:
        inbox = group.transport.exchange(messages)
        for msg in inbox[root]:
            idx, data = msg.payload
            gathered[idx] = data
    return [g for g in gathered if g is not None]


def broadcast(array: np.ndarray, group: CommGroup, root_index: int = 0) -> list[np.ndarray]:
    """Root sends ``array`` to every other member (flat star broadcast)."""
    root = group.ranks[root_index]
    messages = [
        Message(root, group.ranks[i], array.copy(), match_id=f"bcast.m{i}")
        for i in range(group.size)
        if i != root_index
    ]
    results: list[np.ndarray] = [array.copy() for _ in range(group.size)]
    if messages:
        group.transport.exchange(messages)
    return results


def alltoall(parts: Sequence[Sequence], group: CommGroup) -> list[list]:
    """``parts[i][j]`` travels from member i to member j; one message round.

    Returns ``received`` with ``received[j][i]`` = payload sent by member i
    to member j (``received[j][j]`` is member j's own part, no message).
    """
    n = group.size
    if any(len(p) != n for p in parts):
        raise ValueError("alltoall needs an n x n grid of parts")
    # Staggered schedule: in slot ``offset`` member i targets (i + offset) so
    # every member sends and receives exactly one part per slot — no receiver
    # hotspot (the standard balanced all-to-all ordering).
    messages = []
    for offset in range(1, n):
        for i in range(n):
            j = (i + offset) % n
            messages.append(Message(group.ranks[i], group.ranks[j], (i, parts[i][j])))
    received: list[list] = [[None] * n for _ in range(n)]
    for j in range(n):
        received[j][j] = parts[j][j]
    if messages:
        inbox = group.transport.exchange(messages)
        for j in range(n):
            for msg in inbox.get(group.ranks[j], []):
                i, payload = msg.payload
                received[j][i] = payload
    return received


def allgather_payloads(payloads: Sequence, group: CommGroup) -> list[list]:
    """Every member sends its payload to every other member; one round."""
    n = group.size
    messages = []
    for offset in range(1, n):
        for i in range(n):
            j = (i + offset) % n
            messages.append(Message(group.ranks[i], group.ranks[j], (i, payloads[i])))
    results: list[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        results[i][i] = payloads[i]
    if messages:
        inbox = group.transport.exchange(messages)
        for j in range(n):
            for msg in inbox.get(group.ranks[j], []):
                i, payload = msg.payload
                results[j][i] = payload
    return results
