"""Dry-run communication schedules for timing-mode simulation.

Timing mode needs the *cost* of full-scale communications (hundreds of MB per
tensor across 128 workers) without materializing the data.  Each function
here replays the exact send schedule of its real counterpart in
:mod:`repro.comm` / :mod:`repro.core.primitives` as size-only rounds —
``(src, dst, nbytes, None)`` lists passed to
:meth:`~repro.cluster.transport.Transport.exchange_sized`, one list reused
for every round that repeats it.  No message object is built and the
backend is never reached; the transport times and charges a size-only
round with the same routine it runs for a real message round, so dry runs
and real runs agree — a property the test suite checks explicitly.

All functions advance the transport clocks of the participating ranks and
return the elapsed wall time (max participant clock minus start).
"""

from __future__ import annotations

from collections.abc import Callable

from ..comm.chunking import chunk_bounds
from ..comm.group import CommGroup
from ..core.primitives import PeerSelector

# Maps an element count to wire bytes; IdentityCompressor.wire_bytes for
# full precision, or any Compressor.wire_bytes for low precision.
WireFn = Callable[[int], float]


def fp32_wire(elements: int) -> float:
    return elements * 4.0


def _elapsed(group: CommGroup, start: float) -> float:
    return group.transport.max_time(group.ranks) - start


def dry_ring_allreduce(group: CommGroup, elements: int, wire: WireFn = fp32_wire) -> float:
    """Ring allreduce schedule: 2(n-1) rounds of one chunk per member."""
    n = group.size
    start = group.transport.max_time(group.ranks)
    if n == 1:
        return 0.0
    nbytes = float(wire(int(elements / n)))
    ranks = group.ranks
    sends = [(ranks[i], ranks[(i + 1) % n], nbytes, None) for i in range(n)]
    for _round in range(2 * (n - 1)):
        group.transport.exchange_sized(sends)
    return _elapsed(group, start)


def dry_scatter_reduce(
    group: CommGroup,
    elements: int,
    wire_phase1: WireFn = fp32_wire,
    wire_phase2: WireFn = fp32_wire,
) -> float:
    """ScatterReduce schedule: one all-to-all round + one all-gather round."""
    n = group.size
    start = group.transport.max_time(group.ranks)
    if n == 1:
        return 0.0
    sizes = [hi - lo for lo, hi in chunk_bounds(elements, n)]
    phase1 = [float(wire_phase1(size)) for size in sizes]
    phase2 = [float(wire_phase2(size)) for size in sizes]
    ranks = group.ranks
    # Staggered all-to-all (matches repro.comm.collectives.alltoall): member
    # i sends member j its chunk j; then j gathers its reduced chunk to all.
    group.transport.exchange_sized(
        [
            (ranks[i], ranks[(i + offset) % n], phase1[(i + offset) % n], None)
            for offset in range(1, n)
            for i in range(n)
        ]
    )
    group.transport.exchange_sized(
        [
            (ranks[j], ranks[(j + offset) % n], phase2[j], None)
            for offset in range(1, n)
            for j in range(n)
        ]
    )
    return _elapsed(group, start)


def dry_gather(group: CommGroup, elements: int, wire: WireFn = fp32_wire) -> float:
    """Star gather to the first member."""
    start = group.transport.max_time(group.ranks)
    root = group.ranks[0]
    nbytes = float(wire(elements))
    group.transport.exchange_sized([(rank, root, nbytes, None) for rank in group.ranks[1:]])
    return _elapsed(group, start)


def dry_broadcast(group: CommGroup, elements: int, wire: WireFn = fp32_wire) -> float:
    """Star broadcast from the first member."""
    start = group.transport.max_time(group.ranks)
    root = group.ranks[0]
    nbytes = float(wire(elements))
    group.transport.exchange_sized([(root, rank, nbytes, None) for rank in group.ranks[1:]])
    return _elapsed(group, start)


def dry_hierarchical_allreduce(
    group: CommGroup,
    elements: int,
    wire_phase1: WireFn = fp32_wire,
    wire_phase2: WireFn = fp32_wire,
) -> float:
    """Two-tier allreduce: intra gather -> leader ScatterReduce -> intra broadcast."""
    start = group.transport.max_time(group.ranks)
    node_groups = group.node_subgroups()
    for sub in node_groups:
        dry_gather(sub, elements)
    leaders = group.leader_group()
    if leaders.size > 1:
        dry_scatter_reduce(leaders, elements, wire_phase1, wire_phase2)
    for sub in node_groups:
        dry_broadcast(sub, elements)
    return _elapsed(group, start)


def dry_decentralized(
    group: CommGroup,
    elements: int,
    peers: PeerSelector,
    step: int = 0,
    wire: WireFn = fp32_wire,
    hierarchical: bool = False,
) -> float:
    """Peer-exchange schedule of D_FP_S / D_LP_S (one message round)."""
    start = group.transport.max_time(group.ranks)
    if hierarchical:
        node_groups = group.node_subgroups()
        for sub in node_groups:
            if sub.size > 1:
                dry_ring_allreduce(sub, elements)
        leaders = group.leader_group()
        if leaders.size > 1:
            dry_decentralized(leaders, elements, peers, step=step, wire=wire)
        for sub in node_groups:
            dry_broadcast(sub, elements)
        return _elapsed(group, start)

    nbytes = float(wire(elements))
    ranks = group.ranks
    group.transport.exchange_sized(
        [
            (ranks[i], ranks[j], nbytes, None)
            for i, neighbors in enumerate(peers.neighbors(group.size, step))
            for j in neighbors
        ]
    )
    return _elapsed(group, start)


def dry_ps_push_pull(
    group: CommGroup,
    elements: int,
    wire: WireFn = fp32_wire,
    local_aggregation: bool = True,
) -> float:
    """BytePS-style push/pull against servers co-located one per node.

    The tensor is partitioned into one chunk per server.  With local
    aggregation (BytePS's default on multi-GPU machines) workers first reduce
    within their node over NVLink and only node leaders talk to servers;
    without it every worker pushes and pulls every chunk over the NIC.
    """
    start = group.transport.max_time(group.ranks)
    node_groups = group.node_subgroups()
    servers = [sub.ranks[0] for sub in node_groups]
    chunk = float(wire(int(elements / len(servers))))

    if local_aggregation:
        for sub in node_groups:
            dry_gather(sub, elements)
        pushers = servers
    else:
        pushers = list(group.ranks)

    # Push: each pusher sends one chunk to every server (self-sends free).
    group.transport.exchange_sized(
        [(src, server, chunk, None) for src in pushers for server in servers if src != server]
    )
    # Pull: each server returns its aggregated chunk to every pusher.
    group.transport.exchange_sized(
        [(server, dst, chunk, None) for server in servers for dst in pushers if dst != server]
    )

    if local_aggregation:
        for sub in node_groups:
            dry_broadcast(sub, elements)
    return _elapsed(group, start)
