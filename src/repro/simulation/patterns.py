"""Dry-run communication schedules for timing-mode simulation.

Timing mode needs the *cost* of full-scale communications (hundreds of MB per
tensor across 128 workers) without materializing the data.  Each function
here replays the exact message schedule of its real counterpart in
:mod:`repro.comm` / :mod:`repro.core.primitives`, but messages carry a
:class:`SizedPayload` stub declaring the wire size.  The shared
:class:`~repro.cluster.transport.Transport` charges time and bytes the same
way for both, so dry runs and real runs agree — a property the test suite
checks explicitly.

All functions advance the transport clocks of the participating ranks and
return the elapsed wall time (max participant clock minus start).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..cluster.transport import Message
from ..comm.chunking import chunk_bounds
from ..comm.group import CommGroup
from ..core.primitives import PeerSelector

# Maps an element count to wire bytes; IdentityCompressor.wire_bytes for
# full precision, or any Compressor.wire_bytes for low precision.
WireFn = Callable[[int], float]


@dataclass(frozen=True)
class SizedPayload:
    """A payload that exists only as a wire size."""

    wire_bytes: float


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
    chunk_elements = elements / n
    payload = SizedPayload(wire(int(chunk_elements)))
    for _round in range(2 * (n - 1)):
        messages = [
            Message(group.ranks[i], group.ranks[(i + 1) % n], payload)
            for i in range(n)
        ]
        group.transport.exchange(messages)
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

    # Staggered all-to-all (matches repro.comm.collectives.alltoall).
    messages = []
    for offset in range(1, n):
        for i in range(n):
            j = (i + offset) % n
            messages.append(
                Message(group.ranks[i], group.ranks[j], SizedPayload(wire_phase1(sizes[j])))
            )
    group.transport.exchange(messages)

    messages = []
    for offset in range(1, n):
        for j in range(n):
            i = (j + offset) % n
            messages.append(
                Message(group.ranks[j], group.ranks[i], SizedPayload(wire_phase2(sizes[j])))
            )
    group.transport.exchange(messages)
    return _elapsed(group, start)


def dry_gather(group: CommGroup, elements: int, wire: WireFn = fp32_wire) -> float:
    """Star gather to the first member."""
    start = group.transport.max_time(group.ranks)
    root = group.ranks[0]
    payload = SizedPayload(wire(elements))
    messages = [Message(rank, root, payload) for rank in group.ranks[1:]]
    if messages:
        group.transport.exchange(messages)
    return _elapsed(group, start)


def dry_broadcast(group: CommGroup, elements: int, wire: WireFn = fp32_wire) -> float:
    """Star broadcast from the first member."""
    start = group.transport.max_time(group.ranks)
    root = group.ranks[0]
    payload = SizedPayload(wire(elements))
    messages = [Message(root, rank, payload) for rank in group.ranks[1:]]
    if messages:
        group.transport.exchange(messages)
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

    neighbor_sets = peers.neighbors(group.size, step)
    payload = SizedPayload(wire(elements))
    messages = []
    for i, neighbors in enumerate(neighbor_sets):
        for j in neighbors:
            messages.append(Message(group.ranks[i], group.ranks[j], payload))
    if messages:
        group.transport.exchange(messages)
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
    num_servers = len(servers)
    chunk = SizedPayload(wire(int(elements / num_servers)))

    if local_aggregation:
        for sub in node_groups:
            dry_gather(sub, elements)
        pushers = servers
    else:
        pushers = list(group.ranks)

    # Push: each pusher sends one chunk to every server (self-sends free).
    messages = [
        Message(src, server, chunk)
        for src in pushers
        for server in servers
        if src != server
    ]
    if messages:
        group.transport.exchange(messages)
    # Pull: each server returns its aggregated chunk to every pusher.
    messages = [
        Message(server, dst, chunk)
        for server in servers
        for dst in pushers
        if dst != server
    ]
    if messages:
        group.transport.exchange(messages)

    if local_aggregation:
        for sub in node_groups:
            dry_broadcast(sub, elements)
    return _elapsed(group, start)
