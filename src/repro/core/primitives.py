"""BAGUA's communication primitives (paper §3.2 / §3.3).

All four primitives follow the MPI-like execution model
``op(x_1..x_n) -> x'_1..x'_n``: they take one flattened array per group
member and return the per-member results.  All four also take ``out=``: one
row per member that receives that member's result (``DTYPE`` for the
centralized pair, the member's input dtype for the decentralized one) — the
engine passes the pool rows it read the inputs from, so a reduced gradient
bucket lands where the optimizer reads it and an averaged weight bucket
where the model keeps it.

* :func:`c_fp_s` — centralized full-precision synchronous: every member ends
  with ``sum_j x_j``, or with ``average=True`` that ``/ n`` (Allreduce
  semantics, ScatterReduce implementation).
* :func:`c_lp_s` — centralized low-precision synchronous with optional
  two-sided error compensation (worker deltas, server epsilons).
* :func:`d_fp_s` — decentralized full-precision: each member averages with
  its peers under a ring or random peer selector.
* :func:`d_lp_s` — decentralized low-precision: peers exchange compressed
  tensors.

Each primitive accepts ``hierarchical=True`` to run the two-tier optimized
variant of §3.4 (which, for decentralized primitives, intentionally changes
semantics: workers within a node are fully synchronized).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..comm.batched import (
    decompress_compatible,
    gossip_average_batched,
    scatter_reduce_batched,
)
from ..comm.chunking import check_arrays, check_out, store_rows
from ..comm.group import CommGroup
from ..comm.hierarchical import HierarchicalComm
from ..comm.scatter_reduce import scatter_reduce
from ..compression.base import Compressor
from ..compression.error_feedback import ErrorFeedback
from ..cluster.transport import Message
from ..tensor.tensor import DTYPE


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _trace_collective(group: CommGroup, kind: str, elements: int, **meta) -> None:
    """Report one collective invocation to an installed trace recorder.

    A no-op unless a :class:`repro.analysis.recorder.TraceRecorder` is
    attached to the group's transport — the analysis subsystem's view into
    which primitives ran, with what payloads, codecs and peer sets.
    """
    tracer = group.tracer
    if tracer is not None:
        tracer.on_collective(group, kind, elements, **meta)


# ----------------------------------------------------------------------
# Centralized
# ----------------------------------------------------------------------
def c_fp_s(
    arrays: Sequence[np.ndarray],
    group: CommGroup,
    hierarchical: bool = False,
    out: Sequence[np.ndarray] | None = None,
    average: bool = False,
) -> list[np.ndarray]:
    """Centralized full-precision sum: ``x'_i = sum_j x_j`` for all i
    (``/ group.size`` with ``average``).

    Returned rows never share memory with each other, on any path (loop,
    batched, hierarchical, pool-ref): callers may update each in place.

    With ``out`` the results are stored into its rows and those are returned
    — bitwise what ``out=None`` returns, transport state included.  One
    ``DTYPE`` row per member, no two sharing memory (``ValueError``); a row
    may be the member's input (``out=arrays``), because on every path each
    read of an input precedes the first store.

    Without ``out`` the inputs are only read, with one exception: on a
    backend that runs the batched kernels (``batched``, ``shm``), flat
    (``hierarchical=False``) and among two or more members, dense ``DTYPE``
    rows that each live in their member's own backend pool are reduced in
    place — the returned rows *are* the inputs.  A caller that still needs
    such an input after the call copies it first (docs/primitives.md §
    "Where the result lands").
    """
    if out is not None:
        check_out(out, arrays)
    _trace_collective(group, "allreduce", arrays[0].size)
    divisor = group.size if average else 1
    if hierarchical:
        comm = HierarchicalComm(group)
        if group.transport.backend.prefers_fast_path:
            return comm.allreduce_batched(arrays, out=out, divisor=divisor)
        return store_rows(comm.allreduce(arrays), out, divisor)
    return scatter_reduce(arrays, group, out=out, divisor=divisor)


def c_lp_s(
    arrays: Sequence[np.ndarray],
    group: CommGroup,
    compressor: Compressor,
    worker_errors: Sequence[ErrorFeedback] | None = None,
    server_errors: Sequence[ErrorFeedback] | None = None,
    hierarchical: bool = False,
    out: Sequence[np.ndarray] | None = None,
    average: bool = False,
) -> list[np.ndarray]:
    """Centralized low-precision sum with optional error compensation.

    Without error feedback this computes ``x'_i = Q(sum_j Q(x_j))`` — both
    the worker-side chunks and the merged partitions travel compressed;
    ``average`` divides it by ``group.size``.

    With error feedback, member ``i`` sends ``Q(x_i - delta_i)`` (per chunk)
    and the partition owner sends ``Q(sum - eps)``; the residuals are updated
    inside the :class:`ErrorFeedback` stores, matching the paper's C_LP_S
    semantics.  ``worker_errors[i]`` is member i's delta store (keyed by chunk
    index), ``server_errors[j]`` is member j's epsilon store for the
    partition it owns.

    With ``hierarchical=True`` compression applies only between node leaders;
    intra-node traffic stays full-precision (the H optimization, which the
    paper notes "can potentially change the semantics").

    Returned rows never share memory with each other, on any path (loop,
    batched, hierarchical, with or without error feedback): callers may
    update each in place.

    With ``out`` the results are stored into its rows and those are returned
    — bitwise what ``out=None`` returns, transport, RNG and residual state
    included.  One ``DTYPE`` row per member, no two sharing memory
    (``ValueError``); a row may be the member's input (``out=arrays``),
    because on every path each read of an input precedes the first store.
    """
    if (worker_errors is None) != (server_errors is None):
        raise ValueError("provide both worker_errors and server_errors, or neither")
    if out is not None:
        check_out(out, arrays)
    use_ef = worker_errors is not None
    if use_ef and (len(worker_errors) != group.size or len(server_errors) != group.size):
        raise ValueError("need one error-feedback store per group member")
    _trace_collective(
        group,
        "compressed_allreduce",
        arrays[0].size,
        compressor=compressor.name,
        biased=compressor.biased,
        error_feedback=use_ef,
    )
    divisor = group.size if average else 1

    # The batched kernel substitutes each member's own-codec roundtrip for
    # the loop's shared-codec decompress, so the EF variant only routes when
    # the two decompress functions provably coincide.
    batchable = not use_ef or all(
        decompress_compatible(store.compressor, compressor)
        for store in (*worker_errors, *server_errors)
    )
    if group.transport.backend.prefers_fast_path and batchable:
        if hierarchical:
            return HierarchicalComm(group).allreduce_batched(
                arrays,
                codec=compressor,
                worker_errors=worker_errors,
                server_errors=server_errors,
                out=out,
                divisor=divisor,
            )
        return scatter_reduce_batched(
            arrays,
            group,
            codec=compressor,
            worker_errors=worker_errors,
            server_errors=server_errors,
            out=out,
            divisor=divisor,
        )

    if use_ef:
        def compress1(chunk: np.ndarray, member: int, chunk_id: int):
            return worker_errors[member].compress(chunk, key=("w", chunk_id))

        def compress2(merged: np.ndarray, member: int, chunk_id: int):
            return server_errors[member].compress(merged, key=("s", chunk_id))
    else:
        def compress1(chunk: np.ndarray, member: int, chunk_id: int):
            return compressor.compress(chunk)

        def compress2(merged: np.ndarray, member: int, chunk_id: int):
            return compressor.compress(merged)

    decompress = compressor.decompress

    if hierarchical:
        results = HierarchicalComm(group).allreduce(
            arrays,
            compress_phase1=compress1,
            decompress_phase1=decompress,
            compress_phase2=compress2,
            decompress_phase2=decompress,
        )
        return store_rows(results, out, divisor)
    return scatter_reduce(
        arrays,
        group,
        compress_phase1=compress1,
        decompress_phase1=decompress,
        compress_phase2=compress2,
        decompress_phase2=decompress,
        out=out,
        divisor=divisor,
    )


# ----------------------------------------------------------------------
# Peer selection for decentralized primitives
# ----------------------------------------------------------------------
class PeerSelector:
    """Chooses each member's neighbor set N(i) for one decentralized round."""

    def neighbors(self, n: int, step: int) -> list[list[int]]:
        """Return, for each member index, the indices it exchanges with."""
        raise NotImplementedError


class RingPeers(PeerSelector):
    """Fixed ring: member i talks to i-1 and i+1 (paper's 'ring' strategy)."""

    def neighbors(self, n: int, step: int) -> list[list[int]]:
        if n == 1:
            return [[]]
        if n == 2:
            return [[1], [0]]
        return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


class RandomPeers(PeerSelector):
    """Random pairing per step (the 'random probing' strategy of Decen-32bits).

    All members share the same RNG stream seeded by ``step`` so every worker
    derives the identical matching without extra coordination — the standard
    trick for randomized decentralized SGD.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        # The last matching drawn, keyed by (seed, n, step): every bucket of
        # a step asks for the same one, and a draw builds a fresh Generator.
        self._last: tuple[tuple[int, int, int], list[list[int]]] | None = None

    def neighbors(self, n: int, step: int) -> list[list[int]]:
        if n == 1:
            return [[]]
        key = (self.seed, n, step)
        if self._last is None or self._last[0] != key:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, step]))
            order = rng.permutation(n)
            peers: list[list[int]] = [[] for _ in range(n)]
            # Pair consecutive members of the permutation; odd member out idles.
            for a, b in zip(order[0::2], order[1::2]):
                peers[int(a)] = [int(b)]
                peers[int(b)] = [int(a)]
            self._last = (key, peers)
        # Fresh lists, so a caller that edits its copy cannot change the next.
        return [list(neigh) for neigh in self._last[1]]


def make_peer_selector(topology: str, seed: int = 0) -> PeerSelector:
    """The selector an algorithm's declared ``topology`` names."""
    if topology == "ring":
        return RingPeers()
    if topology == "random":
        return RandomPeers(seed=seed)
    raise ValueError(f"unknown gossip topology {topology!r}; use 'ring' or 'random'")


# ----------------------------------------------------------------------
# Decentralized
# ----------------------------------------------------------------------
def check_neighbor_sets(neighbor_sets: Sequence[Sequence[int]], n: int) -> None:
    """Validate one gossip round's peer choice before anything is sent or stored.

    One set per member, every index a member of the group, none the member
    itself (it would be averaged twice), none listed twice.
    """
    if len(neighbor_sets) != n:
        raise ValueError(f"expected one neighbor set per member ({n}), got {len(neighbor_sets)}")
    for i, neigh in enumerate(neighbor_sets):
        if any(not 0 <= j < n for j in neigh):
            raise ValueError(f"member {i}'s neighbor set {list(neigh)} leaves the group of {n}")
        if i in neigh:
            raise ValueError(f"member {i} lists itself as a neighbor")
        if len(set(neigh)) != len(neigh):
            raise ValueError(f"member {i}'s neighbor set {list(neigh)} names a peer twice")


def _peer_average(
    arrays: Sequence[np.ndarray],
    payloads: Sequence,
    decode,
    peers: Sequence[Sequence[int]],
    group: CommGroup,
    out: Sequence[np.ndarray] | None,
) -> list[np.ndarray]:
    """The loop reference of both gossip primitives.

    One message round delivers ``payloads[i]`` to every peer of i; member j
    then averages its own ``arrays[j]`` with ``decode(payload)`` of what it
    received, sources ascending.  Every average exists before any is stored
    into ``out``.
    """
    messages = []
    for i, neigh in enumerate(peers):
        for j in neigh:
            messages.append(
                Message(
                    group.ranks[i], group.ranks[j], (i, payloads[i]),
                    match_id=f"gossip.m{i}->{j}",
                )
            )
    inbox = group.transport.exchange(messages) if messages else {}
    results = []
    for j in range(group.size):
        received = sorted(dict(msg.payload for msg in inbox.get(group.ranks[j], [])).items())
        # Accumulate in the wire dtype, but hand the result back in the
        # caller's dtype — a replica of another precision must not have its
        # weights silently cast by one gossip round.
        acc = arrays[j].astype(DTYPE, copy=True)
        for _src, payload in received:
            acc += decode(payload)
        results.append((acc / (1 + len(received))).astype(arrays[j].dtype, copy=False))
    return store_rows(results, out)


def _gossip(
    arrays: Sequence[np.ndarray],
    group: CommGroup,
    compressor: Compressor | None,
    peers: PeerSelector,
    step: int,
    hierarchical: bool,
    out: Sequence[np.ndarray] | None,
) -> list[np.ndarray]:
    """D_FP_S (``compressor=None``) and D_LP_S: validate, then one peer round.

    Under ``hierarchical`` the round runs among the node leaders, in place on
    the node means :meth:`HierarchicalComm.decentralized_average` hands them.
    """
    check_arrays(arrays, group)
    if out is not None:
        check_out(out, arrays, like_inputs=True)
    comm = HierarchicalComm(group) if hierarchical else None
    gossipers = group if comm is None else comm.leaders
    neighbor_sets = peers.neighbors(gossipers.size, step)
    check_neighbor_sets(neighbor_sets, gossipers.size)

    kind, meta = "gossip", {}
    if compressor is not None:
        kind, meta = "compressed_gossip", {"compressor": compressor.name, "biased": compressor.biased}

    def exchange(rows, members, dest):
        _trace_collective(members, kind, rows[0].size, **meta, peers_by_member=neighbor_sets)
        if members.transport.backend.prefers_fast_path:
            return gossip_average_batched(rows, neighbor_sets, members, codec=compressor, out=dest)
        if compressor is None:
            payloads, decode = [a.astype(DTYPE, copy=False) for a in rows], lambda payload: payload
        else:
            payloads, decode = [compressor.compress(a) for a in rows], compressor.decompress
        return _peer_average(rows, payloads, decode, neighbor_sets, members, dest)

    if comm is None:
        return exchange(arrays, group, out)
    return comm.decentralized_average(
        arrays, lambda means, leaders: exchange(means, leaders, means), out=out
    )


def d_fp_s(
    arrays: Sequence[np.ndarray],
    group: CommGroup,
    peers: PeerSelector,
    step: int = 0,
    hierarchical: bool = False,
    out: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Decentralized full-precision averaging: ``x'_i = mean of {x_i} ∪ N(i)``.

    Each result has its member's input dtype; returned rows never share
    memory with each other.  The peer choice is validated before anything is
    sent (:func:`check_neighbor_sets`, ``ValueError`` naming the member).

    With ``out`` the results are stored into its rows and those are returned
    — bitwise what ``out=None`` returns, transport state included.  One row
    per member, shaped and typed like that member's input, no two sharing
    memory (``ValueError``); a row may be the member's own input
    (``out=arrays``), because on every path each read of a row precedes the
    first store into it (docs/primitives.md § "Where the result lands").
    Without ``out`` the inputs are only read and the rows are fresh — except
    that under ``hierarchical`` the intra-node tier is ``ring_allreduce``,
    which sums pool-resident ``DTYPE`` rows in place.
    """
    return _gossip(arrays, group, None, peers, step, hierarchical, out)


def d_lp_s(
    arrays: Sequence[np.ndarray],
    group: CommGroup,
    compressor: Compressor,
    peers: PeerSelector,
    step: int = 0,
    hierarchical: bool = False,
    out: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Decentralized low-precision averaging: peers exchange ``Q(x)``.

    Each member averages its own full-precision tensor with the decompressed
    tensors received from its neighbors (ref [17]'s compressed gossip).
    ``out``, dtypes and validation as for :func:`d_fp_s`; the codec's RNG
    stream does not depend on ``out``.
    """
    return _gossip(arrays, group, compressor, peers, step, hierarchical, out)
