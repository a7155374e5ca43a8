"""The transport backend interface.

A :class:`~repro.cluster.transport.Transport` owns the *simulation
semantics* — virtual clocks, the alpha-beta/NIC cost model, traffic
statistics and trace instrumentation.  A :class:`TransportBackend` owns the
*execution substrate*: how a round's payloads actually move between ranks,
where each rank's flat bucket pool lives, and where per-rank compute runs.

Three backends ship (see :mod:`repro.cluster.backends`):

* ``local`` — the in-process loop reference.  Payloads are handed from
  sender to receiver as Python objects; per-rank tasks run serially.  This
  is the oracle every other backend must match bit-for-bit.
* ``batched`` — identical delivery substrate, but collectives prefer the
  world-batched ``(world, n)`` kernels of :mod:`repro.comm.batched` (the
  PR 5 fast path).  The default.
* ``shm`` — one OS worker process per rank.  Payload rounds travel through
  ``multiprocessing.shared_memory`` ring buffers (each record stamped with
  the round's sequence number and barriered on per-worker acks), bucket
  pools are shared-memory segments mapped into both address spaces, and
  per-rank tasks execute concurrently on real cores.

The backend contract is strict: delivered payloads, traffic statistics,
virtual clocks and recorded traces must be **bit-identical** across
backends (``tests/test_backend_identity.py`` enforces this) — backends may
only differ in wall-clock time and in which address space does the work.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ...tensor.tensor import DTYPE

if TYPE_CHECKING:
    from ...analysis.report import Finding
    from ..transport import Message, Transport


class BackendError(RuntimeError):
    """A transport backend failed (protocol violation, dead worker, ...)."""


#: Environment switch for the protocol conformance sanitizer (opt-in):
#: when truthy, backends emit :class:`ProtocolEvent` streams from every
#: participating process and ``repro.analysis.protocol`` replays them
#: against the protocol model.  ``BaguaConfig.protocol_sanitize`` pins the
#: choice per engine.
PROTOCOL_SANITIZE_ENV = "REPRO_PROTOCOL_SANITIZE"


def protocol_sanitize_enabled() -> bool:
    """Resolve the sanitizer default from ``REPRO_PROTOCOL_SANITIZE``."""
    return os.environ.get(PROTOCOL_SANITIZE_ENV, "0").lower() not in ("", "0", "false", "no")


@dataclass(frozen=True)
class PoolRef:
    """Descriptor of a dense view into one rank's flat ``DTYPE`` bucket pool.

    ``offset``/``length`` are in pool *elements* from the start of rank
    ``rank``'s pool (:meth:`TransportBackend.allocate_pool`).  A PoolRef is
    the wire form of a pool-resident payload: 24 bytes of descriptor
    instead of ``length * DTYPE.itemsize`` bytes of data, resolvable by any process the
    pool segment is mapped into.  Descriptors travel through the shm rings
    under their own wire tag (``wire._T_POOLREF``) and drive the in-place
    worker-parallel reduction of :meth:`TransportBackend.pool_ref_reduce`.
    """

    rank: int
    offset: int
    length: int


#: One owned chunk of a pool-ref reduction: ``(lo, hi, order)`` — the
#: element range (relative to each member view) and the member fold order.
PoolRefChunk = tuple[int, int, tuple[int, ...]]


def ordered_fold(
    rows: Sequence[np.ndarray], lo: int, hi: int, order: Sequence[int], add_zero: bool
) -> np.ndarray:
    """Sum ``rows[k][lo:hi]`` for ``k`` in exactly ``order``, in the rows' dtype.

    ``acc = rows[order[0]][lo:hi]`` copied into a fresh array, then ``acc +=
    rows[k][lo:hi]`` member by member — never an axis reduction, whose
    pairwise summation of width-1 chunks would produce different bits — and
    with ``add_zero`` the loop oracle's trailing ``+ 0.0`` (its zeros-seeded
    fold turns a column that is ``-0.0`` on every member into ``+0.0``).
    The one definition every dense reduce runs: the serial and the
    worker-parallel :meth:`TransportBackend.pool_ref_reduce` and the
    ``repro.comm.batched`` kernels over rows outside the pools.  The
    accumulator has the rows' precision, so every partial sum rounds where
    the loop ring's hop-by-hop partial sums do.
    """
    acc = rows[order[0]][lo:hi].copy()
    for member in order[1:]:
        acc += rows[member][lo:hi]
    if add_zero:
        acc += 0.0
    return acc


@dataclass(frozen=True)
class ProtocolEvent:
    """One observed protocol action, emitted by a backend under sanitation.

    Events are deliberately tiny and picklable: worker processes buffer
    theirs and piggyback them on the acks they already send, so the
    sanitizer sees both sides of every pipe without a new channel.

    ``proc`` is ``"parent"`` or ``"worker:<rank>"``; ``rank`` is the worker
    the event concerns (``-1`` for backend-wide events).  ``kind`` is one of
    ``config, spawn, stage, post, recv, ring_read, ring_write, ack_send,
    ack_recv, pool_map, ring_map, grow, exit, unlink, closed``; ``op``
    carries the doorbell kind (``round``/``task``/``pool``/``grow``/``close``,
    or ``batch`` for a staged program's single flag-word doorbell) where one
    applies; ``detail`` is per-kind metadata (e.g. ``(items, ring_bytes)``
    for a batch post, ``(capacity,)`` for a ring grow).  ``stage`` events record rounds/tasks added to a not-yet-flushed
    batch; every staged ``(rank, seq)`` must later be covered by a
    ``batch`` post.
    """

    proc: str
    kind: str
    rank: int = -1
    seq: int = -1
    op: str = ""
    detail: tuple = ()

    def describe(self) -> str:
        parts = [self.proc, self.kind]
        if self.op:
            parts.append(self.op)
        if self.rank >= 0:
            parts.append(f"rank {self.rank}")
        if self.seq >= 0:
            parts.append(f"seq {self.seq}")
        if self.detail:
            parts.append(repr(self.detail))
        return " ".join(parts)


class TransportBackend:
    """Pluggable execution substrate behind a :class:`Transport`.

    Subclasses implement payload routing (:meth:`route_round`), flat-pool
    allocation (:meth:`allocate_pool`) and per-rank task execution
    (:meth:`run_rank_tasks`).  The base class provides attach/close
    bookkeeping and context-manager lifetime.
    """

    #: registry name ("local", "batched", "shm")
    name: str = "base"
    #: kernel flavor collectives run on this backend — the loop reference
    #: (False) or the world-batched kernels (True).  The only selector: the
    #: batched dense kernels reduce pool-resident rows in place through
    #: :meth:`pool_ref_reduce` on every backend that runs them.
    prefers_fast_path: bool = True

    def __init__(self) -> None:
        self._transport: Transport | None = None
        self._protocol_sanitize = protocol_sanitize_enabled()
        #: Observed protocol events (empty unless sanitize mode is on).
        self.protocol_events: list[ProtocolEvent] = []
        #: rank → parent-side pool array, populated by ``allocate_pool``
        #: implementations via :meth:`_register_pool`; drives PoolRef
        #: resolution and the generic :meth:`pool_ref_reduce`.
        self._pool_arrays: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, transport: Transport) -> None:
        """Bind this backend to ``transport`` (validates world size)."""
        self.validate_world(transport.spec.world_size)
        self._transport = transport

    def validate_world(self, world_size: int) -> None:  # noqa: B027 (hook)
        """Raise if this backend cannot serve ``world_size`` ranks."""

    def close(self) -> None:  # noqa: B027 (hook)
        """Release backend resources (processes, shared memory).  Idempotent."""

    def flush(self) -> None:  # noqa: B027 (hook)
        """Drain any deferred transport work (batched rounds).

        The engine calls this at each iteration boundary; synchronous
        backends keep the no-op default.  After ``flush`` returns, every
        previously routed round has fully executed on its worker and its
        cross-process echoes have been verified.
        """

    def __enter__(self) -> TransportBackend:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Protocol conformance sanitizer (opt-in instrumentation)
    # ------------------------------------------------------------------
    @property
    def sanitizing(self) -> bool:
        """Whether this backend records a protocol event stream."""
        return self._protocol_sanitize

    def set_protocol_sanitize(self, enabled: bool) -> None:
        """Switch sanitize mode on/off (before any protocol traffic).

        Backends with external executors (the shm backend's worker
        processes) need the flag at spawn time and override this to reject
        late flips.
        """
        self._protocol_sanitize = bool(enabled)

    def emit_protocol_event(
        self,
        kind: str,
        rank: int = -1,
        seq: int = -1,
        op: str = "",
        detail: tuple = (),
        proc: str = "parent",
    ) -> None:
        """Record one protocol event (no-op unless sanitizing)."""
        if self._protocol_sanitize:
            self.protocol_events.append(
                ProtocolEvent(proc=proc, kind=kind, rank=rank, seq=seq, op=op, detail=detail)
            )

    def conformance_findings(self) -> list[Finding]:
        """Replay the recorded event stream against the protocol model.

        Returns the sanitizer's findings (empty = conformant).  Requires
        sanitize mode; the import is lazy so the cluster layer stays free of
        an analysis dependency unless the sanitizer is actually used.
        """
        from ...analysis.protocol.sanitizer import check_events

        return check_events(self.protocol_events)

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    def route_round(self, messages: Sequence[Message]) -> dict[int, list[Message]]:
        """Deliver one round of messages; return them grouped by receiver.

        Per-destination message order must match the order of ``messages``,
        and every delivered payload must be bit-identical to the payload
        sent.  The transport has already charged clocks/stats/tracer for the
        round — this method only moves the payloads.
        """
        raise NotImplementedError

    def allocate_pool(self, rank: int, n_elements: int) -> np.ndarray:
        """Allocate rank ``rank``'s flat ``DTYPE`` bucket pool.

        Returns the parent-side array view.  Backends that execute rank
        tasks elsewhere must make the same storage visible to that rank's
        executor (the shm backend maps one shared-memory segment into both
        processes, so bucket views stay zero-copy on both sides).
        """
        raise NotImplementedError

    def run_rank_tasks(
        self,
        fn: Callable[..., Any],
        args_by_rank: Mapping[int, tuple],
    ) -> dict[int, Any]:
        """Execute ``fn(pool, *args_by_rank[rank])`` for every rank given.

        ``pool`` is the rank's pool from :meth:`allocate_pool` (or ``None``
        when none was allocated).  ``fn`` must be a module-level callable so
        multiprocess backends can pickle it by reference.  Returns results
        keyed by rank.  Backends with real per-rank executors run the tasks
        concurrently; in-process backends run them serially.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Pool-ref collectives (zero-copy descriptors over registered pools)
    # ------------------------------------------------------------------
    def _register_pool(self, rank: int, pool: np.ndarray) -> None:
        """Remember rank's pool array so views into it resolve to PoolRefs.

        ``allocate_pool`` implementations call this; a re-allocation
        replaces the entry, so stale views of a dropped segment stop
        resolving.
        """
        self._pool_arrays[rank] = pool

    def pool_ref(self, array: Any, rank: int | None = None) -> PoolRef | None:
        """Resolve ``array`` to a :class:`PoolRef`, or None.

        Only dense views qualify: 1-D C-contiguous ``DTYPE``, lying entirely
        within one registered pool at an element-aligned offset.  Anything
        else — other dtypes, strided views, arrays owning their own storage
        — returns None and keeps the codec path.  Given ``rank``, only that
        rank's pool is looked in.
        """
        if (
            not isinstance(array, np.ndarray)
            or array.dtype != DTYPE
            or array.ndim != 1
            or not array.flags.c_contiguous
            or array.size == 0
        ):
            return None
        addr = array.__array_interface__["data"][0]
        owners = self._pool_arrays.keys() if rank is None else self._pool_arrays.keys() & {rank}
        for owner in owners:
            pool = self._pool_arrays[owner]
            delta = addr - pool.__array_interface__["data"][0]
            if 0 <= delta and delta + array.nbytes <= pool.nbytes and delta % DTYPE.itemsize == 0:
                return PoolRef(rank=owner, offset=delta // DTYPE.itemsize, length=array.size)
        return None

    def resolve_pool_refs(
        self, arrays: Sequence[Any], ranks: Sequence[int]
    ) -> list[PoolRef] | None:
        """PoolRefs for a whole collective, or None if any member fails.

        Member ``i``'s array must live in rank ``ranks[i]``'s own pool —
        the ownership assumption the worker-parallel reduction's chunk
        assignment relies on — so only that pool is looked in: O(world).
        All members must share one length.
        """
        if len(arrays) != len(ranks) or not arrays:
            return None
        refs: list[PoolRef] = []
        for array, rank in zip(arrays, ranks):
            ref = self.pool_ref(array, rank)
            if ref is None or (refs and ref.length != refs[0].length):
                return None
            refs.append(ref)
        return refs

    def pool_ref_reduce(
        self,
        refs: Sequence[PoolRef],
        chunks: Sequence[PoolRefChunk],
        add_zero: bool,
    ) -> None:
        """Reduce the referenced pool regions in place, chunk-parallel.

        ``refs[i]`` is collective member ``i``'s region; ``chunks[j] =
        (lo, hi, order)`` assigns element range ``[lo, hi)`` (relative to
        each region) to member ``j``'s executor, which folds the members'
        slices *in exactly the order given* (:func:`ordered_fold`) and writes
        the result into **every** member's slice.  Chunk ranges must be
        pairwise disjoint, which is what makes the per-chunk executors
        race-free without a barrier: chunk ``j`` reads and writes only
        ``[lo_j, hi_j)`` of each region.

        The caller (``repro.comm``) picks fold orders that reproduce the
        batched kernels' float operation order bit-for-bit, so in-place
        results equal what the codec path would have returned.

        This base implementation runs the chunks serially in the calling
        process over the registered pool arrays; backends with real
        per-rank executors (shm) override it to run chunks on their owning
        workers concurrently.
        """
        views = []
        for ref in refs:
            pool = self._pool_arrays.get(ref.rank)
            if pool is None or ref.offset + ref.length > pool.shape[0]:
                raise BackendError(
                    f"pool ref (rank {ref.rank}, offset {ref.offset}, "
                    f"length {ref.length}) targets an unmapped pool segment"
                )
            views.append(pool[ref.offset : ref.offset + ref.length])
        for lo, hi, order in chunks:
            acc = ordered_fold(views, lo, hi, order, add_zero)
            for view in views:
                view[lo:hi] = acc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Small diagnostic summary (used by the perf harness / docs)."""
        return {"name": self.name, "prefers_fast_path": self.prefers_fast_path}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
