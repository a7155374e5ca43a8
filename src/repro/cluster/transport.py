"""Message-passing transport with simulated time and byte accounting.

Collectives in :mod:`repro.comm` are written exactly as the paper implements
ScatterReduce over NCCL: as rounds of point-to-point ``send``/``recv``.  The
transport delivers each round's messages and advances the virtual clocks —
one float64 vector, ``Transport.clocks[rank]`` in seconds — under an
alpha-beta cost model with NIC serialization:

* a sender's outgoing messages in one round queue on its egress (per fabric);
* a receiver's incoming messages queue on its ingress;
* intra-node (NVLink) and inter-node (TCP) fabrics are independent resources.

Payloads are opaque to the transport; their wire size is taken from the
message, so compressed payloads are charged their true compressed size.
Rounds whose payloads never travel — the world-batched kernels' and timing
mode's full-scale dry schedules — are priced from ``(src, dst, nbytes)``
sends alone by :meth:`Transport.exchange_sized`; :meth:`Transport.exchange`
times its message rounds with the same routine, so there is one copy of
the clock, NIC-chain and traffic-stats arithmetic.  A round reads the clock
vector once and writes it (and the per-rank sent-bytes vector) once.

*Moving* the payloads — as opposed to pricing them — is delegated to a
pluggable :class:`~repro.cluster.backends.TransportBackend` (in-process
reference, world-batched, or shared-memory multiprocess); see
``docs/backends.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from math import inf
from typing import TYPE_CHECKING, Any

import numpy as np

from .topology import ClusterSpec

if TYPE_CHECKING:
    from ..analysis.recorder import TraceRecorder
    from .backends import TransportBackend

#: Wire-size charge for a container envelope (tuple/list) and for scalars.
#: A container costs one header plus its elements, so ``(i, array)`` chunk
#: tags price as 16 bytes of framing + the array, and an empty tuple is no
#: longer free while a bare scalar costs 8.
CONTAINER_BYTES = 8.0


def payload_nbytes(payload: Any) -> float:
    """Best-effort wire size of a payload in bytes.

    Numpy arrays report their buffer size; objects exposing ``wire_bytes``
    (compressed payloads) report that; tuples/lists charge an
    8-byte container header plus the sum of their elements (collectives tag
    chunks as ``(chunk_id, array)``); scalars and anything else count as an
    8-byte header.
    """
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    wire = getattr(payload, "wire_bytes", None)
    if wire is not None:
        return float(wire)
    if isinstance(payload, (tuple, list)):
        return CONTAINER_BYTES + sum(payload_nbytes(item) for item in payload)
    return 8.0


@dataclass
class Message:
    """A point-to-point message for one communication round.

    ``match_id`` is a stable identifier pairing this message's send with its
    receive in recorded traces (the happens-before engine's send→recv edge).
    Communication primitives may assign semantic ids; the transport fills in
    a deterministic per-round id for any message that arrives without one.
    """

    src: int
    dst: int
    payload: Any
    nbytes: float | None = None
    match_id: str | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"message from rank {self.src} to itself")
        if self.nbytes is None:
            self.nbytes = payload_nbytes(self.payload)
        if self.nbytes < 0:
            raise ValueError(f"negative message size {self.nbytes}")


@dataclass
class TrafficStats:
    """Cumulative traffic counters, used by tests and efficiency benches.

    ``per_rank_sent_bytes`` is a float64 vector over the world: entry
    ``rank`` holds the bytes that rank has sent (0.0 if it sent nothing).
    """

    per_rank_sent_bytes: np.ndarray
    messages: int = 0
    rounds: int = 0
    total_bytes: float = 0.0
    inter_node_bytes: float = 0.0
    intra_node_bytes: float = 0.0

    def reset(self) -> None:
        self.messages = 0
        self.rounds = 0
        self.total_bytes = 0.0
        self.inter_node_bytes = 0.0
        self.intra_node_bytes = 0.0
        self.per_rank_sent_bytes.fill(0.0)


class Transport:
    """Round-based message delivery over a :class:`ClusterSpec`.

    ``backend`` selects the execution substrate (an instance, a registry
    name, or ``None`` for ``$REPRO_BACKEND`` / the default); the transport
    attaches it on construction and owns its lifetime via :meth:`close`.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        backend: TransportBackend | str | None = None,
    ) -> None:
        from .backends import resolve_backend

        self.spec = spec
        self.backend = resolve_backend(backend, spec)
        self.backend.attach(self)
        # Virtual time in seconds, one float64 entry per rank (kept float64
        # whatever ``repro.tensor.DTYPE`` is).
        self.clocks = np.zeros(spec.world_size)
        self.stats = TrafficStats(per_rank_sent_bytes=np.zeros(spec.world_size))
        # Optional instrumentation sink: when set, every exchanged round is
        # reported before delivery.
        self.tracer: TraceRecorder | None = None
        self._round_counter = 0
        # Topology is immutable, so the link facts every send repeats are
        # memoized per (src, dst) pair (key ``src * world + dst``) as
        # ``(inter_node, egress_slot, ingress_slot, latency, ramp, bandwidth)``.
        # NIC chain keys (egress / ingress serialization points) map to dense
        # int slots so a round indexes lists instead of hashing tuple keys.
        # Egress and ingress chains are independent resources even when
        # their keys coincide, so each key gets one slot used to index two
        # separate per-round lists.
        self._pair_cache: dict[int, tuple] = {}
        self._chain_slots: dict[tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self, rank: int) -> float:
        return self.clocks.item(rank)

    def max_time(self, ranks: Sequence[int] | None = None) -> float:
        nows = self.clocks.tolist()
        return max(nows) if ranks is None else max(nows[r] for r in ranks)

    def compute(self, rank: int, seconds: float) -> None:
        """Charge ``rank`` with local computation time."""
        dt = seconds * self.spec.compute_scale(rank)
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self.clocks[rank] += dt

    def barrier(self, ranks: Sequence[int] | None = None) -> float:
        """Synchronize ``ranks`` (default all) to the latest clock among them."""
        ranks = list(range(self.spec.world_size)) if ranks is None else list(ranks)
        latest = self.max_time(ranks)
        self.clocks[ranks] = latest
        return latest

    def reset(self) -> None:
        self.clocks.fill(0.0)
        self.stats.reset()

    def flush(self) -> None:
        """Drain backend-deferred work at an iteration boundary.

        Batched backends (the shm fast path) accumulate routed rounds into
        per-worker programs; this forces them to execute and verifies their
        cross-process echoes.  Synchronous backends no-op.
        """
        self.backend.flush()

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> Transport:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def exchange(self, messages: Sequence[Message]) -> dict[int, list[Message]]:
        """Deliver one round of messages; returns messages grouped by receiver.

        What only a payload-carrying round needs happens here: every message
        gets a stable match id, the tracer (if any) sees the round, and the
        backend moves the payloads.  The round is timed and charged by the
        same routine :meth:`exchange_sized` runs, so a message round and a
        size-only round with the same ``(src, dst, nbytes)`` sequence leave
        identical clocks and stats.
        """
        if not messages:
            # An empty round moves no bytes and synchronizes nobody; counting
            # it would skew round counts for algorithms where some ranks idle.
            return {}
        # Stable match ids pair each send with its recv in recorded traces.
        # Primitives may pre-assign semantic ids; everything else gets a
        # deterministic per-round id here.
        round_id = self._round_counter
        for i, message in enumerate(messages):
            if message.match_id is None:
                message.match_id = f"x{round_id}.{i}.{message.src}->{message.dst}"
            else:
                # Qualify semantic ids with the round so repeated invocations
                # of the same primitive stay uniquely pairable.
                message.match_id = f"x{round_id}:{message.match_id}"
        if self.tracer is not None:
            self.tracer.on_exchange(messages)
        self._time_round([(m.src, m.dst, m.nbytes, None) for m in messages])
        # Timing, stats and trace are settled; the backend now actually
        # moves the payloads (in-process hand-off or cross-process rings).
        return self.backend.route_round(messages)

    def exchange_sized(
        self, sends: Sequence[tuple[int, int, float, str | None]]
    ) -> None:
        """Deliver one round of *size-only* sends: ``(src, dst, nbytes, match_id)``.

        Rounds whose payloads never travel — the world-batched kernels'
        (results are computed as ndarray kernels) and timing mode's dry
        schedules (full-scale sizes, no data) — are timed and charged here
        without materializing :class:`Message` objects or reaching the
        backend.  ``sends`` is only read, so callers may reuse one list for
        many rounds.  When a tracer is installed, real stub messages are
        built and routed through :meth:`exchange` so recorded traces are
        identical by construction.
        """
        if not sends:
            return
        if self.tracer is not None:
            self.exchange(
                [
                    Message(src, dst, None, nbytes=nbytes, match_id=match_id)
                    for src, dst, nbytes, match_id in sends
                ]
            )
            return
        self._time_round(sends)

    def _time_round(self, sends: Sequence[tuple[int, int, float, str | None]]) -> None:
        """Advance clocks and charge stats for one non-empty round.

        Clocks of senders advance past their egress serialization; clocks of
        receivers advance to the arrival of their last inbound message.
        Ranks not participating are untouched (decentralized algorithms rely
        on this: non-neighbors do not synchronize).
        """
        self._round_counter += 1
        stats = self.stats
        stats.rounds += 1
        pair_cache = self._pair_cache
        pair_get = pair_cache.get
        chain_slots = self._chain_slots
        world = self.spec.world_size
        # Per-round chain state as slot-indexed lists (-inf = chain untouched
        # this round).
        egress_end = [-inf] * len(chain_slots)
        ingress_end = [-inf] * len(chain_slots)
        # Clocks only move at the end of the round: sends read the snapshot
        # ``nows`` and raise ``after``, which is written back in one go.
        nows = self.clocks.tolist()
        after = list(nows)
        # The stat accumulators start from the current totals and add one
        # send at a time, in send order.
        messages_n = stats.messages
        total_b = stats.total_bytes
        inter_b = stats.inter_node_bytes
        intra_b = stats.intra_node_bytes
        sent = stats.per_rank_sent_bytes
        sent_acc = sent.tolist()
        for src, dst, nbytes, _match_id in sends:
            pair = src * world + dst
            info = pair_get(pair)
            if info is None:
                # Inter-node traffic serializes on the machine's NIC — all
                # workers of a node share it (one 10/25/100 Gbps port per
                # server, as on the AWS instances the paper models).
                # Intra-node NVLink is point-to-point per worker.
                spec = self.spec
                link = spec.link_between(src, dst)
                inter = not spec.same_node(src, dst)
                egress_key = (spec.node_of(src) if inter else src, link.name)
                ingress_key = (spec.node_of(dst) if inter else dst, link.name)
                eg = chain_slots.setdefault(egress_key, len(chain_slots))
                ig = chain_slots.setdefault(ingress_key, len(chain_slots))
                while len(egress_end) < len(chain_slots):
                    egress_end.append(-inf)
                    ingress_end.append(-inf)
                info = (inter, eg, ig, link.latency_s, link.ramp_bytes, link.bandwidth_Bps)
                pair_cache[pair] = info
            inter, eg, ig, latency, ramp, bandwidth = info
            messages_n += 1
            total_b += nbytes
            if inter:
                inter_b += nbytes
            else:
                intra_b += nbytes
            sent_acc[src] += nbytes

            # A send starts when both its sender and its egress chain are
            # free, leaves the wire after `latency + wire`, and lands no
            # earlier than `wire` after the ingress chain's previous arrival
            # (an untouched chain's `-inf` never holds a send back).
            wire = (nbytes + ramp) / bandwidth
            now_src = nows[src]
            prev = egress_end[eg]
            start = now_src if now_src > prev else prev
            end = start + wire
            egress_end[eg] = end
            if end > after[src]:
                after[src] = end
            at_nic = start + latency + wire
            queued = ingress_end[ig] + wire
            arrival = at_nic if at_nic > queued else queued
            ingress_end[ig] = arrival
            if arrival > after[dst]:
                after[dst] = arrival

        stats.messages = messages_n
        stats.total_bytes = total_b
        stats.inter_node_bytes = inter_b
        stats.intra_node_bytes = intra_b
        sent[:] = sent_acc
        self.clocks[:] = after
