"""Comm-op IR: the static-analysis view of a BAGUA execution.

Every analyzable artifact — a recorded dry run, a lowered
:class:`~repro.core.schedule.BucketSchedule`, or a hand-built
counterexample in a test — is normalized into the same two structures:

* a :class:`CommTrace` of per-rank :class:`CommOp` sequences.  One op is one
  event in a rank's program order: a collective invocation, a point-to-point
  send/recv, or a local scheduling event (communication issue/await,
  optimizer update, error-feedback residual write);
* a tuple of :class:`BucketExtent` records describing the address layout of
  the fused buckets and the parameter views inside them.

The checkers in :mod:`repro.analysis.checkers` consume only this IR, so the
same rules apply to live traces and to plans that were never executed —
exactly how the DAG model of S-SGD (Shi et al., 2018) treats communication
schedules as statically analyzable dependency graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Iterable

#: Op kinds with collective scope (all group members participate).  The
#: ``reduce``/``broadcast`` kinds are the intra-node phases of a lowered
#: hierarchical schedule (H); the inter-node phase keeps the allreduce kinds.
COLLECTIVE_KINDS = frozenset(
    {
        "allreduce",
        "compressed_allreduce",
        "gossip",
        "compressed_gossip",
        "barrier",
        "reduce",
        "broadcast",
    }
)
#: Op kinds with point-to-point scope.
P2P_KINDS = frozenset({"send", "recv"})
#: The in-flight communication of an ``issue``..``await`` window that names
#: no comm op; only the happens-before engine synthesizes it.
IN_FLIGHT = "in_flight"
#: Local scheduling kinds (no communication of their own).
SCHEDULE_KINDS = frozenset({"issue", "await", "opt_step", "ef_write", IN_FLIGHT})
#: Gossip kinds (peer-wise synchronization instead of a group barrier).
GOSSIP_KINDS = frozenset({"gossip", "compressed_gossip"})


@dataclass(frozen=True)
class CommOp:
    """One event in a single rank's communication/scheduling program.

    Instances are immutable value objects; hot producers (the lowerings and
    the recorder, which emit tens of thousands of ops per analysis sweep)
    build them through :meth:`CommTrace.add`, which bypasses the generated
    ``__init__`` — see ``_OP_DEFAULTS`` below.

    ``seq`` is the op's position in the rank's program order; ``group`` is the
    tuple of global ranks participating in a collective (empty for p2p and
    local ops).  ``peers`` is the rank's own neighbor set for gossip ops, or
    the single remote endpoint for send/recv.

    The happens-before engine (:mod:`repro.analysis.hb`) reads four more
    fields.  ``thread`` names the executing stream within the rank (lowered
    overlapped schedules run collectives on a ``"comm"`` thread concurrent
    with ``"main"``); ``gate`` names the intra-rank dependency the op waits
    on (one of the ``GATE_*`` constants of :mod:`repro.core.schedule`, empty
    for plain program order); ``match`` is a stable id pairing a ``send``
    with its ``recv``; ``start``/``stop`` are the element interval the op
    touches in its rank's address space (-1 when unknown — the engine then
    falls back to the bucket's extent in the subject layout).
    """

    rank: int
    seq: int
    kind: str
    step: int = -1
    round: int = -1
    bucket: str = ""
    elements: int = 0
    nbytes: float = 0.0
    compressor: str = ""
    biased: bool = False
    error_feedback: bool = False
    peers: tuple[int, ...] = ()
    group: tuple[int, ...] = ()
    thread: str = "main"
    gate: str = ""
    match: str = ""
    start: int = -1
    stop: int = -1

    @property
    def scope(self) -> str:
        if self.kind in P2P_KINDS:
            return "p2p"
        if self.kind in SCHEDULE_KINDS:
            return "schedule"
        return "collective"

    def signature(self) -> tuple:
        """What must match across ranks for the schedule to be symmetric.

        Peer sets are deliberately excluded: decentralized ranks legally talk
        to different neighbors, but kind, payload size and codec must agree.
        """
        return (self.kind, self.bucket, self.elements, self.compressor, self.error_feedback)

    def describe(self) -> str:
        parts = [self.kind]
        if self.bucket:
            parts.append(self.bucket)
        if self.elements:
            parts.append(f"{self.elements}el")
        if self.compressor:
            parts.append(self.compressor)
        if self.peers:
            parts.append(f"peers={list(self.peers)}")
        return ":".join(str(p) for p in parts)


#: Field-name -> default of :class:`CommOp`, for the fast construction path
#: in :meth:`CommTrace.add`.  The generated dataclass ``__init__`` costs one
#: ``object.__setattr__`` per field (the class is frozen); a plain
#: ``__dict__.update`` builds an identical instance ~8x faster, which is
#: what keeps the symbolic plan sweep and the driver's variant sweep cheap
#: (they emit one op stream per rank x variant x world size).
_OP_DEFAULTS: dict[str, object] = {
    f.name: f.default for f in CommOp.__dataclass_fields__.values()
}
_OP_FIELD_NAMES = frozenset(_OP_DEFAULTS)


class CommTrace:
    """Per-rank op sequences for one analyzed execution (or plan)."""

    def __init__(self, world_size: int) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self._ops: dict[int, list[CommOp]] = {r: [] for r in range(world_size)}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, rank: int, kind: str, **fields) -> CommOp:
        """Append an op to ``rank``'s program; ``seq`` is assigned here."""
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} outside world of {self.world_size}")
        if not fields.keys() <= _OP_FIELD_NAMES:
            unknown = sorted(fields.keys() - _OP_FIELD_NAMES)
            raise TypeError(f"unknown CommOp field(s): {unknown}")
        ops = self._ops[rank]
        op = CommOp.__new__(CommOp)
        attrs = op.__dict__
        attrs.update(_OP_DEFAULTS)
        attrs.update(fields)
        attrs["rank"] = rank
        attrs["seq"] = len(ops)
        attrs["kind"] = kind
        ops.append(op)
        return op

    def add_prepared(self, rank: int, fields: dict) -> CommOp:
        """Package-internal fast append for hot producers (the lowerings).

        ``fields`` maps validated :class:`CommOp` field names — including
        ``kind`` but never ``rank``/``seq`` — and is not mutated, so
        producers may share one template dict across ranks.  Callers are
        trusted on field names and rank bounds; use :meth:`add` elsewhere.
        """
        ops = self._ops[rank]
        op = CommOp.__new__(CommOp)
        attrs = op.__dict__
        attrs.update(_OP_DEFAULTS)
        attrs.update(fields)
        attrs["rank"] = rank
        attrs["seq"] = len(ops)
        ops.append(op)
        return op

    def extend(self, ops: Iterable[CommOp]) -> None:
        """Append pre-built ops, renumbering ``seq`` per rank."""
        for op in ops:
            self._ops[op.rank].append(replace(op, seq=len(self._ops[op.rank])))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def ranks(self) -> list[int]:
        return list(range(self.world_size))

    def ops_of(self, rank: int) -> list[CommOp]:
        return list(self._ops[rank])

    def all_ops(self) -> list[CommOp]:
        return [op for rank in self.ranks for op in self._ops[rank]]

    def collective_ops(self, rank: int) -> list[CommOp]:
        return [op for op in self._ops[rank] if op.scope == "collective"]

    def p2p_ops(self, rank: int) -> list[CommOp]:
        return [op for op in self._ops[rank] if op.scope == "p2p"]

    def schedule_ops(self, rank: int) -> list[CommOp]:
        return [op for op in self._ops[rank] if op.scope == "schedule"]

    def threads_of(self, rank: int) -> list[str]:
        """Thread names seen on ``rank``, in order of first appearance."""
        seen: list[str] = []
        for op in self._ops[rank]:
            if op.thread not in seen:
                seen.append(op.thread)
        return seen

    def ops_of_thread(self, rank: int, thread: str) -> list[CommOp]:
        """``rank``'s program order restricted to one thread."""
        return [op for op in self._ops[rank] if op.thread == thread]

    @property
    def num_ops(self) -> int:
        return sum(len(ops) for ops in self._ops.values())

    def __repr__(self) -> str:
        return f"CommTrace(world_size={self.world_size}, ops={self.num_ops})"


# ----------------------------------------------------------------------
# Bucket address layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParamView:
    """One parameter's slice of a bucket's (real or planned) address space."""

    name: str
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class BucketExtent:
    """A bucket's address range plus the parameter views it must contain.

    Addresses are element offsets in a shared space: real byte/element
    addresses for live buckets, planned cumulative offsets for
    lowered plans.  Two buckets whose extents intersect alias memory; a view
    outside its bucket's extent reads or writes another bucket's data.
    """

    name: str
    start: int
    stop: int
    views: tuple[ParamView, ...] = ()

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass
class AnalysisSubject:
    """Everything the checker suite needs about one analyzed execution."""

    world_size: int
    trace: CommTrace | None = None
    layout: tuple[BucketExtent, ...] = ()
    #: declared peer topology ("ring") when the algorithm commits to one;
    #: peer-matching then verifies gossip neighbors against it (that the
    #: peers reciprocate is the happens-before engine's to prove).
    expected_topology: str | None = None
    #: free-form description of where this subject came from (for reports).
    source: str = ""
    notes: dict[str, object] = field(default_factory=dict)
