"""Executable state-machine model of the shared-memory backend protocol.

:class:`~repro.cluster.backends.shm.SharedMemoryBackend` implements a
hand-rolled multiprocess protocol: seq-stamped ring records staged into
per-worker programs, flag-word doorbells and acks, a per-batch ring budget
with rings that grow on demand, control pipes for pool mapping and ring
remapping, and multi-stage teardown.  This module models that protocol as
a small transition system the interleaving explorer (:mod:`.explorer`)
can check exhaustively:

* **roles** — one *parent* process and one *worker* per rank;
* **channels** — per worker, a doorbell flag word and an ack flag word
  (one-slot overwrite registers, not FIFOs), a control-doorbell FIFO
  (parent→worker) and its ack FIFO (worker→parent), and two ring buffers
  (``in``/``out``) modelled at the granularity the safety argument needs:
  byte offsets, 8-byte alignment, per-batch budgets, and a seq +
  destination stamp per record;
* **guarded transitions** — the parent executes a straight-line *program*
  (staging, flag doorbells, ack-flag barriers, pool mapping, graceful
  teardown) while each worker runs the reactive doorbell loop
  (`recv → read → echo → ack`).

The parent *stages* an iteration's rounds as one program of ring records
sharing a batch seq, rings a single seq-stamped flag word, and the worker
executes the entire program before setting its own ack flag word; pipes
are reserved for control (``pool``/``grow``/``close``).  A batch larger
than its ring is preceded by a ``grow`` op that remaps both of the rank's
rings; the parent may unlink the replaced segments only once the worker
acked the remap (:data:`RULE_LIFECYCLE`).  A flag word whose seq was
never bumped cannot wake the worker — the model classifies that quiescent
state as a lost wakeup — and an ack raised before the staged program
finished executing violates :data:`RULE_PROGRAM`.

Besides ``round`` and ``task`` a program carries ``reduce`` items (the
pool-ref collectives): the parent ships a tiny descriptor and the worker
folds its chunk *in place* across every rank's mapped pool segment, then
broadcasts by writing the peers' segments directly.  Two invariants guard
that path (:data:`RULE_POOLREF`): a descriptor may only dereference pool
segments the executing worker actually mapped, and the batch ack may not
be raised until every staged reduce completed its peer-segment writes —
the parent reads the reduced slices right after the ack barrier.

Transitions validate the protocol invariants as they fire (seq monotonicity,
stamp matching, ring-slot overlap, budget handling, segment lifecycle); a
quiescent state that is not a clean termination is classified as deadlock,
lost wakeup, orphaned worker, missed barrier, or leaked segment.  Violations
surface as :class:`~repro.analysis.report.Finding` objects whose witness is
the interleaving trace, in the happens-before witness style.

:class:`Faults` injects the protocol bugs the mutation harness
(:mod:`.mutations`) seeds — each knob corresponds to a one-line bug a real
backend patch could introduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..report import Finding

#: Ring-record seq stamp size, mirroring ``shm._SEQ.size``.
STAMP_BYTES = 8

#: Destination stamp meaning "the parent" (echo records travel worker→parent).
PARENT = -1

# Worker reactive phases.
_RECV = "recv"
_READ = "read"
_ECHO = "echo"
_ACK = "ack"

#: Protocol rule identifiers (one per invariant class).
RULE_DEADLOCK = "protocol-deadlock"
RULE_LOST_WAKEUP = "protocol-lost-wakeup"
RULE_SEQ = "protocol-seq"
RULE_DELIVERY = "protocol-delivery"
RULE_RING_OVERLAP = "protocol-ring-overlap"
RULE_BUDGET = "protocol-budget"
RULE_LIFECYCLE = "protocol-lifecycle"
RULE_BARRIER = "protocol-barrier"
RULE_LEAK = "protocol-leak"
RULE_ORPHAN = "protocol-orphan"
RULE_CONFORMANCE = "protocol-conformance"
RULE_PROGRAM = "protocol-program"
RULE_POOLREF = "protocol-poolref"

ALL_RULES = (
    RULE_DEADLOCK,
    RULE_LOST_WAKEUP,
    RULE_SEQ,
    RULE_DELIVERY,
    RULE_RING_OVERLAP,
    RULE_BUDGET,
    RULE_LIFECYCLE,
    RULE_BARRIER,
    RULE_LEAK,
    RULE_ORPHAN,
    RULE_CONFORMANCE,
    RULE_PROGRAM,
    RULE_POOLREF,
)


class Violation(Exception):
    """Internal control flow: a transition tripped a protocol invariant."""

    def __init__(self, finding: Finding) -> None:
        super().__init__(finding.message)
        self.finding = finding


def _finding(rule: str, message: str, rank: int | None = None, seq: int | None = None) -> Finding:
    return Finding(rule=rule, severity="error", message=message, rank=rank, seq=seq)


@dataclass(frozen=True)
class Faults:
    """Seeded protocol bugs; all default off (the faithful protocol).

    Each field flips one guarded behaviour of the model into the broken
    variant a plausible backend bug would produce.  The mutation harness
    constructs one :class:`Faults` per seeded bug and asserts the explorer
    reports exactly the matching root-cause finding.
    """

    #: (rank, seq) pairs whose worker ack — the batch's ack flag word, or a
    #: control doorbell's pipe ack — is silently dropped.
    drop_ack: tuple[tuple[int, int], ...] = ()
    #: (rank, seq) pairs whose doorbell reuses the previous seq number: a
    #: control doorbell arrives with a regressed seq, a batch's flag word is
    #: "rung" without its value changing, so the spinning worker cannot
    #: observe the new program.
    stale_seq: tuple[tuple[int, int], ...] = ()
    #: ranks whose segments the parent unlinks *before* join (early unlink).
    early_unlink: tuple[int, ...] = ()
    #: batch indices whose ack-flag barrier the parent skips entirely.
    skip_barrier: tuple[int, ...] = ()
    #: skip the grow an oversize batch needs: its records are rammed into
    #: the un-grown ring.
    force_place: bool = False
    #: ranks that receive a second close doorbell (double close).
    double_close: tuple[int, ...] = ()
    #: (rank, batch) pairs whose staged records are stamped for the wrong rank.
    wrong_dst: tuple[tuple[int, int], ...] = ()
    #: ranks the parent abandons: no close, no join, no unlink (orphan).
    orphan: tuple[int, ...] = ()
    #: ranks whose segments are never unlinked (leak).
    skip_unlink: tuple[int, ...] = ()
    #: round batches staged without awaiting the previous batch's ack flag
    #: first (drives write-before-read-complete ring overlap).
    pipeline_batches: bool = False
    #: ranks that get one extra batch staged and flagged *after* their close
    #: doorbell (use-after-close: the wakeup is lost behind the shutdown).
    post_after_close: tuple[int, ...] = ()
    #: ranks whose workers ack a batch flag word before executing the staged
    #: program (ack-before-program-end).
    ack_early: tuple[int, ...] = ()
    #: (dst, owner) pairs whose pool-mapping doorbell the parent skips: dst's
    #: worker never maps owner's pool segment, so any reduce descriptor that
    #: targets it resolves against an unmapped segment.
    poolref_unmapped: tuple[tuple[int, int], ...] = ()
    #: ranks whose workers ack a reduce-carrying batch before completing the
    #: in-place peer-segment writes (reduce result published before the
    #: broadcast-by-write phase ran).
    skip_reduce_write: tuple[int, ...] = ()
    #: ranks whose replaced rings the parent unlinks before awaiting the
    #: worker's ack of the remap.
    early_retire: tuple[int, ...] = ()


@dataclass
class _Record:
    """One live ring record: [off, off+nbytes) stamped (seq, dst)."""

    off: int
    nbytes: int  # stamp + payload, the footprint in the ring
    seq: int
    dst: int
    read: bool = False

    def key(self) -> tuple[int, int, int, int, bool]:
        return (self.off, self.nbytes, self.seq, self.dst, self.read)


@dataclass
class _Ring:
    """One shared-memory ring: mirrors ``shm._RingWriter`` placement.

    A ring holds one batch: ``begin_round`` rewinds to offset 0 and the
    batch's records follow back to back, 8-byte aligned, up to ``capacity``.
    """

    capacity: int
    records: list[_Record] = field(default_factory=list)
    next_off: int = 0

    def clone(self) -> _Ring:
        return _Ring(self.capacity, [replace(r) for r in self.records], self.next_off)

    def key(self) -> tuple:
        return (self.capacity, self.next_off, tuple(r.key() for r in self.records))

    def begin_round(self) -> None:
        self.next_off = 0

    def write(self, seq: int, dst: int, payload_bytes: int, writer_rank: int) -> int:
        """Write one record; returns its offset."""
        total = STAMP_BYTES + payload_bytes
        lo = (self.next_off + 7) & ~7
        hi = lo + total
        if hi > self.capacity:
            raise Violation(
                _finding(
                    RULE_BUDGET,
                    f"record of {total} bytes at offset {lo} runs past the end of the "
                    f"{self.capacity}-byte ring: the batch was staged without growing "
                    "the ring",
                    rank=writer_rank,
                    seq=seq,
                )
            )
        for record in self.records:
            if not record.read and record.off < hi and lo < record.off + record.nbytes:
                raise Violation(
                    _finding(
                        RULE_RING_OVERLAP,
                        f"ring write [{lo}, {hi}) for seq {seq} overlaps the live "
                        f"unread record at offset {record.off} (seq {record.seq}): "
                        "write-before-read-complete",
                        rank=writer_rank,
                        seq=seq,
                    )
                )
        # Reclaim fully-read records the new write covers.
        self.records = [
            r for r in self.records if not (r.read and r.off < hi and lo < r.off + r.nbytes)
        ]
        self.records.append(_Record(off=lo, nbytes=total, seq=seq, dst=dst))
        self.next_off = hi
        return lo

    def read(self, off: int, expected_seq: int, expected_dst: int, reader: int | None) -> None:
        """Validate and consume the record at ``off`` (stamp + dst checks)."""
        for record in self.records:
            if record.off == off and not record.read:
                if record.seq != expected_seq:
                    raise Violation(
                        _finding(
                            RULE_SEQ,
                            f"ring record at offset {off} is stamped seq {record.seq}, "
                            f"expected {expected_seq}: stale or regressed sequence",
                            rank=reader,
                            seq=expected_seq,
                        )
                    )
                if record.dst != expected_dst:
                    raise Violation(
                        _finding(
                            RULE_DELIVERY,
                            f"ring record at offset {off} (seq {record.seq}) is stamped "
                            f"for rank {record.dst} but was delivered to rank "
                            f"{expected_dst}: wrong-rank delivery",
                            rank=reader,
                            seq=expected_seq,
                        )
                    )
                record.read = True
                return
        raise Violation(
            _finding(
                RULE_SEQ,
                f"no live record at ring offset {off} for seq {expected_seq}: "
                "the read raced the write or consumed a stale entry",
                rank=reader,
                seq=expected_seq,
            )
        )


@dataclass
class _Worker:
    """One rank server: the reactive doorbell loop."""

    rank: int
    alive: bool = True
    expected: int = 0
    phase: str = _RECV
    cur_op: str = ""
    cur_seq: int = -1
    cur_data: tuple = ()
    #: ring offsets of the echo records of the batch being served
    echo_entries: tuple[int, ...] = ()
    #: the (in, out) ring segment ids this worker has mapped
    ring_segs: tuple[int, ...] = ()
    #: pool segment ids this worker has attached (cross-rank: every owner's
    #: pool maps into every worker, the reduce executors' address space).
    pool_segs: tuple[int, ...] = ()
    #: batch items actually executed before the ack flag was set (the
    #: faithful worker always executes the whole staged program).
    executed: int = 0
    #: reduce items whose in-place peer-segment writes completed before the
    #: ack flag was set (the faithful worker completes all of them).
    reduced: int = 0

    def clone(self) -> _Worker:
        return replace(self)

    def key(self) -> tuple:
        return (
            self.rank,
            self.alive,
            self.expected,
            self.phase,
            self.cur_op,
            self.cur_seq,
            self.cur_data,
            self.echo_entries,
            self.ring_segs,
            self.pool_segs,
            self.executed,
            self.reduced,
        )


@dataclass
class _Segment:
    """One named shared-memory segment (ring or pool)."""

    seg_id: int
    kind: str  # "in" | "out" | "pool"
    rank: int
    unlinked: bool = False

    def clone(self) -> _Segment:
        return replace(self)

    def key(self) -> tuple:
        return (self.seg_id, self.kind, self.rank, self.unlinked)


# Parent program instructions (straight-line; guards block, never branch):
#   ("stage", dst, kind, sizes, batch_index, needs)  kind in {"round",
#       "task", "reduce"}; ``needs`` (reduce only) lists the pool-owner
#       ranks the staged descriptors dereference
#   ("flag", dst)
#   ("flagwait", dst)
#   ("pool", dst, owner)   map owner's pool segment into dst's worker
#   ("grow", dst, capacity)  create dst's larger rings, post the remap op
#   ("await", dst)         pipe ack of a pool or grow doorbell
#   ("retire", dst)        unlink dst's replaced rings
#   ("close", rank)
#   ("join", rank)
#   ("unlink", rank)
#   ("end",)
_Instr = tuple


@dataclass
class ModelState:
    """The whole system state: parent + workers + channels + segments."""

    world: int
    faults: Faults
    program: tuple[_Instr, ...]
    pc: int = 0
    parent_done: bool = False
    next_seq: dict[int, int] = field(default_factory=dict)
    #: per destination, FIFO of (seq, op) posted but not yet barriered
    outstanding: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    #: per destination, the control-doorbell pipe: FIFO of (op, seq, data)
    door: dict[int, list[tuple]] = field(default_factory=dict)
    #: per destination, the control-ack pipe: FIFO of acked seqs
    ack: dict[int, list[int]] = field(default_factory=dict)
    #: per destination, the seq-stamped doorbell flag word — a single-slot
    #: OVERWRITE register (the shared-memory u64), not a FIFO: (seq, items)
    door_flag: dict[int, tuple | None] = field(default_factory=dict)
    #: per destination, the ack flag word: (seq, executed, echo_entries,
    #: reduced)
    ack_flag: dict[int, tuple | None] = field(default_factory=dict)
    #: per destination, the staged-but-not-yet-flagged batch: (seq, items)
    open_batch: dict[int, tuple[int, tuple]] = field(default_factory=dict)
    #: per destination, how many items the last flagged program contained
    flagged: dict[int, int] = field(default_factory=dict)
    #: per destination, how many of those items were reduces
    flagged_reduces: dict[int, int] = field(default_factory=dict)
    #: pool owner rank -> its (single) pool segment id
    pool_seg_ids: dict[int, int] = field(default_factory=dict)
    in_ring: dict[int, _Ring] = field(default_factory=dict)
    out_ring: dict[int, _Ring] = field(default_factory=dict)
    workers: dict[int, _Worker] = field(default_factory=dict)
    segments: list[_Segment] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Exploration plumbing
    # ------------------------------------------------------------------
    def clone(self) -> ModelState:
        return ModelState(
            world=self.world,
            faults=self.faults,
            program=self.program,
            pc=self.pc,
            parent_done=self.parent_done,
            next_seq=dict(self.next_seq),
            outstanding={k: list(v) for k, v in self.outstanding.items()},
            door={k: list(v) for k, v in self.door.items()},
            ack={k: list(v) for k, v in self.ack.items()},
            door_flag=dict(self.door_flag),
            ack_flag=dict(self.ack_flag),
            open_batch=dict(self.open_batch),
            flagged=dict(self.flagged),
            flagged_reduces=dict(self.flagged_reduces),
            pool_seg_ids=dict(self.pool_seg_ids),
            in_ring={k: v.clone() for k, v in self.in_ring.items()},
            out_ring={k: v.clone() for k, v in self.out_ring.items()},
            workers={k: v.clone() for k, v in self.workers.items()},
            segments=[s.clone() for s in self.segments],
        )

    def fingerprint(self) -> tuple:
        return (
            self.pc,
            self.parent_done,
            tuple(sorted(self.next_seq.items())),
            tuple((k, tuple(v)) for k, v in sorted(self.outstanding.items())),
            tuple((k, tuple(v)) for k, v in sorted(self.door.items())),
            tuple((k, tuple(v)) for k, v in sorted(self.ack.items())),
            tuple(sorted(self.door_flag.items())),
            tuple(sorted(self.ack_flag.items())),
            tuple(sorted(self.open_batch.items())),
            tuple(sorted(self.flagged.items())),
            tuple(sorted(self.flagged_reduces.items())),
            tuple(sorted(self.pool_seg_ids.items())),
            tuple((k, v.key()) for k, v in sorted(self.in_ring.items())),
            tuple((k, v.key()) for k, v in sorted(self.out_ring.items())),
            tuple((k, v.key()) for k, v in sorted(self.workers.items())),
            tuple(s.key() for s in self.segments),
        )

    # ------------------------------------------------------------------
    # Enabledness
    # ------------------------------------------------------------------
    def parent_enabled(self) -> bool:
        if self.parent_done or self.pc >= len(self.program):
            return False
        instr = self.program[self.pc]
        if instr[0] == "await":
            return bool(self.ack[instr[1]])
        if instr[0] == "flagwait":
            return self.ack_flag.get(instr[1]) is not None
        if instr[0] == "join":
            return not self.workers[instr[1]].alive
        return True

    def _flag_ready(self, rank: int) -> bool:
        """Whether rank's spinning worker can observe its doorbell flag.

        The worker spins until the flag word carries the seq it expects; a
        stale value (seq already consumed) leaves the spin loop blocked —
        that is the whole point of the seq stamp.
        """
        flag = self.door_flag.get(rank)
        return flag is not None and flag[0] == self.workers[rank].expected

    def worker_enabled(self, rank: int) -> bool:
        worker = self.workers[rank]
        if not worker.alive:
            return False
        if worker.phase == _RECV:
            return bool(self.door[rank]) or self._flag_ready(rank)
        return True  # mid-protocol phases never block

    def enabled_procs(self) -> list[str]:
        procs = []
        if self.parent_enabled():
            procs.append("parent")
        for rank in range(self.world):
            if self.worker_enabled(rank):
                procs.append(f"worker:{rank}")
        return procs

    def footprint(self, proc: str) -> frozenset[tuple[str, int]]:
        """Objects the proc's next transition touches (independence relation)."""
        if proc == "parent":
            instr = self.program[self.pc]
            op = instr[0]
            if op == "await":
                return frozenset({("ack", instr[1])})
            if op == "stage":
                return frozenset({("inring", instr[1])})
            if op == "flag":
                return frozenset({("door", instr[1])})
            if op == "flagwait":
                return frozenset({("ack", instr[1]), ("outring", instr[1])})
            if op == "pool":
                return frozenset({("door", instr[1]), ("seg", instr[2]), ("life", instr[1])})
            if op == "grow":
                dst = instr[1]
                return frozenset(
                    {("door", dst), ("seg", dst), ("life", dst), ("inring", dst), ("outring", dst)}
                )
            if op == "retire":
                return frozenset({("seg", instr[1]), ("life", instr[1])})
            if op == "close":
                return frozenset({("door", instr[1]), ("life", instr[1])})
            if op == "join":
                return frozenset({("life", instr[1])})
            if op == "unlink":
                return frozenset({("seg", instr[1]), ("life", instr[1])})
            return frozenset()
        rank = int(proc.split(":")[1])
        worker = self.workers[rank]
        if worker.phase == _RECV:
            return frozenset({("door", rank), ("life", rank)})
        if worker.phase == _READ:
            return frozenset({("inring", rank)})
        if worker.phase == _ECHO:
            return frozenset({("outring", rank)})
        # ack / pool-attach / close-finish: touches the ack pipe, possibly
        # segments and liveness.  A pool attach touches the *owner's*
        # segment (cross-rank mapping), so include it in the footprint.
        objects = {("ack", rank), ("seg", rank), ("life", rank)}
        if worker.cur_op == "pool" and worker.cur_data:
            seg = self.segments[worker.cur_data[0]]
            objects.add(("seg", seg.rank))
        return frozenset(objects)

    # ------------------------------------------------------------------
    # Transition semantics
    # ------------------------------------------------------------------
    def step(self, proc: str) -> tuple[str, Finding | None]:
        """Fire ``proc``'s enabled transition in place.

        Returns ``(description, finding)``; a non-``None`` finding means the
        transition tripped an invariant and the state is a counterexample.
        """
        try:
            if proc == "parent":
                return self._step_parent(), None
            return self._step_worker(int(proc.split(":")[1])), None
        except Violation as violation:
            return violation.finding.message, violation.finding

    def _take_seq(self, dst: int) -> int:
        seq = self.next_seq[dst]
        self.next_seq[dst] = seq + 1
        if (dst, seq) in self.faults.stale_seq:
            return max(0, seq - 1)  # reuse the previous doorbell's seq: stale
        return seq

    def _check_pool_refs(self, rank: int, worker: _Worker, needs: tuple, seq: int) -> None:
        """A reduce's descriptors must dereference only mapped, live segments."""
        for owner in needs:
            attached = any(
                self.segments[seg_id].rank == owner and not self.segments[seg_id].unlinked
                for seg_id in worker.pool_segs
            )
            if not attached:
                raise Violation(
                    _finding(
                        RULE_POOLREF,
                        f"worker {rank} executes a reduce whose descriptor targets "
                        f"rank {owner}'s pool segment, which this worker never "
                        "mapped: unmapped pool ref",
                        rank=rank,
                        seq=seq,
                    )
                )

    def _check_worker_alive(self, rank: int, what: str) -> None:
        if not self.workers[rank].alive:
            raise Violation(
                _finding(
                    RULE_LIFECYCLE,
                    f"parent posted {what} to worker {rank} after it exited: "
                    "the doorbell can never be received",
                    rank=rank,
                )
            )

    def _step_parent(self) -> str:
        instr = self.program[self.pc]
        self.pc += 1
        op = instr[0]
        if op == "await":
            dst = instr[1]
            seq = self.ack[dst].pop(0)
            if not self.outstanding[dst]:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"parent received ack seq {seq} from worker {dst} with no "
                        "outstanding doorbell: duplicated or unsolicited ack",
                        rank=dst,
                        seq=seq,
                    )
                )
            expected, kind = self.outstanding[dst].pop(0)
            if seq != expected:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"worker {dst} acked seq {seq}, parent expected seq {expected} "
                        f"({kind}): ack/seq mismatch",
                        rank=dst,
                        seq=expected,
                    )
                )
            return f"parent barriers on worker {dst} ack seq {seq} ({kind})"
        if op == "stage":
            _, dst, kind, sizes, batch_index, needs = instr
            opened = self.open_batch.get(dst)
            if opened is None:
                # Opening a batch takes one seq for the whole program and
                # resets the ring budget once (shm._batch / begin_round).
                seq = self._take_seq(dst)
                self.in_ring[dst].begin_round()
                items: tuple = ()
            else:
                seq, items = opened
            stamp_dst = dst
            if (dst, batch_index) in self.faults.wrong_dst:
                stamp_dst = (dst + 1) % self.world
            ring = self.in_ring[dst]
            entries = tuple(ring.write(seq, stamp_dst, nbytes, writer_rank=dst) for nbytes in sizes)
            self.open_batch[dst] = (seq, items + ((kind, entries, needs),))
            return (
                f"parent stages {kind} seq {seq} into worker {dst}'s batch "
                f"({len(sizes)} record(s))"
            )
        if op == "flag":
            dst = instr[1]
            seq, items = self.open_batch.pop(dst)
            self.door_flag[dst] = (seq, items)
            self.outstanding[dst].append((seq, "batch"))
            self.flagged[dst] = len(items)
            self.flagged_reduces[dst] = sum(1 for item in items if item[0] == "reduce")
            return (
                f"parent rings worker {dst}'s doorbell flag word for batch "
                f"seq {seq} ({len(items)} item(s))"
            )
        if op == "flagwait":
            dst = instr[1]
            seq, executed, entries, reduced = self.ack_flag[dst]
            self.ack_flag[dst] = None
            if not self.outstanding[dst]:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"parent observed ack flag seq {seq} from worker {dst} with "
                        "no outstanding batch: duplicated or unsolicited ack",
                        rank=dst,
                        seq=seq,
                    )
                )
            expected, kind = self.outstanding[dst].pop(0)
            if seq != expected:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"worker {dst}'s ack flag carries seq {seq}, parent expected "
                        f"seq {expected} ({kind}): ack/seq mismatch",
                        rank=dst,
                        seq=expected,
                    )
                )
            want = self.flagged.pop(dst, 0)
            if executed != want:
                raise Violation(
                    _finding(
                        RULE_PROGRAM,
                        f"worker {dst} set its ack flag for batch seq {seq} after "
                        f"executing {executed} of {want} staged program item(s): "
                        "ack-before-program-end",
                        rank=dst,
                        seq=seq,
                    )
                )
            want_reduced = self.flagged_reduces.pop(dst, 0)
            if reduced != want_reduced:
                raise Violation(
                    _finding(
                        RULE_POOLREF,
                        f"worker {dst} set its ack flag for batch seq {seq} after "
                        f"completing {reduced} of {want_reduced} in-place reduce "
                        "write(s): the parent would read pool slices peers never "
                        "wrote (ack-before-peer-write)",
                        rank=dst,
                        seq=seq,
                    )
                )
            out = self.out_ring[dst]
            for off in entries:
                out.read(off, seq, PARENT, reader=dst)
            return f"parent observes worker {dst}'s ack flag for batch seq {seq}"
        if op == "pool":
            _, dst, owner = instr
            self._check_worker_alive(dst, "pool doorbell")
            seg_id = self.pool_seg_ids.get(owner)
            if seg_id is None:
                # The owner's pool is allocated once; each worker then gets
                # its own mapping doorbell (the all-rank cross-mapping the
                # in-place reduce executors rely on).
                seg = _Segment(seg_id=len(self.segments), kind="pool", rank=owner)
                self.segments.append(seg)
                seg_id = seg.seg_id
                self.pool_seg_ids[owner] = seg_id
            seq = self._take_seq(dst)
            self.door[dst].append(("pool", seq, seg_id))
            self.outstanding[dst].append((seq, "pool"))
            return (
                f"parent maps rank {owner}'s pool segment {seg_id} into "
                f"worker {dst} (seq {seq})"
            )
        if op == "grow":
            _, dst, capacity = instr
            self._check_worker_alive(dst, "grow doorbell")
            new = (len(self.segments), len(self.segments) + 1)
            self.segments.append(_Segment(seg_id=new[0], kind="in", rank=dst))
            self.segments.append(_Segment(seg_id=new[1], kind="out", rank=dst))
            self.in_ring[dst] = _Ring(capacity)
            self.out_ring[dst] = _Ring(capacity)
            seq = self._take_seq(dst)
            self.door[dst].append(("grow", seq, new))
            self.outstanding[dst].append((seq, "grow"))
            return (
                f"parent creates {capacity}-byte rings {new} for worker {dst} and "
                f"posts the remap (seq {seq})"
            )
        if op == "retire":
            dst = instr[1]
            rings = [seg for seg in self.segments if seg.rank == dst and seg.kind != "pool"]
            for seg in rings[:-2]:  # all but the newest in/out pair
                if self.workers[dst].alive and seg.seg_id in self.workers[dst].ring_segs:
                    raise Violation(
                        _finding(
                            RULE_LIFECYCLE,
                            f"parent unlinked worker {dst}'s replaced ring segment "
                            f"{seg.seg_id} while the worker still maps it (unlink "
                            "before the remap ack)",
                            rank=dst,
                        )
                    )
                seg.unlinked = True
            return f"parent unlinks worker {dst}'s replaced rings"
        if op == "close":
            rank = instr[1]
            if self.workers[rank].alive or rank in self.faults.double_close:
                # The real backend checks is_alive before the graceful close;
                # posting to a dead worker is itself the double-close bug.
                self._check_worker_alive(rank, "close doorbell")
            seq = self._take_seq(rank)
            self.door[rank].append(("close", seq, None))
            self.outstanding[rank].append((seq, "close"))
            return f"parent posts close seq {seq} to worker {rank}"
        if op == "join":
            return f"parent joins worker {instr[1]}"
        if op == "unlink":
            rank = instr[1]
            if self.workers[rank].alive:
                raise Violation(
                    _finding(
                        RULE_LIFECYCLE,
                        f"parent unlinked worker {rank}'s segments while the worker "
                        "is still attached (unlink must happen after join)",
                        rank=rank,
                    )
                )
            for seg in self.segments:
                if seg.rank == rank:
                    seg.unlinked = True
            return f"parent unlinks worker {rank}'s segments"
        if op == "end":
            self.parent_done = True
            return "parent exits"
        raise AssertionError(f"unknown parent instruction {instr!r}")

    def _step_worker(self, rank: int) -> str:
        worker = self.workers[rank]
        if worker.phase == _RECV and self._flag_ready(rank):
            # Flag-word doorbell, checked before the pipe as in the real wait
            # loop.  Readiness already required flag seq == expected, so no
            # seq violation can fire here; a stale flag simply never wakes
            # the worker and is classified at quiescence.
            seq, items = self.door_flag[rank]
            self.door_flag[rank] = None
            worker.expected += 1
            worker.cur_op, worker.cur_seq = "batch", seq
            worker.cur_data = items
            if rank in self.faults.ack_early:
                worker.executed = 0
                worker.reduced = 0
                worker.echo_entries = ()
                worker.phase = _ACK
                return (
                    f"worker {rank} consumes flag-word seq {seq} but jumps straight "
                    "to the ack (seeded: ack before program end)"
                )
            worker.phase = _READ
            return (
                f"worker {rank} observes doorbell flag seq {seq} "
                f"({len(items)} program item(s))"
            )
        if worker.phase == _RECV:
            op, seq, data = self.door[rank].pop(0)
            if seq != worker.expected:
                direction = "regressed" if seq < worker.expected else "skipped ahead"
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"worker {rank} received doorbell seq {seq}, expected "
                        f"{worker.expected}: sequence {direction}",
                        rank=rank,
                        seq=seq,
                    )
                )
            worker.expected += 1
            worker.cur_op, worker.cur_seq = op, seq
            worker.cur_data = (data,)
            worker.phase = _ACK
            return f"worker {rank} receives {op} doorbell seq {seq}"
        if worker.phase == _READ:
            ring = self.in_ring[rank]
            done: list[tuple[str, tuple[int, ...]]] = []
            for kind, item_entries, needs in worker.cur_data:
                if kind == "reduce":
                    self._check_pool_refs(rank, worker, needs, worker.cur_seq)
                sizes = []
                for off in item_entries:
                    ring.read(off, worker.cur_seq, rank, reader=rank)
                    record = next(r for r in ring.records if r.off == off)
                    sizes.append(record.nbytes - STAMP_BYTES)
                done.append((kind, tuple(sizes)))
            worker.cur_data = tuple(done)
            worker.phase = _ECHO
            return (
                f"worker {rank} reads its staged program for batch seq "
                f"{worker.cur_seq} ({len(done)} item(s)) from its inbound ring"
            )
        if worker.phase == _ECHO:
            out = self.out_ring[rank]
            out.begin_round()
            worker.echo_entries = tuple(
                out.write(worker.cur_seq, PARENT, nbytes, writer_rank=rank)
                for _kind, sizes in worker.cur_data
                for nbytes in sizes
            )
            worker.executed = len(worker.cur_data)
            n_reduces = sum(1 for kind, _ in worker.cur_data if kind == "reduce")
            skipped = rank in self.faults.skip_reduce_write and n_reduces > 0
            worker.reduced = 0 if skipped else n_reduces
            worker.phase = _ACK
            note = " (seeded: peer-segment writes skipped)" if skipped else ""
            return (
                f"worker {rank} echoes batch seq {worker.cur_seq} "
                f"({worker.executed} item(s)) into its outbound ring{note}"
            )
        if worker.phase == _ACK and worker.cur_op == "batch":
            seq, executed = worker.cur_seq, worker.executed
            dropped = (rank, seq) in self.faults.drop_ack
            if not dropped:
                self.ack_flag[rank] = (seq, executed, worker.echo_entries, worker.reduced)
            worker.echo_entries = ()
            worker.cur_data = ()
            worker.executed = 0
            worker.reduced = 0
            worker.phase = _RECV
            if dropped:
                return f"worker {rank} never sets its ack flag word for batch seq {seq}"
            return (
                f"worker {rank} sets its ack flag word for batch seq {seq} "
                f"({executed} item(s) executed)"
            )
        if worker.phase == _ACK:
            op, seq = worker.cur_op, worker.cur_seq
            if op == "pool":
                seg = self.segments[worker.cur_data[0]]
                if seg.unlinked:
                    raise Violation(
                        _finding(
                            RULE_LIFECYCLE,
                            f"worker {rank} attached pool segment {seg.seg_id} after "
                            "the parent unlinked it (map-after-unlink)",
                            rank=rank,
                            seq=seq,
                        )
                    )
                worker.pool_segs = worker.pool_segs + (seg.seg_id,)
            elif op == "grow":
                worker.ring_segs = worker.cur_data[0]  # maps the new pair, drops the old
            dropped = (rank, seq) in self.faults.drop_ack
            if not dropped:
                self.ack[rank].append(seq)
            worker.cur_data = ()
            worker.phase = _RECV
            if op == "close":
                worker.alive = False
                return f"worker {rank} acks close seq {seq} and exits"
            verb = "drops the ack for" if dropped else "acks"
            return f"worker {rank} {verb} {op} seq {seq}"
        raise AssertionError(f"unknown worker phase {worker.phase!r}")

    # ------------------------------------------------------------------
    # Quiescence classification
    # ------------------------------------------------------------------
    def quiescence_finding(self) -> Finding | None:
        """Classify a state with no enabled transitions.

        ``None`` means clean termination; otherwise the single root-cause
        finding for the stuck or leaky state.
        """
        if not self.parent_done:
            return self._blocked_parent_finding()
        for rank, worker in sorted(self.workers.items()):
            if worker.alive:
                return _finding(
                    RULE_ORPHAN,
                    f"parent exited while worker {rank} is still alive and blocked "
                    "on its doorbell pipe: orphaned worker (no close was sent)",
                    rank=rank,
                )
        for rank in range(self.world):
            if self.door[rank]:
                op, seq, _ = self.door[rank][0]
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"{op} doorbell seq {seq} for worker {rank} was never received "
                    "(the worker exited first): lost wakeup",
                    rank=rank,
                    seq=seq,
                )
        for rank in range(self.world):
            flag = self.door_flag[rank]
            if flag is not None:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"batch seq {flag[0]} was flagged to worker {rank} but never "
                    "observed (the worker exited first): lost wakeup",
                    rank=rank,
                    seq=flag[0],
                )
        for rank in range(self.world):
            pending = [(seq, op) for seq, op in self.outstanding[rank] if op != "close"]
            if pending:
                seq, op = pending[0]
                return _finding(
                    RULE_BARRIER,
                    f"{op} seq {seq} posted to worker {rank} was never barriered: "
                    "the parent returned without draining the worker's ack",
                    rank=rank,
                    seq=seq,
                )
        for rank in range(self.world):
            # Close acks are legitimately unread (join is the close barrier).
            stray = [
                seq
                for seq in self.ack[rank]
                if (seq, "close") not in self.outstanding[rank]
            ]
            if stray:
                seq = stray[0]
                return _finding(
                    RULE_BARRIER,
                    f"worker {rank}'s ack seq {seq} was never consumed by the parent",
                    rank=rank,
                    seq=seq,
                )
        for seg in self.segments:
            if not seg.unlinked:
                return _finding(
                    RULE_LEAK,
                    f"shared-memory segment {seg.seg_id} ({seg.kind}, rank {seg.rank}) "
                    "was never unlinked: leaked segment",
                    rank=seg.rank,
                )
        return None

    def _blocked_parent_finding(self) -> Finding:
        instr = self.program[self.pc] if self.pc < len(self.program) else ("end",)
        if instr[0] == "await":
            dst = instr[1]
            worker = self.workers[dst]
            if not worker.alive:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"parent is blocked awaiting an ack from worker {dst}, but the "
                    "worker already exited: the ack will never arrive",
                    rank=dst,
                )
            # Worker alive and quiescent means it is blocked in recv with an
            # empty doorbell queue: a parent->worker->parent wait cycle.
            return _finding(
                RULE_DEADLOCK,
                f"wait cycle: parent is blocked on worker {dst}'s ack pipe while "
                f"worker {dst} is blocked on its doorbell pipe — the ack for the "
                "control doorbell was never sent",
                rank=dst,
            )
        if instr[0] == "flagwait":
            dst = instr[1]
            worker = self.workers[dst]
            if not worker.alive:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"parent is blocked awaiting worker {dst}'s ack flag word, but "
                    "the worker already exited: the flag will never be set",
                    rank=dst,
                )
            flag = self.door_flag.get(dst)
            if flag is not None and flag[0] < worker.expected:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"worker {dst}'s doorbell flag word holds stale seq {flag[0]} "
                    f"while the spinning worker expects seq {worker.expected}: the "
                    "flag was rung without bumping its seq, so the wakeup is lost "
                    "and the parent waits forever on the ack flag",
                    rank=dst,
                    seq=flag[0],
                )
            return _finding(
                RULE_DEADLOCK,
                f"wait cycle: parent is blocked on worker {dst}'s ack flag word "
                f"while worker {dst} spins on its doorbell flag — the batch ack "
                "was never set",
                rank=dst,
            )
        if instr[0] == "join":
            rank = instr[1]
            return _finding(
                RULE_DEADLOCK,
                f"wait cycle: parent is joined on worker {rank} but the worker is "
                "blocked in its doorbell loop and will never exit (close was not "
                "delivered or not processed)",
                rank=rank,
            )
        return _finding(
            RULE_DEADLOCK,
            f"parent is stuck at instruction {instr!r} with no enabled transition",
        )


# ----------------------------------------------------------------------
# Workload → model construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """Shape of the protocol run the model executes.

    ``record_sizes`` is the per-destination list of payload sizes of every
    round (every rank participates in every round, matching
    ``Transport.exchange``'s all-rank barrier).  ``oversize`` appends one
    record larger than the ring to exercise the ``grow`` op: a batch that
    does not fit its rank's rings is preceded by a remap to the next power
    of two above the batch's bytes.

    Rounds are staged into per-destination programs of ``rounds_per_batch``
    rounds each (``0`` = the whole workload in one batch), flagged once, and
    barriered on the ack flag word; ``pool``/``close`` travel over the
    pipe, as in the real backend.  ``task`` appends one task per rank as
    its own trailing batch, matching ``run_rank_tasks``' stage-then-flush.

    ``reduce`` appends one pool-ref reduce per rank after the pool mapping
    (implying ``pool``): each worker folds its chunk in place across every
    owner's mapped segment, exercising the descriptor-resolution and
    peer-write-before-ack invariants (:data:`RULE_POOLREF`).
    """

    world: int = 2
    rounds: int = 2
    record_sizes: tuple[int, ...] = (64, 24)
    ring_bytes: int = 256
    pool: bool = True
    task: bool = True
    oversize: bool = False
    rounds_per_batch: int = 0
    reduce: bool = False


def build_model(workload: Workload, faults: Faults | None = None) -> ModelState:
    """Build the initial model state for ``workload`` with ``faults`` seeded."""
    faults = faults or Faults()
    world = workload.world
    program: list[_Instr] = []
    sizes = list(workload.record_sizes)
    if workload.oversize:
        sizes = sizes + [workload.ring_bytes + 32]
    batch_index = 0
    waits: list[_Instr] = []  # the open batch's ack-flag barriers, not yet placed
    capacity = dict.fromkeys(range(world), workload.ring_bytes)

    def barrier() -> None:
        program.extend(waits)
        waits.clear()

    def extend_batch(
        kind: str, count: int, item_sizes: tuple[int, ...], needs: tuple = ()
    ) -> None:
        """One batch: stage ``count`` items per destination, ring each flag once."""
        nonlocal batch_index
        if not faults.pipeline_batches:
            barrier()  # faithful: the previous batch is barriered before staging
        need = count * sum((STAMP_BYTES + nbytes + 7) & ~7 for nbytes in item_sizes)
        for dst in range(world):
            if need > capacity[dst] and not faults.force_place:
                capacity[dst] = 1 << (need - 1).bit_length()
                program.append(("grow", dst, capacity[dst]))
                if dst in faults.early_retire:
                    program.extend([("retire", dst), ("await", dst)])
                else:
                    program.extend([("await", dst), ("retire", dst)])
        for dst in range(world):
            for _ in range(count):
                program.append(("stage", dst, kind, item_sizes, batch_index, needs))
        barrier()
        for dst in range(world):
            program.append(("flag", dst))
        if batch_index not in faults.skip_barrier:
            waits.extend(("flagwait", dst) for dst in range(world))
        batch_index += 1

    per = workload.rounds_per_batch or max(workload.rounds, 1)
    for r in range(0, workload.rounds, per):
        extend_batch("round", min(per, workload.rounds - r), tuple(sizes))
    if workload.pool or workload.reduce:
        barrier()
        # allocate_pool maps each owner's segment into *every* worker,
        # serially (post + ack per worker), mirroring shm._map_pool's loop.
        for owner in range(world):
            for dst in range(world):
                if (dst, owner) in faults.poolref_unmapped:
                    continue
                program.append(("pool", dst, owner))
                program.append(("await", dst))
    if workload.reduce:
        extend_batch("reduce", 1, (32,), tuple(range(world)))
    if workload.task:
        extend_batch("task", 1, (32,))
    barrier()
    for rank in range(world):
        if rank in faults.orphan:
            continue
        program.append(("close", rank))
        if rank in faults.double_close:
            program.append(("close", rank))
        if rank in faults.post_after_close:
            program.append(("stage", rank, "round", tuple(sizes), batch_index, ()))
            program.append(("flag", rank))
    for rank in range(world):
        if rank in faults.orphan:
            continue
        if rank in faults.early_unlink:
            program.append(("unlink", rank))
            program.append(("join", rank))
        else:
            program.append(("join", rank))
            if rank not in faults.skip_unlink:
                program.append(("unlink", rank))
    program.append(("end",))

    state = ModelState(world=world, faults=faults, program=tuple(program))
    for rank in range(world):
        state.next_seq[rank] = 0
        state.outstanding[rank] = []
        state.door[rank] = []
        state.ack[rank] = []
        state.door_flag[rank] = None
        state.ack_flag[rank] = None
        state.in_ring[rank] = _Ring(capacity=workload.ring_bytes)
        state.out_ring[rank] = _Ring(capacity=workload.ring_bytes)
        rings = (len(state.segments), len(state.segments) + 1)
        state.workers[rank] = _Worker(rank=rank, ring_segs=rings)
        state.segments.append(_Segment(seg_id=rings[0], kind="in", rank=rank))
        state.segments.append(_Segment(seg_id=rings[1], kind="out", rank=rank))
    return state
