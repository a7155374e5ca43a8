"""Happens-before engine: vector clocks over (rank, thread, event) triples.

This is the analyzer's ordering and matching checker.  It builds the
*cross-rank partial order* the paper's correctness argument rests on (a
rewritten schedule must preserve the dependency structure of the original
DAG — Shi et al.'s DAG model of synchronous SGD) and assigns every event a
vector clock, from three edge sources:

* **program order** — consecutive ops of one ``(rank, thread)`` stream;
* **communication matching** — a collective is an all-to-all synchronization
  of its group (hierarchical intra-node/inter-node/broadcast phases each
  synchronize their own subgroup); a ``send`` happens-before its matched
  ``recv``; a gossip exchange synchronizes each *mutual* peer pair only;
* **gate edges** — the ``GATE_*`` constants of :mod:`repro.core.schedule`
  carried by lowered events: a comm gated on ``grad_ready`` orders after its
  bucket's issue, ``backward_end`` after every issue, ``comm_done`` after
  the bucket's collective phases, ``barrier`` after every collective.

An ``issue``..``await`` window whose trace names no comm op of its bucket
(a hand-built trace; the lowerings always emit one) is itself the bucket's
in-flight communication: the engine synthesizes an ``in_flight`` event on a
thread of its own, after the issue and before the await, that reads and
writes the bucket's gradient (and its residual when the issue carries
``error_feedback``).

Construction is operational: an abstract scheduler executes the per-thread
streams, completing a collective only when every participant reached it and
a recv only when its send ran.  If the scheduler wedges, the stuck state is
a *provable deadlock* — either a cycle in the cross-rank wait-for graph
(mismatched collective orders) or an unsatisfiable wait (asymmetric or
out-of-group gossip peers, a recv whose send never exists, a send no recv
consumes).  On top of the clocks, four rules:

* ``hb-race`` — two same-rank events touching overlapping byte intervals,
  at least one a write, with no happens-before order; and an issue that is
  never awaited, whose in-flight access the rank never retires;
* ``hb-deadlock`` — the stuck states above, with the wait cycle as witness;
* ``hb-lost-update`` — an error-feedback residual write unordered with
  another access to the same residual;
* ``hb-staleness`` — an update consuming a gradient whose compute event is
  more steps away (along happens-before) than the algorithm's declared
  staleness bound.

Every finding carries a printable witness (``repro analyze --explain``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from ..core.schedule import (
    GATE_BACKWARD_END,
    GATE_BARRIER,
    GATE_COMM_DONE,
    GATE_GRAD_READY,
)
from .ir import GOSSIP_KINDS, IN_FLIGHT, AnalysisSubject, CommOp
from .report import Finding

#: Memory spaces an event footprint can live in.  Gradients, parameters and
#: error-feedback residuals are distinct allocations even when they describe
#: the same bucket interval.
SPACE_GRAD = "grad"
SPACE_PARAM = "param"
SPACE_EF = "ef"

_SUBJECT_CACHE_KEY = "_hb_graph"


@dataclass(frozen=True)
class Footprint:
    """One contiguous interval an event reads and/or writes."""

    space: str
    start: int
    stop: int
    reads: bool
    writes: bool

    def overlaps(self, other: Footprint) -> bool:
        return (
            self.space == other.space
            and self.start < other.stop
            and other.start < self.stop
        )


@dataclass
class HBEvent:
    """One executed (rank, thread, event) triple with its vector clock."""

    uid: int
    op: CommOp
    tid: int  # index into HBGraph.threads
    clock: tuple[int, ...] = ()
    #: direct happens-before predecessors (uids), for witness paths
    preds: tuple[int, ...] = ()
    footprints: tuple[Footprint, ...] = ()

    def describe(self) -> str:
        op = self.op
        parts = [f"rank {op.rank}", f"thread {op.thread!r}", f"op#{op.seq}", op.kind]
        if op.bucket:
            parts.append(op.bucket)
        if op.step >= 0:
            parts.append(f"step {op.step}")
        return " ".join(parts)


@dataclass
class Deadlock:
    """One provable deadlock: a wait cycle or an unsatisfiable wait."""

    message: str
    #: uids of the blocked events, in cycle order for wait cycles
    events: list[int] = field(default_factory=list)
    #: human-readable wait-for chain, one line per hop
    witness: list[str] = field(default_factory=list)
    rank: int | None = None
    seq: int | None = None
    bucket: str | None = None
    step: int | None = None


def _bare_windows(ops: Sequence[CommOp]) -> dict[int, int | None]:
    """The ``issue``..``await`` windows of one rank that name no comm op.

    Maps each such window's issue position in ``ops`` to its await's
    position, or ``None`` when the issue is never awaited.  An await retires
    the latest open issue of its bucket.
    """
    open_windows: dict[str, list[list]] = {}  # bucket -> [[issue pos, has comm]]
    bare: dict[int, int | None] = {}
    for pos, op in enumerate(ops):
        if op.kind == "issue":
            open_windows.setdefault(op.bucket, []).append([pos, False])
        elif op.kind == "await":
            windows = open_windows.get(op.bucket)
            if windows:
                issue_pos, has_comm = windows.pop()
                if not has_comm:
                    bare[issue_pos] = pos
        elif op.scope != "schedule" and op.bucket in open_windows:
            for window in open_windows[op.bucket]:
                window[1] = True
    for windows in open_windows.values():
        for issue_pos, has_comm in windows:
            if not has_comm:
                bare[issue_pos] = None
    return bare


def _footprints(op: CommOp, extent_of: dict[str, tuple[int, int]]) -> tuple[Footprint, ...]:
    """The memory intervals ``op`` touches, by kind.

    Lowered events carry explicit ``start``/``stop`` element intervals;
    otherwise the bucket's extent in the subject layout is used, and a
    bucket with no known extent gets a synthetic one (distinct per name), so
    same-bucket conflicts are still caught on hand-built traces.
    """
    if not op.bucket:
        return ()  # a bucket-less ef_write gets every residual in HBGraph._build
    if op.start >= 0 and op.stop >= 0 and op.stop > op.start:
        lo, hi = op.start, op.stop
    elif op.bucket in extent_of:
        lo, hi = extent_of[op.bucket]
    else:
        lo, hi = 0, max(int(op.elements), 1)
    space_key = "" if op.start >= 0 or op.bucket in extent_of else f"@{op.bucket}"

    prints: list[Footprint] = []

    def touch(space: str, reads: bool, writes: bool) -> None:
        prints.append(Footprint(space + space_key, lo, hi, reads, writes))

    if op.kind in ("allreduce", "compressed_allreduce", "reduce", "broadcast", IN_FLIGHT):
        # Reductions (and an in-flight window standing in for one) read and
        # overwrite the bucket's gradient in place.
        touch(SPACE_GRAD, reads=True, writes=True)
        if op.error_feedback:
            touch(SPACE_EF, reads=True, writes=True)
    elif op.kind in GOSSIP_KINDS:
        # Gossip averages model weights in place.
        touch(SPACE_PARAM, reads=True, writes=True)
        if op.error_feedback:
            touch(SPACE_EF, reads=True, writes=True)
    elif op.kind == "opt_step":
        touch(SPACE_GRAD, reads=True, writes=False)
        touch(SPACE_PARAM, reads=True, writes=True)
    elif op.kind == "ef_write":
        touch(SPACE_EF, reads=False, writes=True)
    elif op.kind == "issue":
        # The issue marks backward's last write of this bucket's gradient:
        # anything unordered with it races the backward pass itself.
        touch(SPACE_GRAD, reads=False, writes=True)
    return tuple(prints)


class HBGraph:
    """The happens-before partial order of one :class:`AnalysisSubject`."""

    def __init__(self, subject: AnalysisSubject) -> None:
        self.subject = subject
        self.threads: list[tuple[int, str]] = []
        self.events: list[HBEvent] = []
        self.deadlocks: list[Deadlock] = []
        #: issues of in-flight windows that are never awaited
        self.unretired: list[HBEvent] = []
        self._by_rank: dict[int, list[HBEvent]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def deadlocked(self) -> bool:
        return bool(self.deadlocks)

    def happens_before(self, a: HBEvent, b: HBEvent) -> bool:
        """True iff ``a`` happens-before ``b`` (strict, via vector clocks)."""
        if a.uid == b.uid or not a.clock or not b.clock:
            return False
        return a.clock[a.tid] <= b.clock[a.tid] and a.clock != b.clock

    def ordered(self, a: HBEvent, b: HBEvent) -> bool:
        return self.happens_before(a, b) or self.happens_before(b, a)

    def path(self, src: HBEvent, dst: HBEvent) -> list[HBEvent] | None:
        """A shortest happens-before path ``src -> ... -> dst``, or ``None``."""
        if src.uid == dst.uid:
            return [src]
        if not self.happens_before(src, dst):
            return None
        # BFS backwards over direct-predecessor edges.
        from collections import deque

        parent: dict[int, int] = {}
        queue = deque([dst.uid])
        seen = {dst.uid}
        while queue:
            uid = queue.popleft()
            for pred in self.events[uid].preds:
                if pred in seen:
                    continue
                parent[pred] = uid
                if pred == src.uid:
                    chain = [src.uid]
                    while chain[-1] != dst.uid:
                        chain.append(parent[chain[-1]])
                    return [self.events[u] for u in chain]
                seen.add(pred)
                queue.append(pred)
        return None

    def common_ancestor(self, a: HBEvent, b: HBEvent) -> HBEvent | None:
        """The latest event that happens-before both ``a`` and ``b``."""
        best: HBEvent | None = None
        for event in self.events:
            if self.happens_before(event, a) and self.happens_before(event, b):
                if best is None or self.happens_before(best, event):
                    best = event
        return best

    # ------------------------------------------------------------------
    # Construction (operational scheduler)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        trace = self.subject.trace
        if trace is None:
            return

        extent_of = {
            extent.name: (extent.start, extent.stop) for extent in self.subject.layout
        }

        # Event table and per-(rank, thread) streams in program order.
        tid_of: dict[tuple[int, str], int] = {}
        streams: list[list[int]] = []
        #: gate edges of the in-flight windows: uid -> uids it waits on
        window_gates: dict[int, list[int]] = {}

        def add_event(op: CommOp) -> HBEvent:
            key = (op.rank, op.thread)
            if key not in tid_of:
                tid_of[key] = len(self.threads)
                self.threads.append(key)
                streams.append([])
            event = HBEvent(
                uid=len(self.events),
                op=op,
                tid=tid_of[key],
                footprints=_footprints(op, extent_of),
            )
            self.events.append(event)
            streams[event.tid].append(event.uid)
            self._by_rank.setdefault(op.rank, []).append(event)
            return event

        for rank in trace.ranks:
            ops = trace.ops_of(rank)
            bare = _bare_windows(ops)
            flight_before: dict[int, HBEvent] = {}  # await pos -> its window
            for pos, op in enumerate(ops):
                event = add_event(op)
                if pos in flight_before:
                    window_gates[event.uid] = [flight_before[pos].uid]
                if pos in bare:
                    # Each window runs on a thread of its own: two windows
                    # in flight at once are unordered with each other.
                    flight = add_event(
                        replace(op, kind=IN_FLIGHT, thread=f"in-flight#{op.seq}", gate="")
                    )
                    window_gates[flight.uid] = [event.uid]
                    if bare[pos] is None:
                        self.unretired.append(event)
                    else:
                        flight_before[bare[pos]] = flight

            # A bucket-less ef_write rewrites every residual the rank holds.
            events = self._by_rank.get(rank, [])
            blanket = [e for e in events if e.op.kind == "ef_write" and not e.op.bucket]
            if blanket:
                residuals = sorted(
                    {(f.space, f.start, f.stop) for e in events
                     for f in e.footprints if f.space.startswith(SPACE_EF)}
                )
                for event in blanket:
                    event.footprints = tuple(
                        Footprint(space, lo, hi, reads=False, writes=True)
                        for space, lo, hi in residuals
                    )

        gate_preds = self._resolve_gates()
        for uid, preds in window_gates.items():
            gate_preds.setdefault(uid, []).extend(preds)
        matches = self._match_sync_ops()

        n_threads = len(self.threads)
        clocks: dict[int, list[int]] = {}
        executed: set[int] = set()
        heads = [0] * n_threads

        def head(tid: int) -> int | None:
            return streams[tid][heads[tid]] if heads[tid] < len(streams[tid]) else None

        def local_ready(uid: int) -> bool:
            """At stream head with every gate predecessor executed."""
            event = self.events[uid]
            if head(event.tid) != uid:
                return False
            return all(p in executed for p in gate_preds.get(uid, ()))

        def join(uids: Sequence[int]) -> list[int]:
            clock = [0] * n_threads
            for uid in uids:
                for i, value in enumerate(clocks[uid]):
                    if value > clock[i]:
                        clock[i] = value
            return clock

        def execute(members: Sequence[int]) -> None:
            """Run ``members`` as one synchronization; assign their clocks."""
            pre: list[int] = []
            for uid in members:
                event = self.events[uid]
                stream = streams[event.tid]
                pos = stream.index(uid)
                if pos > 0:
                    pre.append(stream[pos - 1])
                pre.extend(gate_preds.get(uid, ()))
            base = join(pre)
            for uid in members:
                event = self.events[uid]
                clock = list(base)
                clock[event.tid] = max(
                    clock[event.tid],
                    max((clocks[p][event.tid] for p in pre), default=0),
                ) + 1
                clocks[uid] = clock
                event.clock = tuple(clock)
                event.preds = tuple(sorted(set(pre)))
                executed.add(uid)
                heads[event.tid] += 1

        def execute_recv(uid: int, send_uid: int) -> None:
            event = self.events[uid]
            stream = streams[event.tid]
            pos = stream.index(uid)
            pre = [stream[pos - 1]] if pos > 0 else []
            pre.extend(gate_preds.get(uid, ()))
            pre.append(send_uid)  # the send itself happens-before the recv
            clock = join(pre)
            clock[event.tid] += 1
            clocks[uid] = clock
            event.clock = tuple(clock)
            event.preds = tuple(sorted(set(pre)))
            executed.add(uid)
            heads[event.tid] += 1

        send_of = matches.send_of
        set_of = matches.set_of
        members_of = matches.members_of

        progress = True
        while progress:
            progress = False
            for tid in range(n_threads):
                uid = head(tid)
                if uid is None or not local_ready(uid):
                    continue
                event = self.events[uid]
                op = event.op
                if op.scope == "collective" and op.kind not in GOSSIP_KINDS:
                    members = members_of.get(set_of.get(uid), [uid])
                    present = {self.events[m].op.rank for m in members}
                    if op.group and not set(op.group) <= present:
                        continue  # a group member never issues this collective
                    if all(local_ready(m) for m in members):
                        execute(members)
                        progress = True
                elif op.kind in GOSSIP_KINDS:
                    cluster = self._gossip_cluster(uid, matches, local_ready)
                    if cluster is not None:
                        execute(cluster)
                        progress = True
                elif op.kind == "recv":
                    send_uid = send_of.get(uid)
                    if send_uid is not None and send_uid in executed:
                        execute_recv(uid, send_uid)
                        progress = True
                else:  # send and local schedule events run eagerly
                    execute([uid])
                    progress = True

        blocked = [
            streams[tid][heads[tid]]
            for tid in range(n_threads)
            if heads[tid] < len(streams[tid])
        ]
        if blocked:
            self._diagnose_deadlock(blocked, gate_preds, matches, executed, streams, heads)

        # A send no recv consumes never completes: an unsatisfiable wait.
        consumed = set(matches.send_of.values())
        for event in self.events:
            op = event.op
            if op.kind == "send" and event.uid not in consumed:
                dst = op.peers[0] if op.peers else "?"
                self._unsatisfiable(
                    event,
                    f"send of {op.nbytes:.0f} B to rank {dst} has no matching recv "
                    f"— rank {dst} never consumes it",
                )

    def _gossip_cluster(self, uid, matches, local_ready) -> list[int] | None:
        """The mutual-peer closure of ``uid``'s gossip op, if all are ready.

        Returns ``None`` while any member still has to arrive; an op whose
        peer never reciprocates simply never becomes executable and is later
        diagnosed as a deadlock.
        """
        cluster: set[int] = set()
        frontier = [uid]
        while frontier:
            current = frontier.pop()
            if current in cluster:
                continue
            cluster.add(current)
            for peer_uid, mutual in matches.gossip_peers.get(current, []):
                if peer_uid is None or not mutual:
                    return None  # waits on a peer that never reciprocates
                if peer_uid not in cluster:
                    frontier.append(peer_uid)
        if all(local_ready(m) for m in cluster):
            return sorted(cluster)
        return None

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    class _Matches:
        def __init__(self) -> None:
            #: collective uid -> matched-set key
            self.set_of: dict[int, tuple] = {}
            #: matched-set key -> member uids
            self.members_of: dict[tuple, list[int]] = {}
            #: recv uid -> send uid (or absent when no send matches)
            self.send_of: dict[int, int] = {}
            #: gossip uid -> [(peer uid or None, mutual?)] per listed peer
            self.gossip_peers: dict[int, list[tuple[int | None, bool]]] = {}

    def _match_sync_ops(self) -> _Matches:
        matches = self._Matches()
        # Collectives (incl. gossip) match by (group, signature, occurrence):
        # the k-th time a rank enters this group with this payload shape
        # pairs with the k-th entry of every other member.  Matching by
        # signature (not plain position) is what turns a reordered pair of
        # collectives into a wait cycle instead of a payload-mismatch diff.
        counters: dict[tuple[int, tuple], int] = {}
        for event in self.events:
            op = event.op
            if op.scope != "collective" or not op.group:
                continue
            key = (op.group, op.kind, op.signature())
            occurrence = counters.get((op.rank, key), 0)
            counters[(op.rank, key)] = occurrence + 1
            set_key = (key, occurrence)
            matches.set_of[event.uid] = set_key
            matches.members_of.setdefault(set_key, []).append(event.uid)

        # Gossip peer resolution: within a matched set, rank i's listed peer
        # j resolves to j's member event; mutual iff j lists i back.
        for members in matches.members_of.values():
            first = self.events[members[0]].op
            if first.kind not in GOSSIP_KINDS:
                continue
            by_rank = {self.events[uid].op.rank: uid for uid in members}
            for uid in members:
                op = self.events[uid].op
                resolved: list[tuple[int | None, bool]] = []
                for peer in op.peers:
                    peer_uid = by_rank.get(peer)
                    mutual = (
                        peer_uid is not None
                        and op.rank in self.events[peer_uid].op.peers
                    )
                    resolved.append((peer_uid, mutual))
                matches.gossip_peers[uid] = resolved

        # P2P: pair by explicit match id first, then greedily by
        # (round, src, dst, nbytes) — the recorder's legacy format.
        sends_by_id: dict[str, int] = {}
        recvs: list[HBEvent] = []
        unpaired_sends: dict[tuple, list[int]] = {}
        for event in self.events:
            op = event.op
            if op.kind == "send":
                if op.match:
                    sends_by_id[op.match] = event.uid
                else:
                    dst = op.peers[0] if op.peers else None
                    unpaired_sends.setdefault(
                        (op.round, op.rank, dst, op.nbytes), []
                    ).append(event.uid)
            elif op.kind == "recv":
                recvs.append(event)
        for event in recvs:
            op = event.op
            if op.match and op.match in sends_by_id:
                matches.send_of[event.uid] = sends_by_id[op.match]
                continue
            src = op.peers[0] if op.peers else None
            pool = unpaired_sends.get((op.round, src, op.rank, op.nbytes))
            if pool:
                matches.send_of[event.uid] = pool.pop(0)
        return matches

    # ------------------------------------------------------------------
    # Gate edges
    # ------------------------------------------------------------------
    def _resolve_gates(self) -> dict[int, list[int]]:
        """Map each gated event to the uids its gate waits on (per rank)."""
        gate_preds: dict[int, list[int]] = {}
        for events in self._by_rank.values():
            issues: dict[str, list[int]] = {}
            all_issues: list[int] = []
            comms: dict[str, list[int]] = {}
            all_comms: list[int] = []
            for event in events:
                op = event.op
                if op.kind == "issue":
                    issues.setdefault(op.bucket, []).append(event.uid)
                    all_issues.append(event.uid)
                elif op.scope == "collective":
                    comms.setdefault(op.bucket, []).append(event.uid)
                    all_comms.append(event.uid)
                if not op.gate:
                    continue
                if op.gate == GATE_GRAD_READY:
                    pool = issues.get(op.bucket, [])
                    gate_preds[event.uid] = [pool[-1]] if pool else []
                elif op.gate == GATE_BACKWARD_END:
                    gate_preds[event.uid] = list(all_issues)
                elif op.gate == GATE_COMM_DONE:
                    gate_preds[event.uid] = list(comms.get(op.bucket, []))
                elif op.gate == GATE_BARRIER:
                    gate_preds[event.uid] = list(all_comms)
        return gate_preds

    # ------------------------------------------------------------------
    # Deadlock diagnosis
    # ------------------------------------------------------------------
    def _diagnose_deadlock(
        self, blocked, gate_preds, matches, executed, streams, heads
    ) -> None:
        blocked_set = set(blocked)
        waits: dict[int, list[tuple[int | None, str]]] = {}

        def head_of_thread(tid: int) -> int | None:
            return streams[tid][heads[tid]] if heads[tid] < len(streams[tid]) else None

        for uid in blocked:
            event = self.events[uid]
            op = event.op
            reasons: list[tuple[int | None, str]] = []
            for pred in gate_preds.get(uid, ()):
                if pred not in executed:
                    reasons.append(
                        (pred, f"gate {op.gate!r} waits on {self.events[pred].describe()}")
                    )
            if op.scope == "collective" and op.kind not in GOSSIP_KINDS and op.group:
                members = matches.members_of.get(matches.set_of.get(uid), [uid])
                present = {self.events[m].op.rank for m in members}
                for peer in op.group:
                    if peer == op.rank:
                        continue
                    if peer not in present:
                        reasons.append(
                            (
                                None,
                                f"rank {peer} never issues a matching "
                                f"{op.describe()} — rank {op.rank} blocks forever",
                            )
                        )
                for member in members:
                    if member != uid and member not in executed:
                        peer_rank = self.events[member].op.rank
                        peer_tid = self.events[member].tid
                        stuck_on = head_of_thread(peer_tid)
                        if stuck_on is not None and stuck_on != member:
                            reasons.append(
                                (
                                    stuck_on,
                                    f"waits for rank {peer_rank} to reach "
                                    f"{self.events[member].describe()}, but rank "
                                    f"{peer_rank} is at {self.events[stuck_on].describe()}",
                                )
                            )
            elif op.kind in GOSSIP_KINDS:
                resolved = matches.gossip_peers.get(uid, [])
                for peer, (peer_uid, mutual) in zip(op.peers, resolved):
                    if peer_uid is None and peer not in op.group:
                        reasons.append(
                            (
                                None,
                                f"rank {op.rank} lists peer {peer} outside group "
                                f"{list(op.group)} — the recv is never posted",
                            )
                        )
                    elif peer_uid is None:
                        reasons.append(
                            (
                                None,
                                f"waits on a peer that never reaches this gossip "
                                f"round — {op.describe()}",
                            )
                        )
                    elif not mutual:
                        peer_op = self.events[peer_uid].op
                        reasons.append(
                            (
                                None,
                                f"rank {op.rank} exchanges with rank {peer_op.rank} "
                                f"but rank {peer_op.rank}'s peer set "
                                f"{sorted(peer_op.peers)} does not list rank "
                                f"{op.rank} — the recv is never posted",
                            )
                        )
                    elif peer_uid not in executed:
                        reasons.append(
                            (
                                peer_uid,
                                f"waits for {self.events[peer_uid].describe()}",
                            )
                        )
            elif op.kind == "recv":
                send_uid = matches.send_of.get(uid)
                if send_uid is None:
                    reasons.append(
                        (
                            None,
                            f"recv of {op.nbytes:.0f} B from rank "
                            f"{op.peers[0] if op.peers else '?'} has no matching "
                            "send — it blocks forever",
                        )
                    )
                elif send_uid not in executed:
                    reasons.append(
                        (send_uid, f"waits for {self.events[send_uid].describe()}")
                    )
            waits[uid] = reasons

        # A wait target that is not itself blocked resolves to the event its
        # thread is actually stuck on (the head of that thread).
        def resolve(target: int | None) -> int | None:
            if target is None:
                return None
            if target in blocked_set:
                return target
            stuck = head_of_thread(self.events[target].tid)
            return stuck if stuck in blocked_set else None

        # 1) Unsatisfiable waits are root causes on their own.
        reported: set[int] = set()
        for uid in blocked:
            for target, text in waits.get(uid, []):
                if target is None:
                    self._unsatisfiable(self.events[uid], text)
                    reported.add(uid)

        # 2) Cycles in the wait-for graph among the remaining blocked events.
        graph: dict[int, list[tuple[int, str]]] = {}
        for uid in blocked:
            edges = []
            for target, text in waits.get(uid, []):
                resolved = resolve(target)
                if resolved is not None:
                    edges.append((resolved, text))
            graph[uid] = edges

        cycle = self._find_cycle(graph)
        if cycle is not None and not any(uid in reported for uid in cycle):
            witness = []
            for i, uid in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                text = next((t for v, t in graph[uid] if v == nxt), "waits for")
                witness.append(f"{self.events[uid].describe()} -> {text}")
            first = self.events[cycle[0]]
            ranks = sorted({self.events[uid].op.rank for uid in cycle})
            self.deadlocks.append(
                Deadlock(
                    message=(
                        f"wait cycle across ranks {ranks}: "
                        + " ; ".join(self.events[uid].op.describe() for uid in cycle)
                    ),
                    events=list(cycle),
                    witness=witness,
                    rank=first.op.rank,
                    seq=first.op.seq,
                    bucket=first.op.bucket or None,
                    step=first.op.step if first.op.step >= 0 else None,
                )
            )
        elif cycle is None and not reported:
            # Blocked without a local root cause: report the first stuck event.
            event = self.events[blocked[0]]
            reasons = "; ".join(t for _v, t in waits.get(event.uid, [])) or "unknown wait"
            self.deadlocks.append(
                Deadlock(
                    message=f"{event.describe()} never becomes runnable: {reasons}",
                    events=[event.uid],
                    witness=[f"{event.describe()} is blocked: {reasons}"],
                    rank=event.op.rank,
                    seq=event.op.seq,
                    bucket=event.op.bucket or None,
                )
            )

    def _unsatisfiable(self, event: HBEvent, text: str) -> None:
        """Record ``event`` as blocked on a wait nothing can ever satisfy."""
        self.deadlocks.append(
            Deadlock(
                message=f"{event.describe()}: {text}",
                events=[event.uid],
                witness=[f"{event.describe()} is blocked: {text}"],
                rank=event.op.rank,
                seq=event.op.seq,
                bucket=event.op.bucket or None,
                step=event.op.step if event.op.step >= 0 else None,
            )
        )

    @staticmethod
    def _find_cycle(graph: dict[int, list[tuple[int, str]]]) -> list[int] | None:
        """First cycle in the wait-for graph (DFS with an explicit stack)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {uid: WHITE for uid in graph}
        for root in graph:
            if color[root] != WHITE:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            trail: list[int] = []
            while stack:
                uid, edge_idx = stack.pop()
                if edge_idx == 0:
                    color[uid] = GRAY
                    trail.append(uid)
                edges = graph.get(uid, [])
                advanced = False
                for i in range(edge_idx, len(edges)):
                    target = edges[i][0]
                    if target not in color:
                        continue
                    if color[target] == GRAY:
                        at = trail.index(target)
                        return trail[at:]
                    if color[target] == WHITE:
                        stack.append((uid, i + 1))
                        stack.append((target, 0))
                        advanced = True
                        break
                if not advanced:
                    color[uid] = BLACK
                    trail.pop()
        return None


# ----------------------------------------------------------------------
# Entry point + the four rules
# ----------------------------------------------------------------------
def build_hb(subject: AnalysisSubject) -> HBGraph:
    """Build (and cache on the subject) the happens-before graph."""
    cached = subject.notes.get(_SUBJECT_CACHE_KEY)
    if isinstance(cached, HBGraph) and cached.subject is subject:
        return cached
    graph = HBGraph(subject)
    subject.notes[_SUBJECT_CACHE_KEY] = graph
    return graph


def _pair_witness(graph: HBGraph, a: HBEvent, b: HBEvent) -> tuple[str, ...]:
    lines = [
        f"unordered pair on rank {a.op.rank}:",
        f"  A: {a.describe()}",
        f"  B: {b.describe()}",
        "  no happens-before path A -> B or B -> A",
    ]
    ancestor = graph.common_ancestor(a, b)
    if ancestor is not None:
        lines.append(f"  last common predecessor: {ancestor.describe()}")
    return tuple(lines)


def check_races(graph: HBGraph) -> list[Finding]:
    """hb-race: same-rank interval conflicts with no happens-before order,
    and issues whose in-flight access is never retired."""
    findings = [
        Finding(
            rule="hb-race",
            severity="error",
            message=(
                f"{issue.op.describe()} on rank {issue.op.rank} is never awaited — "
                "its in-flight access is never retired, so its result is never "
                "observed and the next iteration races it"
            ),
            rank=issue.op.rank,
            seq=issue.op.seq,
            bucket=issue.op.bucket or None,
            step=issue.op.step if issue.op.step >= 0 else None,
            witness=(f"{issue.describe()} has no later await of its bucket",),
        )
        for issue in graph.unretired
    ]
    if graph.deadlocked:
        return findings  # clocks past the wedge are meaningless
    for events in graph._by_rank.values():
        touching = [e for e in events if e.footprints and e.clock]
        for i, a in enumerate(touching):
            for b in touching[i + 1:]:
                if a.tid == b.tid or graph.ordered(a, b):
                    continue
                for fa in a.footprints:
                    if fa.space.startswith(SPACE_EF):
                        continue  # residual conflicts are hb-lost-update's
                    for fb in b.footprints:
                        if fb.space.startswith(SPACE_EF):
                            continue
                        if fa.overlaps(fb) and (fa.writes or fb.writes):
                            findings.append(
                                Finding(
                                    rule="hb-race",
                                    severity="error",
                                    message=(
                                        f"{a.op.describe()} and {b.op.describe()} "
                                        f"touch overlapping {fa.space} bytes "
                                        f"[{max(fa.start, fb.start)}, "
                                        f"{min(fa.stop, fb.stop)}) on rank "
                                        f"{a.op.rank} with no happens-before "
                                        "order — one concurrently clobbers what "
                                        "the other reads or writes"
                                    ),
                                    rank=a.op.rank,
                                    seq=a.op.seq,
                                    bucket=a.op.bucket or b.op.bucket or None,
                                    step=a.op.step if a.op.step >= 0 else None,
                                    witness=_pair_witness(graph, a, b),
                                )
                            )
                            break
                    else:
                        continue
                    break
    return findings


def check_deadlocks(graph: HBGraph) -> list[Finding]:
    """hb-deadlock: wait cycles and unsatisfiable waits."""
    findings: list[Finding] = []
    for deadlock in graph.deadlocks:
        findings.append(
            Finding(
                rule="hb-deadlock",
                severity="error",
                message=deadlock.message,
                rank=deadlock.rank,
                seq=deadlock.seq,
                bucket=deadlock.bucket,
                step=deadlock.step,
                witness=tuple(deadlock.witness),
            )
        )
    return findings


def check_lost_updates(graph: HBGraph) -> list[Finding]:
    """hb-lost-update: unordered accesses to error-feedback residuals."""
    if graph.deadlocked:
        return []
    findings: list[Finding] = []
    for events in graph._by_rank.values():
        touching = [
            e
            for e in events
            if e.clock and any(f.space.startswith(SPACE_EF) for f in e.footprints)
        ]
        for i, a in enumerate(touching):
            for b in touching[i + 1:]:
                if a.tid == b.tid or graph.ordered(a, b):
                    continue
                for fa in a.footprints:
                    if not fa.space.startswith(SPACE_EF):
                        continue
                    for fb in b.footprints:
                        if fb.space != fa.space or not fa.overlaps(fb):
                            continue
                        if fa.writes or fb.writes:
                            writer, other = (a, b) if fa.writes else (b, a)
                            findings.append(
                                Finding(
                                    rule="hb-lost-update",
                                    severity="error",
                                    message=(
                                        f"error-feedback residual write "
                                        f"{writer.op.describe()} is unordered "
                                        f"with {other.op.describe()} on rank "
                                        f"{writer.op.rank} — the compensation "
                                        "state one of them observes is lost"
                                    ),
                                    rank=writer.op.rank,
                                    seq=writer.op.seq,
                                    bucket=writer.op.bucket or other.op.bucket or None,
                                    step=writer.op.step if writer.op.step >= 0 else None,
                                    witness=_pair_witness(graph, a, b),
                                )
                            )
                            break
                    else:
                        continue
                    break
    return findings


def check_staleness(graph: HBGraph) -> list[Finding]:
    """hb-staleness: updates consuming gradients older than the bound."""
    if graph.deadlocked:
        return []
    bound = graph.subject.notes.get("staleness_bound")
    if bound is None:
        return []
    bound = int(bound)
    findings: list[Finding] = []
    for events in graph._by_rank.values():
        grads = [e for e in events if e.op.kind == "issue" and e.op.step >= 0 and e.clock]
        updates = [
            e for e in events if e.op.kind == "opt_step" and e.op.step >= 0 and e.clock
        ]
        for update in updates:
            producers = [
                g
                for g in grads
                if g.op.bucket == update.op.bucket and graph.happens_before(g, update)
            ]
            if not producers:
                continue
            freshest = max(producers, key=lambda g: g.op.step)
            staleness = update.op.step - freshest.op.step
            if staleness <= bound:
                continue
            chain = graph.path(freshest, update) or [freshest, update]
            witness = [
                f"update at step {update.op.step} consumes the gradient computed "
                f"at step {freshest.op.step} (staleness {staleness} > bound {bound}):"
            ]
            witness.extend(f"  -> {e.describe()}" for e in chain)
            findings.append(
                Finding(
                    rule="hb-staleness",
                    severity="error",
                    message=(
                        f"{update.op.describe()} consumes a gradient {staleness} "
                        f"step(s) old (freshest happens-before producer is "
                        f"step {freshest.op.step}); the algorithm declares a "
                        f"staleness bound of {bound}"
                    ),
                    rank=update.op.rank,
                    seq=update.op.seq,
                    bucket=update.op.bucket or None,
                    step=update.op.step,
                    witness=tuple(witness),
                )
            )
    return findings


#: The rules :func:`check_hb` reports, in reporting order.
HB_RULES: tuple[str, ...] = ("hb-deadlock", "hb-race", "hb-lost-update", "hb-staleness")


def check_hb(subject: AnalysisSubject) -> list[Finding]:
    """Run all four happens-before rules over one subject."""
    graph = build_hb(subject)
    findings = check_deadlocks(graph)
    findings.extend(check_races(graph))
    findings.extend(check_lost_updates(graph))
    findings.extend(check_staleness(graph))
    return findings
