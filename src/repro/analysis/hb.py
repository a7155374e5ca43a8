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

Construction is operational: an abstract scheduler replays the per-thread
streams under one wait relation, which says what holds a thread's head
back — an unexecuted gate predecessor, a collective partner not yet at its
thread's head or held by its own gate, a group rank that never issues the
collective, a gossip peer that does not reciprocate, a recv's missing or
unexecuted send.  An event's sync set runs exactly when it has no wait, and
the deadlock diagnosis reads the same waits, so a wedged replay always
reports a *provable deadlock*: an unsatisfiable wait (asymmetric or
out-of-group gossip peers, a missing group rank, a recv whose send never
exists) or a cycle in the cross-rank wait-for graph (mismatched collective
orders, also through a partner held by its gate).  A send no recv consumes
is reported as an unsatisfiable wait too.  On top of the clocks, four rules:

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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import product

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


#: What holds an event back: the event it waits on (``None`` when nothing
#: can ever satisfy the wait) and the reason, as printed in witnesses.
Wait = tuple[int | None, str]


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
        self.deadlocks: list[Finding] = []
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
        send_of = matches.send_of
        set_of = matches.set_of
        members_of = matches.members_of
        gossip_peers = matches.gossip_peers

        n_threads = len(self.threads)
        executed: set[int] = set()
        heads = [0] * n_threads

        def head(tid: int) -> int | None:
            return streams[tid][heads[tid]] if heads[tid] < len(streams[tid]) else None

        def gate_waits(uid: int) -> list[int]:
            return [p for p in gate_preds.get(uid, ()) if p not in executed]

        def hold(uid: int) -> tuple[list[int], list[Wait], list[int]]:
            """What holds thread head ``uid`` back.

            Returns its sync set (matched collective members, mutual-peer
            gossip closure, or ``uid`` alone), the set's waits, and extra
            happens-before predecessors (a recv's send).  The set runs
            exactly when it has no waits.  A wait's target is an unexecuted
            event, so the wait is stuck wherever that event's thread is.
            """
            op = self.events[uid].op
            waits: list[Wait] = [
                (p, f"gate {op.gate!r} waits on {self.events[p].describe()}")
                for p in gate_waits(uid)
            ]
            if op.kind in GOSSIP_KINDS:
                members = [uid]
                for current in members:  # grows into the mutual-peer closure
                    for p, mutual in gossip_peers.get(current, ()):
                        if p is not None and mutual and p not in members:
                            members.append(p)
                held = any(
                    head(self.events[m].tid) != m
                    or gate_waits(m)
                    or not all(mutual for _p, mutual in gossip_peers.get(m, ()))
                    for m in members
                )
                for peer, (peer_uid, mutual) in zip(op.peers, gossip_peers.get(uid, ())):
                    if peer_uid is None and peer not in op.group:
                        waits.append((None, f"rank {op.rank} lists peer {peer} outside group "
                                            f"{list(op.group)} — the recv is never posted"))
                    elif peer_uid is None:
                        waits.append((None, "waits on a peer that never reaches this gossip "
                                            f"round — {op.describe()}"))
                    elif not mutual:
                        peer_op = self.events[peer_uid].op
                        waits.append((None, f"rank {op.rank} exchanges with rank {peer_op.rank} "
                                            f"but rank {peer_op.rank}'s peer set "
                                            f"{sorted(peer_op.peers)} does not list rank "
                                            f"{op.rank} — the recv is never posted"))
                    elif held:
                        waits.append((peer_uid, f"waits for {self.events[peer_uid].describe()}"))
                return members, waits, []
            if op.scope == "collective":
                members = members_of.get(set_of.get(uid, ()), [uid])
                present = {self.events[m].op.rank for m in members}
                waits += [
                    (None, f"rank {peer} never issues a matching {op.describe()} "
                           f"— rank {op.rank} blocks forever")
                    for peer in op.group if peer not in present
                ]
                for member in members:
                    if member == uid:
                        continue
                    partner = self.events[member]
                    rank = partner.op.rank
                    # A partner of an unexecuted set is never past its thread's end.
                    at = streams[partner.tid][heads[partner.tid]]
                    why = (
                        [(at, f"rank {rank} is at")] if at != member
                        else [(p, f"gate {partner.op.gate!r} waits on") for p in gate_waits(member)]
                    )
                    waits += [
                        (p, f"waits for rank {rank} to reach {partner.describe()}, but "
                            f"{reason} {self.events[p].describe()}")
                        for p, reason in why
                    ]
                return members, waits, []
            if op.kind == "recv":
                send = send_of.get(uid)
                if send is None:
                    src = op.peers[0] if op.peers else "?"
                    waits.append((None, f"recv of {op.nbytes:.0f} B from rank {src} has no "
                                        "matching send — it blocks forever"))
                    return [uid], waits, []
                if send not in executed:
                    waits.append((send, f"waits for {self.events[send].describe()}"))
                return [uid], waits, [send]
            return [uid], waits, []  # sends and local schedule events run eagerly

        def execute(members: Sequence[int], extra: Sequence[int]) -> None:
            """Run ``members`` as one synchronization; assign their clocks."""
            pre = list(extra)
            for uid in members:
                tid = self.events[uid].tid
                if heads[tid] > 0:
                    pre.append(streams[tid][heads[tid] - 1])
                pre.extend(gate_preds.get(uid, ()))
            base = [0] * n_threads
            for uid in pre:
                base = [max(pair) for pair in zip(base, self.events[uid].clock)]
            preds = tuple(sorted(set(pre)))
            for uid in members:
                event = self.events[uid]
                clock = list(base)
                clock[event.tid] += 1
                event.clock = tuple(clock)
                event.preds = preds
                executed.add(uid)
                heads[event.tid] += 1

        progress = True
        while progress:
            progress = False
            for tid in range(n_threads):
                uid = head(tid)
                if uid is None:
                    continue
                members, waits, extra = hold(uid)
                if not waits:
                    execute(members, extra)
                    progress = True

        stuck_at = {
            tid: streams[tid][heads[tid]]
            for tid in range(n_threads)
            if heads[tid] < len(streams[tid])
        }
        if stuck_at:
            self._diagnose_deadlock(stuck_at, {uid: hold(uid)[1] for uid in stuck_at.values()})

        # A send no recv consumes never completes: an unsatisfiable wait.
        consumed = set(send_of.values())
        for event in self.events:
            op = event.op
            if op.kind == "send" and event.uid not in consumed:
                dst = op.peers[0] if op.peers else "?"
                self._unsatisfiable(
                    event,
                    f"send of {op.nbytes:.0f} B to rank {dst} has no matching recv "
                    f"— rank {dst} never consumes it",
                )

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
        self, stuck_at: dict[int, int], waits: dict[int, list[Wait]]
    ) -> None:
        """Report the wedged replay from the waits of each blocked head.

        ``stuck_at`` maps each unfinished thread to its head and ``waits``
        each such head to what holds it back.  A wait nothing can satisfy
        is a root cause on its own; every other wait is an edge to the head
        its target's thread is stuck at.  Every blocked head has a wait, so
        when none is unsatisfiable the wait-for graph has a cycle.
        """
        graph: dict[int, list[tuple[int, str]]] = {}
        reported: set[int] = set()
        for uid, reasons in waits.items():
            graph[uid] = []
            for target, text in reasons:
                if target is None:
                    self._unsatisfiable(self.events[uid], text)
                    reported.add(uid)
                else:
                    graph[uid].append((stuck_at[self.events[target].tid], text))

        cycle = self._find_cycle(graph)
        if cycle is not None and not reported.intersection(cycle):
            witness = []
            for i, uid in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                text = next(t for v, t in graph[uid] if v == nxt)
                witness.append(f"{self.events[uid].describe()} -> {text}")
            first = self.events[cycle[0]].op
            ranks = sorted({self.events[uid].op.rank for uid in cycle})
            self.deadlocks.append(
                Finding(
                    rule="hb-deadlock",
                    severity="error",
                    message=(
                        f"wait cycle across ranks {ranks}: "
                        + " ; ".join(self.events[uid].op.describe() for uid in cycle)
                    ),
                    rank=first.rank,
                    seq=first.seq,
                    bucket=first.bucket or None,
                    step=first.step if first.step >= 0 else None,
                    witness=tuple(witness),
                )
            )

    def _unsatisfiable(self, event: HBEvent, text: str) -> None:
        """Record ``event`` as blocked on a wait nothing can ever satisfy."""
        op = event.op
        self.deadlocks.append(
            Finding(
                rule="hb-deadlock",
                severity="error",
                message=f"{event.describe()}: {text}",
                rank=op.rank,
                seq=op.seq,
                bucket=op.bucket or None,
                step=op.step if op.step >= 0 else None,
                witness=(f"{event.describe()} is blocked: {text}",),
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


def _conflicts(
    graph: HBGraph, residual: bool
) -> Iterator[tuple[HBEvent, HBEvent, Footprint, Footprint]]:
    """Same-rank cross-thread event pairs with no happens-before order whose
    footprints conflict: overlapping bytes, at least one a write.

    ``residual`` selects error-feedback residual footprints (else the rest).
    Yields the first conflicting footprint pair of each event pair, in
    program order; nothing once the replay wedged (clocks past it are
    meaningless).
    """
    if graph.deadlocked:
        return
    for events in graph._by_rank.values():
        touching = [
            (e, prints)
            for e in events
            if e.clock
            and (prints := [f for f in e.footprints if f.space.startswith(SPACE_EF) == residual])
        ]
        for i, (a, prints_a) in enumerate(touching):
            for b, prints_b in touching[i + 1:]:
                if a.tid == b.tid or graph.ordered(a, b):
                    continue
                for fa, fb in product(prints_a, prints_b):
                    if fa.overlaps(fb) and (fa.writes or fb.writes):
                        yield a, b, fa, fb
                        break


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
    findings.extend(
        Finding(
            rule="hb-race",
            severity="error",
            message=(
                f"{a.op.describe()} and {b.op.describe()} touch overlapping "
                f"{fa.space} bytes [{max(fa.start, fb.start)}, "
                f"{min(fa.stop, fb.stop)}) on rank {a.op.rank} with no "
                "happens-before order — one concurrently clobbers what the "
                "other reads or writes"
            ),
            rank=a.op.rank,
            seq=a.op.seq,
            bucket=a.op.bucket or b.op.bucket or None,
            step=a.op.step if a.op.step >= 0 else None,
            witness=_pair_witness(graph, a, b),
        )
        for a, b, fa, fb in _conflicts(graph, residual=False)
    )
    return findings


def check_deadlocks(graph: HBGraph) -> list[Finding]:
    """hb-deadlock: wait cycles and unsatisfiable waits."""
    return list(graph.deadlocks)


def check_lost_updates(graph: HBGraph) -> list[Finding]:
    """hb-lost-update: unordered accesses to error-feedback residuals."""
    findings: list[Finding] = []
    for a, b, fa, _fb in _conflicts(graph, residual=True):
        writer, other = (a, b) if fa.writes else (b, a)
        findings.append(
            Finding(
                rule="hb-lost-update",
                severity="error",
                message=(
                    f"error-feedback residual write {writer.op.describe()} is "
                    f"unordered with {other.op.describe()} on rank "
                    f"{writer.op.rank} — the compensation state one of them "
                    "observes is lost"
                ),
                rank=writer.op.rank,
                seq=writer.op.seq,
                bucket=writer.op.bucket or other.op.bucket or None,
                step=writer.op.step if writer.op.step >= 0 else None,
                witness=_pair_witness(graph, a, b),
            )
        )
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
