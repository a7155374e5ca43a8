"""Lowering bucket schedules and live buckets into the comm-op IR.

Two producers feed the checker suite without (or alongside) a dry run:

* :func:`lower_schedule` turns a :class:`~repro.core.schedule.BucketSchedule`
  — what the execution optimizer plans and the
  :class:`~repro.core.schedule.ScheduledExecutor` runs — into the SPMD
  schedule every rank would execute: communication issues at each bucket's
  gradient-ready point (when overlap is on), awaits, the collective itself,
  and the optimizer updates that must come after.  It walks the schedule's
  gated event stream, so per-bucket vs barrier update policies lower to
  different (and separately checkable) op orders, and a schedule can be
  verified before anything runs;
* :func:`layout_from_schedule` / :func:`layout_from_buckets` produce the
  bucket address layout, planned (cumulative offsets) or real (byte
  addresses of the live buckets' buffers), for the aliasing analysis.

The per-rank event enumeration itself lives in :func:`emit_iteration`, which
is parameterized by a :class:`CommPattern` — the algorithm-level shape of
each bucket's collective (kind, codec, error feedback, gossip peer sets).
``lower_schedule`` drives it with the centralized pattern its arguments
imply; :mod:`repro.analysis.symbolic` drives the very same emitter from a
plan *description* (no engine, no transport), so the symbolic path is
event-identical to the executor-facing lowering by construction.

Lowered ops carry the metadata the happens-before engine
(:mod:`repro.analysis.hb`) consumes: a ``thread`` id (overlapped schedules
run collectives on a ``"comm"`` stream concurrent with ``"main"``), a
``gate`` naming the intra-rank dependency (the ``GATE_*`` constants of
:mod:`repro.core.schedule` — no stringly-typed literals here), and the
``start``/``stop`` element interval of the touched bucket.  With a node
structure (``nodes=``), a hierarchical schedule lowers to its three real
phases — intra-node ``reduce``, inter-node (compressed) ``allreduce`` or
gossip on the leader subgroup, intra-node ``broadcast`` — the phase
structure shared with :func:`repro.comm.hierarchical.hierarchical_phases`,
so cross-phase ordering is verified, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..comm.hierarchical import hierarchical_phases
from ..compression.base import Compressor
from ..core.bucket import TensorBucket
from ..core.schedule import (
    GATE_BACKWARD_END,
    GATE_BARRIER,
    GATE_COMM_DONE,
    GATE_GRAD_READY,
    BucketSchedule,
)
from .ir import GOSSIP_KINDS, AnalysisSubject, BucketExtent, CommTrace, ParamView

#: Thread names of a lowered rank program: ``main`` models the training
#: loop (backward, awaits, optimizer), ``comm`` the concurrent reduction
#: stream an overlapped schedule launches collectives on.
MAIN_THREAD = "main"
COMM_THREAD = "comm"


@dataclass(frozen=True)
class CommPattern:
    """The algorithm-level shape of one iteration's bucket collectives.

    ``kind`` is the flat (or, under H, inter-node) collective kind; gossip
    kinds additionally carry ``peer_sets`` — global neighbor sets indexed by
    global rank (for hierarchical gossip only the leader ranks' entries are
    meaningful, since only leaders exchange with peers).  ``silent`` models
    iterations with no collective at all (a LocalSGD step between syncs):
    updates still happen, in plain program order, but nothing is issued,
    communicated or awaited.
    """

    kind: str = "allreduce"
    compressor: str = ""
    biased: bool = False
    error_feedback: bool = False
    peer_sets: tuple[tuple[int, ...], ...] | None = None
    silent: bool = False

    def __post_init__(self) -> None:
        if self.kind in GOSSIP_KINDS and self.peer_sets is None and not self.silent:
            raise ValueError(f"gossip pattern {self.kind!r} needs peer_sets")


def emit_iteration(
    trace: CommTrace,
    schedule: BucketSchedule,
    pattern: CommPattern,
    nodes: Sequence[Sequence[int]] | None = None,
    step: int = -1,
) -> None:
    """Append one iteration's per-rank op stream to ``trace``.

    This is the single event enumerator behind both lowering front-ends:
    :func:`lower_schedule` (executor-facing) and the symbolic plan lowering
    (:mod:`repro.analysis.symbolic`).  Multi-step callers invoke it once per
    iteration with increasing ``step``; per-rank ``seq`` numbering continues
    across calls, so the result is each rank's full program order.
    """
    world_size = trace.world_size
    by_index = {b.index: b for b in schedule.buckets}
    flat_group = tuple(range(world_size))
    events = schedule.events()
    layout = layout_from_schedule(schedule)
    extent_of = {extent.name: (extent.start, extent.stop) for extent in layout}

    node_groups: list[tuple[int, ...]] = (
        [tuple(sorted(node)) for node in nodes] if nodes else []
    )
    hierarchical = bool(schedule.hierarchical) and len(node_groups) > 1
    leaders = tuple(node[0] for node in node_groups) if hierarchical else ()

    overlap = schedule.overlap_backward
    silent = pattern.silent
    comm_thread = COMM_THREAD if overlap else MAIN_THREAD
    comm_gate = GATE_GRAD_READY if overlap else GATE_BACKWARD_END
    gossip = pattern.kind in GOSSIP_KINDS

    codec = {
        "compressor": pattern.compressor,
        "biased": pattern.biased,
        "error_feedback": pattern.error_feedback,
    }

    # Per-rank peer sets of the flat (non-hierarchical) collective: the
    # rank's gossip neighbors, or everyone else in the group.
    if gossip:
        flat_peers = [
            tuple(pattern.peer_sets[r]) if pattern.peer_sets else ()
            for r in range(world_size)
        ]
    else:
        flat_peers = [flat_group[:r] + flat_group[r + 1:] for r in range(world_size)]

    # Per-rank hierarchical phase descriptors — everything about a phase op
    # except the bucket payload, which the event loop merges in.  Intra-node
    # reduce / broadcast stay full-precision (H only compresses the
    # inter-node tier, paper §3.4); later phases follow the first in
    # comm-thread program order, so only the first carries the comm gate.
    phase_dicts: list[list[dict]] = []
    if hierarchical:
        node_by_rank: dict[int, tuple[int, ...]] = {
            rank: node for node in node_groups for rank in node
        }
        for rank in range(world_size):
            if rank not in node_by_rank:
                raise ValueError(f"rank {rank} is in no node of {node_groups}")
            dicts: list[dict] = []
            gate = comm_gate
            for phase, group in hierarchical_phases(node_by_rank[rank], leaders, rank):
                if phase == "inter":
                    peers = (
                        flat_peers[rank] if gossip
                        else tuple(r for r in group if r != rank)
                    )
                    dicts.append(
                        {"kind": pattern.kind, "gate": gate, "group": group,
                         "peers": peers, **codec}
                    )
                else:
                    dicts.append(
                        {"kind": phase, "gate": gate, "group": group,
                         "peers": tuple(r for r in group if r != rank)}
                    )
                gate = ""
            phase_dicts.append(dicts)

    # One template dict per event, shared across ranks (add_prepared never
    # mutates them); only the comm op itself is rank-dependent (peers, and
    # under H the phase structure), so it gets a copy per rank.
    per_bucket_gate = GATE_COMM_DONE if schedule.per_bucket_updates else GATE_BARRIER
    prepared: list[tuple] = []
    for event in events:
        bucket = by_index[event.bucket]
        start, stop = extent_of[bucket.name]
        payload = {
            "bucket": bucket.name, "elements": bucket.elements,
            "step": step, "start": start, "stop": stop,
        }
        if event.kind == "comm":
            issue_t = {"kind": "issue", "thread": MAIN_THREAD, **payload}
            await_t = {
                "kind": "await", "thread": MAIN_THREAD,
                "gate": GATE_COMM_DONE, **payload,
            }
            if hierarchical:
                comm_t = {"thread": comm_thread, **payload}
            else:
                comm_t = {
                    "kind": pattern.kind, "thread": comm_thread,
                    "gate": comm_gate, "group": flat_group, **codec, **payload,
                }
            prepared.append(("comm", issue_t, comm_t, await_t))
        elif event.kind == "update":
            # On a silent (local-only) iteration the update depends on
            # nothing but program order — there is no comm to gate on.
            gate = "" if silent else per_bucket_gate
            prepared.append(
                ("update",
                 {"kind": "opt_step", "thread": MAIN_THREAD, "gate": gate,
                  **payload})
            )
        # "post" events carry no schedule hazard of their own: the
        # decompression is part of the awaited communication.

    add_prepared = trace.add_prepared
    for rank in range(world_size):
        # Under overlap, every comm issues at its grad-ready gate — i.e.
        # concurrently with the rest of backward — before anything awaits.
        if overlap and not silent:
            for entry in prepared:
                if entry[0] == "comm":
                    add_prepared(rank, entry[1])
        for entry in prepared:
            if entry[0] == "update":
                add_prepared(rank, entry[1])
                continue
            if silent:
                continue
            _, issue_t, comm_t, await_t = entry
            if not overlap:
                add_prepared(rank, issue_t)
            if hierarchical:
                for phase_t in phase_dicts[rank]:
                    merged = comm_t.copy()
                    merged.update(phase_t)
                    add_prepared(rank, merged)
            else:
                merged = comm_t.copy()
                merged["peers"] = flat_peers[rank]
                add_prepared(rank, merged)
            add_prepared(rank, await_t)


def lower_schedule(
    schedule: BucketSchedule,
    world_size: int,
    compressor: Compressor | None = None,
    error_feedback: bool = False,
    nodes: Sequence[Sequence[int]] | None = None,
) -> AnalysisSubject:
    """Lower a :class:`BucketSchedule` into the per-rank schedule trace.

    The schedule is identical on every rank (it is SPMD by construction).
    It walks the schedule's own gated event stream — so what the checkers
    prove is the *exact* order the
    :class:`~repro.core.schedule.ScheduledExecutor` runs, including the
    per-bucket vs barrier update placement.

    Under overlap, collectives are emitted on the ``comm`` thread gated on
    their bucket's issue (``grad_ready``) while issues, awaits and updates
    stay on ``main`` — the two-stream structure the happens-before engine
    needs to prove the overlap race-free.  ``nodes`` (an iterable of
    per-node global-rank groups, e.g. from
    :meth:`~repro.cluster.topology.ClusterSpec.node_groups`) unlocks the
    hierarchical three-phase lowering when ``schedule.hierarchical`` is set;
    without it the comm lowers as one flat-group collective.
    """
    pattern = CommPattern(
        kind="compressed_allreduce" if compressor is not None else "allreduce",
        compressor=compressor.name if compressor is not None else "",
        biased=bool(getattr(compressor, "biased", False)) if compressor is not None else False,
        error_feedback=error_feedback,
    )
    trace = CommTrace(world_size)
    emit_iteration(trace, schedule, pattern, nodes=nodes)
    return AnalysisSubject(
        world_size=world_size,
        trace=trace,
        layout=layout_from_schedule(schedule),
        source=f"schedule lowering ({schedule.describe()})",
    )


def layout_from_schedule(schedule: BucketSchedule) -> tuple[BucketExtent, ...]:
    """Planned layout implied by a schedule's bucket views (packed extents)."""
    extents: list[BucketExtent] = []
    base = 0
    for bucket in schedule.buckets:
        views = []
        offset = base
        for name, elements in bucket.views:
            views.append(ParamView(name=name, start=offset, stop=offset + elements))
            offset += elements
        extents.append(
            BucketExtent(
                name=bucket.name,
                start=base,
                stop=base + bucket.elements,
                views=tuple(views),
            )
        )
        base += bucket.elements
    return tuple(extents)


def _real_extent(name: str, buffer: np.ndarray, arrays: Sequence[np.ndarray]) -> BucketExtent:
    """``buffer``'s byte range, with one view per array that should lie in it."""
    base = buffer.__array_interface__["data"][0]
    views = []
    for i, array in enumerate(arrays):
        addr = array.__array_interface__["data"][0]
        views.append(ParamView(name=f"{name}[{i}]", start=addr, stop=addr + array.nbytes))
    return BucketExtent(name=name, start=base, stop=base + buffer.nbytes, views=tuple(views))


def layout_from_buckets(buckets: Sequence[TensorBucket]) -> tuple[BucketExtent, ...]:
    """Real layout of live buckets, at actual byte addresses.

    A parameter whose storage was not re-pointed into the fused buffer, or
    two buffers that genuinely share memory, show up as real aliasing
    violations.  Each bucket contributes two extents: its weights and, as
    ``{name}.grad``, its gradient buffer with the slots its parameters
    accumulate into — gradients are reduced in place, so a slot shared with
    another slot or with a weight is the same silent corruption.
    """
    extents = []
    for bucket in buckets:
        extents.append(_real_extent(bucket.name, bucket.buffer, [p.data for p in bucket.params]))
        extents.append(
            _real_extent(f"{bucket.name}.grad", bucket.grad_buffer, bucket.bound_grad_slots())
        )
    return tuple(extents)
