"""Per-bucket ready-order scheduling: one schedule, three consumers.

The paper's headline optimizations — overlapping bucket communication with
the backward pass (O) and updating parameters per bucket — are properties of
the *dependency schedule*, not of the arithmetic (Shi et al.'s DAG model of
synchronous SGD).  This module makes that schedule a first-class object:

* :class:`BucketSchedule` is the IR, and the only bucketing IR: what
  :meth:`~repro.core.optimizer_framework.ExecutionOptimizer.plan` returns
  from a profile — per-bucket events (gradient-ready gate, communicate,
  post-process, optimizer update) whose gates encode the O/F/H switches and
  the per-bucket vs single-barrier update policy;
* :class:`ScheduledExecutor` *runs* the schedule in functional mode: it
  drives real per-worker buckets through the transport's virtual clocks in
  gradient-ready order, charging compute time per profiled layer group, so
  ``BaguaConfig(overlap=True)`` measurably changes iteration time;
* :func:`repro.simulation.pipeline.simulate_iteration` *prices* the same
  schedule in timing mode, and :func:`repro.analysis.lowering.lower_schedule`
  lowers it into the comm-op IR for the static checker suite.

One object, three interpretations — the functional engine, the timing
simulator and the analyzer can no longer drift apart silently.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import BaguaEngine

#: Gate names for communication events.
GATE_GRAD_READY = "grad_ready"  # O on: comm may start at the bucket's ready point
GATE_BACKWARD_END = "backward_end"  # O off: comm waits for the whole backward
#: Gate names for update events.
GATE_COMM_DONE = "comm_done"  # per-bucket update: lands right after the comm
GATE_BARRIER = "barrier"  # single barrier: waits for every bucket's comm

#: Update policies (mirrors ``Algorithm.update_mode``).
UPDATE_PER_BUCKET = "per_bucket"
UPDATE_BARRIER = "barrier"


@dataclass(frozen=True)
class ScheduledBucket:
    """One communication unit of the schedule (a fused bucket).

    ``views`` are ``(param_name, elements)`` pairs in bucket order — what
    the engine builds each worker's real bucket from, and enough to rebuild
    the planned address layout for the aliasing analysis without holding
    live tensors.
    """

    index: int
    name: str
    elements: int
    ready_index: int
    fwd_flops: float = 0.0
    bwd_flops: float = 0.0
    num_tensors: int = 1
    views: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class ScheduleEvent:
    """One gated per-bucket event.

    ``kind`` is ``comm`` (the collective), ``post`` (communication-side
    post-processing: decompression, server aggregation) or ``update`` (the
    optimizer step on the bucket).  ``gate`` names the dependency the event
    waits on; consumers interpret it against their own notion of time.
    """

    kind: str
    bucket: int
    gate: str


@dataclass(frozen=True)
class BucketSchedule:
    """The per-bucket communication schedule of one training iteration.

    ``buckets`` are in gradient-ready order (the order backward produces
    them, which is the order communication is issued).  The boolean switches
    are the O optimization (``overlap_backward``) and the update policy
    (``per_bucket_updates``); F shows up as the bucketing itself and H as a
    per-schedule flag the comm events inherit.
    """

    buckets: tuple[ScheduledBucket, ...]
    overlap_backward: bool = True
    per_bucket_updates: bool = True
    hierarchical: bool = False
    flatten: bool = True

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def total_elements(self) -> int:
        return sum(b.elements for b in self.buckets)

    def comm_order(self) -> tuple[ScheduledBucket, ...]:
        """Buckets in the order their communication is issued (ready order)."""
        return self.buckets

    def forward_order(self) -> tuple[ScheduledBucket, ...]:
        """Layer groups in forward order (reverse of gradient-ready order)."""
        return tuple(reversed(self.buckets))

    def variants(self) -> Iterator[BucketSchedule]:
        """The sixteen O x F x H x update-mode rewrites of this schedule.

        Every rewrite the execution optimizer could emit for one committed
        bucketing (flipping F does *not* re-plan the buckets), in the order
        the analyzer sweeps report them: O outermost, update mode innermost,
        off before on.
        """
        for overlap, flatten, hierarchical, per_bucket in itertools.product(
            (False, True), repeat=4
        ):
            yield replace(
                self,
                overlap_backward=overlap,
                flatten=flatten,
                hierarchical=hierarchical,
                per_bucket_updates=per_bucket,
            )

    def events(self) -> list[ScheduleEvent]:
        """The gated event stream consumers execute/price/lower.

        Per bucket, in ready order: a ``comm`` gated on the bucket's gradient
        readiness (O on) or the end of backward (O off), a ``post`` gated on
        that comm, and — with per-bucket updates — an ``update`` gated on the
        same comm.  With the single-barrier policy all updates trail the
        stream, gated on the barrier over every bucket's communication.
        """
        comm_gate = GATE_GRAD_READY if self.overlap_backward else GATE_BACKWARD_END
        stream: list[ScheduleEvent] = []
        for bucket in self.buckets:
            stream.append(ScheduleEvent("comm", bucket.index, comm_gate))
            stream.append(ScheduleEvent("post", bucket.index, GATE_COMM_DONE))
            if self.per_bucket_updates:
                stream.append(ScheduleEvent("update", bucket.index, GATE_COMM_DONE))
        if not self.per_bucket_updates:
            for bucket in self.buckets:
                stream.append(ScheduleEvent("update", bucket.index, GATE_BARRIER))
        return stream

    def describe(self) -> str:
        return (
            f"O={int(self.overlap_backward)},F={int(self.flatten)},"
            f"H={int(self.hierarchical)},"
            f"updates={'per-bucket' if self.per_bucket_updates else 'barrier'},"
            f"buckets={self.num_buckets}"
        )


@dataclass(frozen=True)
class ComputeModel:
    """Prices the local compute the functional engine does not really time.

    Functional mode executes real numpy forward/backward passes but wall
    time is meaningless there; what matters for the virtual clocks is the
    *modeled* GPU time per layer group.  When the profile carries flops
    (timing-mode specs) they are used directly; the profiling phase of
    functional mode records no flops, so a per-element coefficient stands in
    — backward work is roughly proportional to parameter count for the dense
    layers that dominate the reproduction's models.  Forward is not priced:
    functional clocks charge backward and communication only, and forward
    time exists only in timing mode.
    """

    #: seconds of backward compute per bucket element when no flops are known
    bwd_seconds_per_element: float = 2e-9
    #: sustained FLOP/s used when the schedule carries real flop counts
    flops_per_second: float = 15.7e12

    def bwd_seconds(self, bucket: ScheduledBucket) -> float:
        if bucket.bwd_flops > 0.0:
            return bucket.bwd_flops / self.flops_per_second
        return bucket.elements * self.bwd_seconds_per_element


@dataclass
class IterationReport:
    """Virtual-clock accounting of one scheduled functional iteration."""

    step: int
    #: per-rank absolute clock at the start of the iteration
    start_times: dict[int, float] = field(default_factory=dict)
    #: per-rank absolute clock after compute + communication + updates
    end_times: dict[int, float] = field(default_factory=dict)
    #: per-rank time backward finished (the compute stream's end)
    backward_end: dict[int, float] = field(default_factory=dict)
    #: per (rank, bucket index) absolute gradient-ready time — the comm gate
    ready_times: dict[tuple[int, int], float] = field(default_factory=dict)
    #: per (rank, bucket index) absolute clock right after the bucket's comm;
    #: with the lowered schedule's happens-before order this lets tests prove
    #: HB ⇒ time-ordered against the executor's virtual clocks
    comm_times: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def iteration_time(self) -> float:
        """Wall time of the slowest rank for this iteration."""
        return max(
            self.end_times[r] - self.start_times[r] for r in self.end_times
        )

    @property
    def exposed_comm_time(self) -> float:
        """Slowest rank's time not hidden behind its own backward pass."""
        return max(
            (self.end_times[r] - self.start_times[r])
            - (self.backward_end[r] - self.start_times[r])
            for r in self.end_times
        )


class ScheduledExecutor:
    """Drives an engine's per-worker buckets through a :class:`BucketSchedule`.

    The executor is the functional-mode interpreter of the schedule: for each
    ``comm`` event it advances every participating rank's virtual clock to
    the event's gate (the bucket's gradient-ready time under O, the end of
    backward otherwise) and then calls the algorithm's per-bucket
    communication function, whose exchanges advance the clocks further under
    the transport's alpha-beta cost model.  Compute time is charged from a
    :class:`ComputeModel` per layer group, scaled by each rank's straggler
    factor — so overlap genuinely shortens the measured iteration, instead
    of being a simulator-only fiction.
    """

    def __init__(
        self,
        engine: BaguaEngine,
        schedule: BucketSchedule,
        compute_model: ComputeModel | None = None,
    ) -> None:
        self.engine = engine
        self.schedule = schedule
        self.compute_model = compute_model or ComputeModel()
        self.last_report: IterationReport | None = None

    def run_step(self, step: int) -> IterationReport:
        """Execute one iteration's communication + updates for every worker."""
        engine = self.engine
        transport = engine.group.transport
        spec = transport.spec
        ranks = [w.rank for w in engine.workers]
        report = IterationReport(step=step)
        for rank in ranks:
            report.start_times[rank] = transport.now(rank)

        # Compute stream: absolute gradient-ready time per (rank, bucket),
        # accumulating backward cost in ready order under straggler scaling.
        ready_at: dict[tuple[int, int], float] = {}
        for rank in ranks:
            t = report.start_times[rank]
            for bucket in self.schedule.comm_order():
                t += self.compute_model.bwd_seconds(bucket) * spec.compute_scale(rank)
                ready_at[(rank, bucket.index)] = t
            report.backward_end[rank] = t
        report.ready_times = dict(ready_at)

        # Communication stream: the transport clocks.  Each comm event gates
        # on grad-ready (O on) or backward-end (O off), then the algorithm's
        # communication function runs and the exchanges charge wire time.
        algorithm = engine.algorithm
        clocks = transport.clocks
        for event in self.schedule.events():
            if event.kind == "comm":
                for rank in ranks:
                    gate = (
                        ready_at[(rank, event.bucket)]
                        if event.gate == GATE_GRAD_READY
                        else report.backward_end[rank]
                    )
                    if gate > clocks[rank]:
                        clocks[rank] = gate
                algorithm.comm_bucket(engine, event.bucket, step)
                for rank in ranks:
                    report.comm_times[(rank, event.bucket)] = transport.now(rank)
            # ``post`` and per-bucket ``update`` costs are charged inside the
            # algorithm (compression kernels travel with the payloads; the
            # optimizer step is traced but free in functional mode).

        algorithm.on_step_end(engine, step)

        # Join the streams: no rank finishes before its own backward did,
        # and the single-barrier policy synchronizes everyone on the slowest.
        for rank in ranks:
            if report.backward_end[rank] > clocks[rank]:
                clocks[rank] = report.backward_end[rank]
        if not self.schedule.per_bucket_updates:
            transport.barrier(ranks)
        for rank in ranks:
            report.end_times[rank] = transport.now(rank)
        self.last_report = report
        return report
