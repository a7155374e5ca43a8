"""Discrete pipeline simulation of one training iteration (timing mode).

Prices a :class:`~repro.core.schedule.BucketSchedule` — the same IR the
functional :class:`~repro.core.schedule.ScheduledExecutor` runs and
:func:`repro.analysis.lowering.lower_schedule` verifies — on two per-worker
streams: compute (forward, backward) and communication (bucket transfers,
compression kernels, updates).  The schedule's gates map directly:

* ``schedule.overlap_backward`` (the O switch): a bucket's communication may
  start at its grad-ready gate, racing the rest of backward — otherwise it
  waits for the backward-end gate;
* ``schedule.per_bucket_updates``: a bucket's parameters become usable as
  soon as *its* update lands, so the next iteration's forward can begin
  before other buckets finish (BytePS priority scheduling, BAGUA per-bucket
  updates).  Barrier-mode schedules still execute update kernels eagerly on
  the comm stream (the work is serialized either way); the barrier gates
  *visibility* — nothing in the next iteration starts before it.

Workers are symmetric up to straggler compute scaling; synchronous
collectives therefore pace on the slowest worker's compute.  The simulator
runs several iterations and reports the steady-state iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.topology import ClusterSpec
from ..core.optimizer_framework import ExecutionOptimizer
from ..core.schedule import ScheduledBucket
from ..core.profiler import profile_from_spec
from ..models.spec import ModelSpec
from .systems import SystemProfile

#: iterations simulated to reach steady state before measuring
WARMUP_ITERATIONS = 2
MEASURE_ITERATIONS = 3


@dataclass(frozen=True)
class Span:
    """One scheduled activity on a stream (for pipeline visualisation).

    ``stream`` is "compute" or "comm"; ``kind`` is fwd/bwd/comm/update;
    times are absolute simulation seconds of the final measured iteration.
    """

    stream: str
    kind: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class IterationTiming:
    """Steady-state timing of one training iteration."""

    iteration_time: float
    compute_time: float  # pure fwd+bwd time of the slowest worker
    comm_time_total: float  # sum of bucket communication durations
    exposed_comm_time: float  # iteration time minus compute (>= 0)
    num_buckets: int
    #: span timeline of the last simulated iteration (Figure 2/3 material)
    spans: list[Span] = field(default_factory=list)

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of communication hidden behind computation."""
        if self.comm_time_total <= 0:
            return 1.0
        hidden = self.comm_time_total - self.exposed_comm_time
        return max(0.0, min(1.0, hidden / self.comm_time_total))


def simulate_iteration(
    model: ModelSpec,
    cluster: ClusterSpec,
    system: SystemProfile,
    compute_scale: float | None = None,
) -> IterationTiming:
    """Steady-state iteration time of ``system`` training ``model`` on ``cluster``.

    ``compute_scale`` overrides the compute slowdown factor; by default
    synchronous systems pace on the slowest worker (max straggler scale).
    """
    profile = profile_from_spec(model.layers)
    schedule = ExecutionOptimizer(system.config).plan(
        profile, per_bucket_updates=system.overlap_forward
    )
    if compute_scale is None:
        scales = [cluster.compute_scale(r) for r in range(cluster.world_size)]
        if system.is_async:
            # Async workers never wait on each other: the caller accounts for
            # per-worker scaling; jitter averages out over iterations.
            compute_scale = 1.0
        else:
            # Sync systems pace on the slowest worker every iteration —
            # persistent stragglers and per-iteration jitter both bite.
            compute_scale = max(scales) * cluster.sync_jitter_factor()

    batch = model.batch_size

    def fwd_time(bucket: ScheduledBucket) -> float:
        return bucket.fwd_flops * batch * compute_scale / cluster.worker_flops

    def bwd_time(bucket: ScheduledBucket) -> float:
        return bucket.bwd_flops * batch * compute_scale / cluster.worker_flops

    ready_order: list[ScheduledBucket] = list(schedule.comm_order())
    forward_order: list[ScheduledBucket] = list(schedule.forward_order())

    comm_durations: dict[int, float] = {}
    for bucket in ready_order:
        comm_durations[bucket.index] = (
            system.per_bucket_overhead
            + system.comm_time(bucket)
            + system.comm_kernel_time(bucket)
        )
    update_durations = {b.index: system.update_time(b) for b in ready_order}

    compute_free = 0.0
    comm_free = 0.0
    params_ready: dict[int, float] = {b.index: 0.0 for b in ready_order}
    boundaries: list[float] = []
    spans: list[Span] = []

    total_iterations = WARMUP_ITERATIONS + MEASURE_ITERATIONS
    for iteration in range(total_iterations):
        record = iteration == total_iterations - 1
        if record:
            spans = []
        # Forward: layer groups in forward order, gated on their own update.
        for bucket in forward_order:
            compute_free = max(compute_free, params_ready[bucket.index])
            start = compute_free
            compute_free += fwd_time(bucket)
            if record and compute_free > start:
                spans.append(Span("compute", "fwd", f"fwd b{bucket.index}", start, compute_free))
        # Backward: buckets become ready in ready order.
        grad_ready: dict[int, float] = {}
        for bucket in ready_order:
            start = compute_free
            compute_free += bwd_time(bucket)
            grad_ready[bucket.index] = compute_free
            if record and compute_free > start:
                spans.append(Span("compute", "bwd", f"bwd b{bucket.index}", start, compute_free))
        bwd_end = compute_free

        # Communication + updates on the comm stream, gated per the schedule.
        update_done: dict[int, float] = {}
        for bucket in ready_order:
            gate = grad_ready[bucket.index] if schedule.overlap_backward else bwd_end
            start = max(comm_free, gate)
            comm_free = start + comm_durations[bucket.index]
            if record:
                spans.append(Span("comm", "comm", f"comm b{bucket.index}", start, comm_free))
            update_start = comm_free
            comm_free += update_durations[bucket.index]
            update_done[bucket.index] = comm_free
            if record and comm_free > update_start:
                spans.append(
                    Span("comm", "update", f"upd b{bucket.index}", update_start, comm_free)
                )

        if schedule.per_bucket_updates:
            params_ready = dict(update_done)
            boundary = max(bwd_end, comm_free)
        else:
            # Single barrier: nothing in the next iteration starts before
            # every update has landed.
            barrier = max(bwd_end, comm_free)
            params_ready = {b.index: barrier for b in ready_order}
            compute_free = barrier
            boundary = barrier
        boundaries.append(boundary)

    steady = (boundaries[-1] - boundaries[-1 - MEASURE_ITERATIONS]) / MEASURE_ITERATIONS
    compute_only = sum(fwd_time(b) + bwd_time(b) for b in ready_order)
    comm_total = sum(comm_durations.values())
    return IterationTiming(
        iteration_time=steady,
        compute_time=compute_only,
        comm_time_total=comm_total,
        exposed_comm_time=max(0.0, steady - compute_only),
        num_buckets=len(ready_order),
        spans=spans,
    )
