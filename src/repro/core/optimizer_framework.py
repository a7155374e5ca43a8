"""BAGUA's automatic execution optimizer (paper §3.4).

Given an :class:`~repro.core.profiler.ExecutionProfile` (from the profiling
phase or from a static model spec) and the three optimization switches —

* **O** (overlap): schedule bucket communication concurrently with the
  remaining backward computation instead of after it;
* **F** (fusion/flattening): group tensors into size-capped buckets backed by
  contiguous memory, instead of communicating per tensor;
* **H** (hierarchical): run each communication in the two-tier intra/inter
  node form —

the optimizer produces the iteration's
:class:`~repro.core.schedule.BucketSchedule`, the one bucketing IR read by
the functional engine (which buckets/flattens real parameters from its
views), the timing simulator (which prices the per-layer pipeline) and the
analyzer (which lowers it to comm ops).  Table 5's ablation is exactly these
switches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profiler import ExecutionProfile, TensorRecord
from .schedule import BucketSchedule, ScheduledBucket

#: Default fused-bucket size.  10 MB mirrors the production default; large
#: enough to amortize latency, small enough to leave overlap opportunities.
DEFAULT_BUCKET_BYTES = 10 * 1024 * 1024


@dataclass(frozen=True)
class BaguaConfig:
    """The three system optimizations plus bucketing granularity.

    ``backend`` selects the transport execution substrate by registry name
    (``"local"``, ``"batched"``, ``"shm"``; ``None`` defers to
    ``$REPRO_BACKEND`` / the default — see :mod:`repro.cluster.backends`).
    The backend is also the one selector between the per-rank loop
    reference (``"local"``) and the world-batched kernels of
    :mod:`repro.comm.batched` (``"batched"``, ``"shm"``); results and
    simulated timing are bitwise identical on all three, so it is purely a
    wall-clock choice.

    ``protocol_sanitize`` opts the transport backend into the protocol
    conformance sanitizer (:mod:`repro.analysis.protocol`): the backend
    records cross-process protocol events for later replay through
    ``check_events``.  ``None`` defers to ``$REPRO_PROTOCOL_SANITIZE``.
    Purely observational — it changes no delivered byte.
    """

    overlap: bool = True
    flatten: bool = True
    hierarchical: bool = False
    bucket_bytes: float = DEFAULT_BUCKET_BYTES
    backend: str | None = None
    protocol_sanitize: bool | None = None

    def describe(self) -> str:
        return (
            f"O={int(self.overlap)},F={int(self.flatten)},H={int(self.hierarchical)}"
        )


class ExecutionOptimizer:
    """Turns a profile + config into the iteration's :class:`BucketSchedule`."""

    def __init__(self, config: BaguaConfig | None = None) -> None:
        self.config = config or BaguaConfig()

    def plan(
        self, profile: ExecutionProfile, per_bucket_updates: bool
    ) -> BucketSchedule:
        """Group the profiled tensors into buckets, in gradient-ready order.

        With F on, consecutive tensors fuse into buckets of at most
        ``config.bucket_bytes`` (a tensor larger than the cap gets its own
        bucket); without fusion every tensor is its own communication unit —
        many small transfers, each paying the latency term.  The schedule
        inherits O and H from the config; ``per_bucket_updates`` is the
        update policy (an algorithm's ``update_mode``).
        """
        if not profile.records:
            raise ValueError("cannot plan over an empty profile")
        cap = self.config.bucket_bytes
        if not cap > 0:  # also rejects nan, which no size comparison trips
            raise ValueError(f"bucket_bytes must be positive, got {cap}")
        groups: list[list[TensorRecord]] = []
        group_bytes = 0.0
        for record in sorted(profile.records, key=lambda r: r.ready_index):
            if not groups or not self.config.flatten or group_bytes + record.nbytes > cap:
                groups.append([])
                group_bytes = 0.0
            groups[-1].append(record)
            group_bytes += record.nbytes
        return BucketSchedule(
            buckets=tuple(
                ScheduledBucket(
                    index=i,
                    name=f"bucket{i}",
                    elements=sum(r.elements for r in group),
                    ready_index=group[-1].ready_index,  # its latest tensor's
                    fwd_flops=sum(r.fwd_flops for r in group),
                    bwd_flops=sum(r.bwd_flops for r in group),
                    num_tensors=len(group),
                    views=tuple((r.name, r.elements) for r in group),
                )
                for i, group in enumerate(groups)
            ),
            overlap_backward=self.config.overlap,
            per_bucket_updates=per_bucket_updates,
            hierarchical=self.config.hierarchical,
            flatten=self.config.flatten,
        )
