"""BAGUA's automatic execution optimizer (paper §3.4).

Given an :class:`~repro.core.profiler.ExecutionProfile` (from the profiling
phase or from a static model spec) and the three optimization switches —

* **O** (overlap): schedule bucket communication concurrently with the
  remaining backward computation instead of after it;
* **F** (fusion/flattening): group tensors into size-capped buckets backed by
  contiguous memory, instead of communicating per tensor;
* **H** (hierarchical): run each communication in the two-tier intra/inter
  node form —

the optimizer produces an :class:`ExecutionPlan` consumed by both the
functional engine (which buckets/flattens real parameters) and the timing
simulator (which schedules the per-layer pipeline).  Table 5's ablation is
exactly these switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from .profiler import ExecutionProfile, TensorRecord

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


@dataclass
class PlannedBucket:
    """A group of tensors fused into one communication unit."""

    index: int
    records: list[TensorRecord] = field(default_factory=list)

    @property
    def elements(self) -> int:
        return sum(r.elements for r in self.records)

    @property
    def nbytes_fp32(self) -> float:
        return self.elements * 4.0

    @property
    def names(self) -> list[str]:
        return [r.name for r in self.records]

    @property
    def ready_index(self) -> int:
        """Backward step after which the whole bucket's gradients exist."""
        return max(r.ready_index for r in self.records)

    @property
    def bwd_flops(self) -> float:
        return sum(r.bwd_flops for r in self.records)

    @property
    def fwd_flops(self) -> float:
        return sum(r.fwd_flops for r in self.records)


@dataclass
class ExecutionPlan:
    """Bucketing + scheduling decisions for one model/algorithm pair."""

    config: BaguaConfig
    buckets: list[PlannedBucket]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def total_elements(self) -> int:
        return sum(b.elements for b in self.buckets)

    def communication_units(self) -> list[PlannedBucket]:
        """Buckets in the order their communication should be issued."""
        return sorted(self.buckets, key=lambda b: b.ready_index)


class ExecutionOptimizer:
    """Turns a profile + config into an execution plan."""

    def __init__(self, config: BaguaConfig | None = None) -> None:
        self.config = config or BaguaConfig()

    def plan(self, profile: ExecutionProfile) -> ExecutionPlan:
        if not profile.records:
            raise ValueError("cannot plan over an empty profile")
        ordered = sorted(profile.records, key=lambda r: r.ready_index)
        if self.config.flatten:
            buckets = self._greedy_buckets(ordered)
        else:
            # Without fusion every tensor is its own communication unit —
            # many small transfers, each paying the latency term.
            buckets = [
                PlannedBucket(index=i, records=[record]) for i, record in enumerate(ordered)
            ]
        return ExecutionPlan(config=self.config, buckets=buckets)

    def _greedy_buckets(self, ordered: Sequence[TensorRecord]) -> list[PlannedBucket]:
        buckets: list[PlannedBucket] = []
        current: list[TensorRecord] = []
        current_bytes = 0.0
        for record in ordered:
            if current and current_bytes + record.nbytes_fp32 > self.config.bucket_bytes:
                buckets.append(PlannedBucket(index=len(buckets), records=current))
                current, current_bytes = [], 0.0
            current.append(record)
            current_bytes += record.nbytes_fp32
        if current:
            buckets.append(PlannedBucket(index=len(buckets), records=current))
        return buckets
