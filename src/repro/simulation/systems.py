"""System timing profiles: how each competing system moves an iteration's data.

A :class:`SystemProfile` captures the *strategy* of a training system, the
way Figure 2 describes it:

* how parameters are grouped for communication — a
  :class:`~repro.core.optimizer_framework.BaguaConfig` (fusion, bucket cap,
  overlap with backward) the execution optimizer plans the schedule from,
* what each group's communication costs (pattern + codec via the cost model),
* what can overlap what (backward-only for DDP/Horovod; backward and next
  forward for BytePS and BAGUA's per-bucket updates),
* per-unit scheduling overheads (Horovod's fusion cycle, BytePS's server CPU
  aggregation).

BAGUA's own profile is derived from a training algorithm plus a
:class:`~repro.core.optimizer_framework.BaguaConfig`, so Table 5's O/F/H
ablation toggles the exact same switches the functional engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..algorithms.registry import EVALUATED_ALGORITHMS, make_algorithm
from ..compression.fp16 import FP16Compressor
from ..core.optimizer_framework import BaguaConfig
from ..core.schedule import ScheduledBucket
from .cost import CommCostModel


@dataclass
class SystemProfile:
    """Timing behaviour of one system/algorithm combination."""

    name: str
    #: bucketing (F, bucket cap) and whether communication may start while
    #: backward is still running (O); the execution optimizer plans from it
    config: BaguaConfig
    #: communication wall time of one bucket (network only)
    comm_time: Callable[[ScheduledBucket], float]
    #: GPU-side cost attached to each bucket's communication (compression, ...)
    comm_kernel_time: Callable[[ScheduledBucket], float]
    #: optimizer update cost for one bucket
    update_time: Callable[[ScheduledBucket], float]
    #: may next iteration's forward start before all updates finish?
    overlap_forward: bool = False
    #: fixed per-bucket scheduling overhead (fusion cycles, RPC dispatch)
    per_bucket_overhead: float = 0.0
    #: asynchronous systems skip global synchronization entirely
    is_async: bool = False


# ----------------------------------------------------------------------
# Competing systems
# ----------------------------------------------------------------------
def vanilla_system(cost: CommCostModel) -> SystemProfile:
    """Figure 2's 'Vanilla': per-tensor allreduce, no overlap."""
    return SystemProfile(
        name="Vanilla",
        config=BaguaConfig(overlap=False, flatten=False),
        comm_time=lambda b: cost.ring_allreduce(b.elements),
        comm_kernel_time=lambda b: 0.0,
        update_time=lambda b: cost.update_time(b.elements, num_tensors=b.num_tensors),
        overlap_forward=False,
    )


def pytorch_ddp_system(cost: CommCostModel) -> SystemProfile:
    """PyTorch-DDP: 25 MB reverse-order buckets, ring allreduce overlapped
    with backward; the optimizer runs once after all allreduces finish."""
    return SystemProfile(
        name="PyTorch-DDP",
        config=BaguaConfig(bucket_bytes=25 * 1024 * 1024),
        comm_time=lambda b: cost.ring_allreduce(b.elements),
        comm_kernel_time=lambda b: 0.0,
        update_time=lambda b: cost.update_time(b.elements, num_tensors=1),
        overlap_forward=False,
    )


def horovod_system(cost: CommCostModel, fp16: bool = False) -> SystemProfile:
    """Horovod: 64 MB fusion buffer with a coordination cycle per fused
    allreduce; optional fp16 gradient compression via NCCL."""
    compressor = FP16Compressor() if fp16 else None

    def comm(b: ScheduledBucket) -> float:
        return cost.ring_allreduce(b.elements, compressor=compressor)

    def kernels(b: ScheduledBucket) -> float:
        return cost.compress_time(b.elements) * 2 if fp16 else 0.0

    return SystemProfile(
        name="Horovod-16bit" if fp16 else "Horovod",
        config=BaguaConfig(bucket_bytes=64 * 1024 * 1024),
        comm_time=comm,
        comm_kernel_time=kernels,
        update_time=lambda b: cost.update_time(b.elements, num_tensors=1),
        overlap_forward=False,
        per_bucket_overhead=2e-3,  # negotiation cycle per fused tensor
    )


def byteps_system(cost: CommCostModel, is_async: bool = False) -> SystemProfile:
    """BytePS: 4 MB chunks pushed/pulled against per-node servers.

    Overlaps push/pull with backward *and* the next forward (per-parameter
    updates), but pays CPU summation on the servers — the term that hurts on
    communication-heavy models like VGG16.
    """
    chunk_bytes = 4 * 1024 * 1024

    def comm(b: ScheduledBucket) -> float:
        return cost.ps_push_pull(b.elements, local_aggregation=True)

    def kernels(b: ScheduledBucket) -> float:
        return cost.server_aggregation_time(b.elements, num_pushers=cost.spec.num_nodes)

    return SystemProfile(
        name="BytePS-async" if is_async else "BytePS",
        config=BaguaConfig(bucket_bytes=chunk_bytes),
        comm_time=comm,
        comm_kernel_time=kernels,
        update_time=lambda b: cost.update_time(b.elements, num_tensors=1),
        overlap_forward=True,
        per_bucket_overhead=1e-4,  # scheduler dispatch per chunk
        is_async=is_async,
    )


# ----------------------------------------------------------------------
# BAGUA
# ----------------------------------------------------------------------
def bagua_system(
    cost: CommCostModel,
    algorithm: str = "allreduce",
    config: BaguaConfig | None = None,
) -> SystemProfile:
    """BAGUA running ``algorithm`` under ``config``'s O/F/H switches.

    Priced from the algorithm's own declaration
    (:class:`~repro.core.engine.Algorithm`): its codec, and whether it
    gossips, pushes and pulls asynchronously, or reduces centrally.
    """
    if algorithm not in EVALUATED_ALGORITHMS:
        raise KeyError(
            f"unknown BAGUA algorithm {algorithm!r}; options: {sorted(EVALUATED_ALGORITHMS)}"
        )
    config = config or BaguaConfig(hierarchical=True)
    declared = make_algorithm(algorithm)
    compressor, topology = declared.compressor, declared.topology

    if topology:
        def comm(b: ScheduledBucket) -> float:
            return cost.decentralized(
                b.elements,
                compressor=compressor,
                topology=topology,
                hierarchical=config.hierarchical,
            )
    elif declared.asynchronous:
        # star push/pull to the master copy, never synchronized
        def comm(b: ScheduledBucket) -> float:
            return cost.ps_push_pull(b.elements, local_aggregation=True)
    else:
        def comm(b: ScheduledBucket) -> float:
            return cost.centralized(
                b.elements, compressor=compressor, hierarchical=config.hierarchical
            )

    def kernels(b: ScheduledBucket) -> float:
        if compressor is None:
            return 0.0
        return cost.compress_time(b.elements) * 2  # compress + decompress

    def update(b: ScheduledBucket) -> float:
        tensors = 1 if config.flatten else b.num_tensors
        return cost.update_time(b.elements, num_tensors=tensors)

    return SystemProfile(
        name=f"BAGUA-{algorithm}",
        config=config,
        comm_time=comm,
        comm_kernel_time=kernels,
        update_time=update,
        # Per-bucket updates let the next forward start layer by layer.
        overlap_forward=config.overlap,
        is_async=declared.asynchronous,
    )


def all_competing_systems(cost: CommCostModel) -> list[SystemProfile]:
    """The baseline set of Table 3: DDP, Horovod 32/16-bit, BytePS."""
    return [
        pytorch_ddp_system(cost),
        horovod_system(cost, fp16=False),
        horovod_system(cost, fp16=True),
        byteps_system(cost),
    ]
