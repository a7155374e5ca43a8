"""BAGUA core: primitives, buckets, profiler, execution optimizer, engine.

The auto-tuner's names load on first use: :mod:`.autotune` runs timing mode
(``repro.simulation``) and the algorithm zoo, which a training job never
calls.
"""

import importlib
from typing import TYPE_CHECKING, Any

from .bucket import TensorBucket
from .communicator import GlobalComm, get_global_comm
from .engine import Algorithm, BaguaEngine, WorkerReplica
from .optimizer_framework import DEFAULT_BUCKET_BYTES, BaguaConfig, ExecutionOptimizer
from .primitives import (
    PeerSelector,
    RandomPeers,
    RingPeers,
    c_fp_s,
    c_lp_s,
    d_fp_s,
    d_lp_s,
)
from .profiler import (
    ExecutionProfile,
    GradientReadyProfiler,
    TensorRecord,
    profile_from_spec,
)
from .schedule import (
    GATE_BACKWARD_END,
    GATE_BARRIER,
    GATE_COMM_DONE,
    GATE_GRAD_READY,
    UPDATE_BARRIER,
    UPDATE_PER_BUCKET,
    BucketSchedule,
    ComputeModel,
    IterationReport,
    ScheduleEvent,
    ScheduledBucket,
    ScheduledExecutor,
)

if TYPE_CHECKING:
    from .autotune import Recommendation, TuningReport, classify_family, recommend

#: the tuner's exports, resolved from :mod:`.autotune` on first use
_TUNER_NAMES = frozenset({"recommend", "TuningReport", "Recommendation", "classify_family"})

__all__ = [
    "TensorBucket",
    "BaguaEngine",
    "WorkerReplica",
    "Algorithm",
    "BucketSchedule",
    "ScheduleEvent",
    "GATE_GRAD_READY",
    "GATE_BACKWARD_END",
    "GATE_COMM_DONE",
    "GATE_BARRIER",
    "UPDATE_PER_BUCKET",
    "UPDATE_BARRIER",
    "ScheduledBucket",
    "ScheduledExecutor",
    "ComputeModel",
    "IterationReport",
    "BaguaConfig",
    "ExecutionOptimizer",
    "DEFAULT_BUCKET_BYTES",
    "c_fp_s",
    "c_lp_s",
    "d_fp_s",
    "d_lp_s",
    "PeerSelector",
    "RingPeers",
    "RandomPeers",
    "ExecutionProfile",
    "TensorRecord",
    "GradientReadyProfiler",
    "profile_from_spec",
    "GlobalComm",
    "get_global_comm",
    "recommend",
    "TuningReport",
    "Recommendation",
    "classify_family",
]


def __getattr__(name: str) -> Any:
    if name in _TUNER_NAMES:
        return getattr(importlib.import_module(".autotune", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
