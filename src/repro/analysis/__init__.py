"""repro.analysis — static verifier for BAGUA bucket schedules and traces.

The execution optimizer (paper §3) rewrites communication schedules behind
the user's back; this subsystem catches the bugs such rewriting can
introduce — mismatched collectives across ranks, asymmetric gossip peers,
optimizer updates racing overlapped communication, aliasing bucket buffers,
and biased compressors running without error-feedback state — *before* a
run, from a recorded one-iteration dry run or a lowered bucket schedule.
The ordering and matching faults are all proved by one happens-before
engine; three structural rules cover what a partial order cannot see.

Layers:

* :mod:`~repro.analysis.ir` — the comm-op IR (:class:`CommOp`,
  :class:`CommTrace`, bucket :class:`BucketExtent` layouts);
* :mod:`~repro.analysis.recorder` — :class:`TraceRecorder`, the
  instrumentation mode of the communication stack;
* :mod:`~repro.analysis.lowering` — :func:`lower_schedule` /
  :func:`layout_from_buckets`, the static producers;
* :mod:`~repro.analysis.checkers` — :func:`run_checkers`, the one rule
  suite: buffer-aliasing, ef-invariant and declared-ring peer-matching, then
  the happens-before engine;
* :mod:`~repro.analysis.hb` — the happens-before engine: vector clocks over
  (rank, thread, event) triples, race/deadlock/lost-update/staleness
  detection with printable witnesses;
* :mod:`~repro.analysis.report` — :class:`Finding` and report rendering;
* :mod:`~repro.analysis.symbolic` — :class:`PlanPoint` / :func:`lower_point`
  / :func:`check_plan_static`: plan *descriptions* lower straight into the
  IR with no transport or dry run, plus the static rules (gossip weight
  stochasticity, hierarchy divisibility, compressor compatibility, bucket
  feasibility) provable from the description alone;
* :mod:`~repro.analysis.planspace` — :func:`enumerate_points` /
  :func:`sweep_planspace` / :func:`prune_points`, the plan-space walker
  that prunes the auto-tuner's search space (``repro analyze --plans``);
* :mod:`~repro.analysis.protocol` — the transport-protocol model checker:
  an executable state machine of the shm backend's multiprocess protocol,
  an exhaustive interleaving explorer with DPOR-style partial-order
  reduction, the cross-process conformance sanitizer
  (``REPRO_PROTOCOL_SANITIZE=1``) and its mutation-testing harness
  (``repro analyze --protocol``);
* :mod:`~repro.analysis.driver` — :func:`analyze_algorithm` /
  :func:`analyze_all`, the ``python -m repro analyze`` entry points.
"""

from .checkers import (  # noqa: F401
    BufferAliasingChecker,
    Checker,
    EFInvariantChecker,
    PeerMatchingChecker,
    run_checkers,
)
from .driver import analyze_algorithm, analyze_all  # noqa: F401
from .hb import HBEvent, HBGraph, build_hb, check_hb  # noqa: F401
from .ir import (  # noqa: F401
    AnalysisSubject,
    BucketExtent,
    CommOp,
    CommTrace,
    ParamView,
)
from .lowering import (  # noqa: F401
    CommPattern,
    emit_iteration,
    layout_from_buckets,
    layout_from_schedule,
    lower_schedule,
)
from .planspace import (  # noqa: F401
    PlanSpaceReport,
    PlanVerdict,
    enumerate_points,
    prune_points,
    sweep_planspace,
    verify_point,
)
from .protocol import (  # noqa: F401
    Faults,
    ProtocolReport,
    Workload,
    analyze_protocol,
    check_events,
    explore,
)
from .recorder import TraceRecorder, recording  # noqa: F401
from .report import AnalysisReport, Finding, SweepReport  # noqa: F401
from .symbolic import (  # noqa: F401
    PlanPoint,
    check_plan_static,
    comm_model_of,
    gossip_peer_sets,
    gossip_weight_matrix,
    lower_point,
    probe_profile,
    symbolic_schedule,
)

__all__ = [
    "AnalysisReport",
    "AnalysisSubject",
    "BucketExtent",
    "BufferAliasingChecker",
    "Checker",
    "CommOp",
    "CommPattern",
    "CommTrace",
    "EFInvariantChecker",
    "Faults",
    "Finding",
    "HBEvent",
    "HBGraph",
    "ParamView",
    "PeerMatchingChecker",
    "PlanPoint",
    "PlanSpaceReport",
    "PlanVerdict",
    "ProtocolReport",
    "SweepReport",
    "TraceRecorder",
    "Workload",
    "analyze_algorithm",
    "analyze_all",
    "analyze_protocol",
    "check_events",
    "explore",
    "build_hb",
    "check_hb",
    "check_plan_static",
    "comm_model_of",
    "emit_iteration",
    "enumerate_points",
    "gossip_peer_sets",
    "gossip_weight_matrix",
    "layout_from_buckets",
    "layout_from_schedule",
    "lower_point",
    "lower_schedule",
    "probe_profile",
    "prune_points",
    "recording",
    "run_checkers",
    "sweep_planspace",
    "symbolic_schedule",
    "verify_point",
]
