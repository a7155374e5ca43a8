"""Symbolic plan lowering: a plan *description* becomes checkable IR.

The executor-facing lowering (:mod:`repro.analysis.lowering`) starts from
an artifact the engine built while running — its
:class:`~repro.core.schedule.BucketSchedule` exists only after a transport,
workers and a profiling iteration.  This module removes that requirement: a :class:`PlanPoint` names everything the lowering needs —
algorithm, world shape, the O/F/H switches, bucket cap, codec, gossip
topology — and :func:`lower_point` turns it into the same comm-op IR and
happens-before event stream *without constructing a transport or executing a
step*.  The bucketing runs through the real
:class:`~repro.core.optimizer_framework.ExecutionOptimizer` and the events
through the same :func:`~repro.analysis.lowering.emit_iteration` the
executor-facing lowering uses, so symbolic IR is event-identical to what a
dry run would have been lowered to (the oracle tests assert this per
algorithm × O/F/H variant × world size).

On top of the lowering sit the *static rules* — properties provable from the
plan description alone, before any IR exists:

* ``plan-hierarchy-split`` — H needs ``workers_per_node`` to divide the
  world evenly (:func:`repro.comm.group.node_major_partition`);
* ``plan-compressor-compat`` — a biased codec without error feedback breaks
  the error-compensated convergence guarantees (§2.2), and the relaxation
  triple must be a supported row of Table 1
  (:data:`repro.algorithms.registry.SUPPORT_MATRIX`);
* ``plan-gossip-closure`` — gossip peer sets must be mutual (i lists j iff
  j lists i) and stay inside the gossip group;
* ``plan-gossip-stochasticity`` — the averaging weight matrix the peer sets
  imply must be doubly stochastic, or decentralized SGD loses its fixed
  point (:func:`gossip_weight_matrix`);
* ``plan-bucket-feasibility`` — a bucket cap that is not positive (or is
  NaN) is meaningless, and a cap that fuses the whole model into one bucket leaves overlap (O)
  nothing to hide behind.

:mod:`repro.analysis.planspace` enumerates points across these knobs and
uses both layers to prune the auto-tuner's search space.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..algorithms.registry import ALGORITHM_REGISTRY, SUPPORT_MATRIX
from ..baselines import BASELINE_REGISTRY
from ..comm.group import node_major_partition
from ..compression import COMPRESSOR_REGISTRY, make_compressor
from ..core.engine import Algorithm
from ..core.optimizer_framework import BaguaConfig, ExecutionOptimizer
from ..core.primitives import make_peer_selector
from ..core.profiler import ExecutionProfile, TensorRecord
from ..core.schedule import UPDATE_PER_BUCKET, BucketSchedule
from .ir import AnalysisSubject, CommTrace
from .lowering import CommPattern, emit_iteration, layout_from_schedule, lower_schedule
from .report import Finding

#: Probe-model bucket cap, for symbolic probe plans and the analyzer
#: driver's dry runs alike (so both paths bucket identically): small enough
#: that the tiny model still splits into multiple fused buckets, so
#: bucketing/overlap logic is actually exercised.
PROBE_BUCKET_BYTES = 256.0

#: The probe model's gradient-ready inventory: ``(name, elements)`` in the
#: order backward produces gradients for the driver's ``_ProbeMLP``
#: (``Linear(8, 12)`` then ``Linear(12, 4)``; bias gradients finalize before
#: their layer's weight).  This is the static twin of what
#: :class:`~repro.core.profiler.GradientReadyProfiler` records during the
#: profiling iteration — the oracle tests cross-check the two.
PROBE_READY_INVENTORY: tuple[tuple[str, int], ...] = (
    ("fc2.bias", 4),
    ("fc2.weight", 48),
    ("fc1.bias", 12),
    ("fc1.weight", 96),
)


def probe_profile() -> ExecutionProfile:
    """The driver probe model's execution profile, built without running it."""
    return ExecutionProfile(
        records=[
            TensorRecord(name=name, elements=elements, ready_index=i)
            for i, (name, elements) in enumerate(PROBE_READY_INVENTORY)
        ]
    )


# ----------------------------------------------------------------------
# Per-algorithm communication models
# ----------------------------------------------------------------------
def comm_model_of(name: str) -> Algorithm:
    """The registered algorithm or baseline ``name``, default-constructed.

    Its declaration (:class:`~repro.core.engine.Algorithm`: ``compressor``,
    ``error_feedback``, ``topology``, ``frequency``, ``warmup_steps``,
    ``asynchronous``, ``update_mode``, ``staleness_bound``) *is* the static
    shape of its per-bucket communication; a :class:`PlanPoint` can override
    the codec, topology, EF, frequency and warm-up knobs.  Constructing an
    algorithm touches no transport and allocates no buckets.

    ``asynchronous`` only feeds the Table 1 compatibility rule: the *bucket
    schedule* of an async algorithm is modeled by its synchronous shape (the
    lowering has no cross-step pipelining; staleness is checked by
    ``hb-staleness`` against the declared bound, not here).
    """
    factory = ALGORITHM_REGISTRY.get(name) or BASELINE_REGISTRY.get(name)
    if factory is None:
        known = sorted(set(ALGORITHM_REGISTRY) | set(BASELINE_REGISTRY))
        raise KeyError(f"no communication model for {name!r}; known: {known}")
    return factory()


def staleness_bound_of(name: str) -> int | None:
    return comm_model_of(name).staleness_bound


# ----------------------------------------------------------------------
# Plan points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanPoint:
    """One point of the plan space: everything the symbolic lowering needs.

    ``None`` knobs fall back to the algorithm's natural choice (its own
    codec, topology, EF discipline and update mode), so the default point
    for a registry name describes the plan the engine would actually build.
    Explicit ``peer_sets`` (global-rank neighbor tuples, one per rank)
    override the topology-derived gossip structure — the hook the negative
    fixtures use to inject broken peer graphs.
    """

    algorithm: str
    world_size: int = 4
    workers_per_node: int = 2
    overlap: bool = True
    flatten: bool = True
    hierarchical: bool = False
    per_bucket_updates: bool | None = None
    bucket_bytes: float = PROBE_BUCKET_BYTES
    compressor: str | None = None
    error_feedback: bool | None = None
    topology: str | None = None
    peer_sets: tuple[tuple[int, ...], ...] | None = None
    seed: int = 0
    steps: int = 1
    frequency: int | None = None
    warmup_steps: int | None = None

    def describe(self) -> str:
        parts = [
            f"{self.algorithm}@{self.world_size // self.workers_per_node}"
            f"x{self.workers_per_node}"
            if self.world_size % self.workers_per_node == 0
            else f"{self.algorithm}@{self.world_size}w/{self.workers_per_node}",
            f"O={int(self.overlap)}",
            f"F={int(self.flatten)}",
            f"H={int(self.hierarchical)}",
        ]
        if self.per_bucket_updates is not None:
            parts.append(
                f"updates={'per-bucket' if self.per_bucket_updates else 'barrier'}"
            )
        if self.bucket_bytes != PROBE_BUCKET_BYTES:
            parts.append(f"bucket={self.bucket_bytes:g}B")
        if self.compressor is not None:
            parts.append(f"codec={self.compressor}")
        if self.error_feedback is not None:
            parts.append(f"ef={int(self.error_feedback)}")
        if self.topology is not None:
            parts.append(f"topology={self.topology}")
        if self.steps != 1:
            parts.append(f"steps={self.steps}")
        if self.frequency is not None:
            parts.append(f"freq={self.frequency}")
        if self.warmup_steps is not None:
            parts.append(f"warmup={self.warmup_steps}")
        return ",".join(parts)


def _resolved_codec(
    point: PlanPoint, model: Algorithm
) -> tuple[str, bool, bool] | None:
    """``(name, biased, error_feedback)`` of the effective codec, or None."""
    codec = model.compressor
    if point.compressor is not None:
        codec = make_compressor(point.compressor)
    if codec is None:
        return None
    ef = model.error_feedback if point.error_feedback is None else point.error_feedback
    return codec.name, bool(codec.biased), ef


def _effective_kind(point: PlanPoint, model: Algorithm) -> str:
    """The comm kind each bucket's collective lowers to (the inter-node kind
    under H): gossip iff the algorithm declares a topology, and the
    compressed variant of the same primitive iff a codec is in effect."""
    compressed = _resolved_codec(point, model) is not None
    if model.topology:
        return "compressed_gossip" if compressed else "gossip"
    return "compressed_allreduce" if compressed else "allreduce"


def _effective_topology(point: PlanPoint, model: Algorithm) -> str:
    return point.topology or model.topology


def gossip_members(point: PlanPoint) -> tuple[int, ...]:
    """The ranks that actually gossip: leaders under H, everyone otherwise."""
    if point.hierarchical and point.world_size % point.workers_per_node == 0:
        nodes = node_major_partition(point.world_size, point.workers_per_node)
        if len(nodes) > 1:
            return tuple(node[0] for node in nodes)
    return tuple(range(point.world_size))


def gossip_peer_sets(
    point: PlanPoint, model: Algorithm, step: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Global-rank neighbor sets for one gossip round, one entry per rank.

    Non-participating ranks (non-leaders under H) get empty sets.  Explicit
    ``point.peer_sets`` short-circuit the topology.
    """
    if point.peer_sets is not None:
        if len(point.peer_sets) != point.world_size:
            raise ValueError(
                f"peer_sets has {len(point.peer_sets)} entries for world size "
                f"{point.world_size}"
            )
        return tuple(tuple(peers) for peers in point.peer_sets)
    members = gossip_members(point)
    selector = make_peer_selector(_effective_topology(point, model), point.seed)
    local = selector.neighbors(len(members), step)
    sets: list[tuple[int, ...]] = [()] * point.world_size
    for i, rank in enumerate(members):
        sets[rank] = tuple(members[j] for j in local[i])
    return tuple(sets)


def gossip_weight_matrix(
    peer_sets: tuple[tuple[int, ...], ...], members: tuple[int, ...]
) -> list[list[float]]:
    """The averaging matrix W the peer sets imply, indexed by ``members``.

    Peer averaging sets ``x_i' = mean({x_i} ∪ {x_j : j ∈ N(i)})``, i.e.
    ``W[i][j] = 1 / (1 + |N(i)|)`` for ``j ∈ {i} ∪ N(i)`` — rows sum to 1
    by construction.  Decentralized SGD additionally needs the *columns* to
    sum to 1 (doubly stochastic W keeps the uniform average a fixed point,
    paper §2.2); :func:`check_plan_static` verifies that.
    """
    index = {rank: i for i, rank in enumerate(members)}
    n = len(members)
    matrix = [[0.0] * n for _ in range(n)]
    for rank in members:
        i = index[rank]
        in_group = [p for p in peer_sets[rank] if p in index and p != rank]
        weight = 1.0 / (1.0 + len(in_group))
        matrix[i][i] = weight
        for peer in in_group:
            matrix[i][index[peer]] = weight
    return matrix


# ----------------------------------------------------------------------
# Symbolic lowering
# ----------------------------------------------------------------------
def symbolic_schedule(
    point: PlanPoint, profile: ExecutionProfile | None = None
) -> BucketSchedule:
    """The :class:`BucketSchedule` the engine would build for ``point``.

    Runs the real :class:`ExecutionOptimizer` over the profile (the probe
    inventory by default) — so flattening, bucket caps and ready-order
    sorting are the production code paths, not a reimplementation — and
    resolves the update policy from the algorithm's declared
    ``update_mode`` unless the point overrides it.
    """
    profile = profile or probe_profile()
    config = BaguaConfig(
        overlap=point.overlap,
        flatten=point.flatten,
        hierarchical=point.hierarchical,
        bucket_bytes=point.bucket_bytes,
    )
    per_bucket = point.per_bucket_updates
    if per_bucket is None:
        per_bucket = comm_model_of(point.algorithm).update_mode == UPDATE_PER_BUCKET
    return ExecutionOptimizer(config).plan(profile, per_bucket_updates=per_bucket)


def _pattern_for_step(point: PlanPoint, model: Algorithm, step: int) -> CommPattern:
    """The :class:`CommPattern` of one iteration of ``point``."""
    frequency = model.frequency if point.frequency is None else point.frequency
    warmup = model.warmup_steps if point.warmup_steps is None else point.warmup_steps
    if frequency > 1 and (step + 1) % frequency != 0:
        # LocalSGD-style skip step: purely local updates, nothing on the wire.
        return CommPattern(kind="allreduce", silent=True)
    if warmup > 0 and 0 <= step < warmup:
        # 1-bit Adam's warmup runs full-precision allreduce.
        return CommPattern(kind="allreduce")
    codec = _resolved_codec(point, model)
    kind = _effective_kind(point, model)
    peer_sets = None
    if model.topology:
        peer_sets = gossip_peer_sets(point, model, step=max(step, 0))
    if codec is None:
        return CommPattern(kind=kind, peer_sets=peer_sets)
    name, biased, error_feedback = codec
    return CommPattern(
        kind=kind, compressor=name, biased=biased,
        error_feedback=error_feedback, peer_sets=peer_sets,
    )


def lower_point(
    point: PlanPoint, profile: ExecutionProfile | None = None
) -> AnalysisSubject:
    """Lower a plan description into the comm-op IR — no transport, no run.

    Single-step points lower with the conventional ``step = -1`` tag (the
    exact stream :func:`~repro.analysis.lowering.lower_schedule` produces);
    multi-step points tag real step indices so frequency/warmup phase
    structure and cross-step happens-before edges are visible.
    """
    model = comm_model_of(point.algorithm)
    schedule = symbolic_schedule(point, profile)
    nodes = None
    if point.world_size % point.workers_per_node == 0:
        nodes = node_major_partition(point.world_size, point.workers_per_node)
    elif point.hierarchical:
        raise ValueError(
            f"cannot lower hierarchical plan {point.describe()}: "
            f"workers_per_node={point.workers_per_node} does not divide "
            f"world_size={point.world_size} (plan-hierarchy-split)"
        )
    trace = CommTrace(point.world_size)
    for step in range(point.steps):
        pattern = _pattern_for_step(point, model, step)
        emit_iteration(
            trace, schedule, pattern, nodes=nodes,
            step=-1 if point.steps == 1 else step,
        )
    expected_topology = None
    if model.topology and point.peer_sets is None:
        if _effective_topology(point, model) == "ring":
            expected_topology = "ring"
    subject = AnalysisSubject(
        world_size=point.world_size,
        trace=trace,
        layout=layout_from_schedule(schedule),
        expected_topology=expected_topology,
        source=f"symbolic lowering ({point.describe()}; {schedule.describe()})",
    )
    if model.staleness_bound is not None:
        subject.notes["staleness_bound"] = model.staleness_bound
    return subject


def sweep_variants(
    point: PlanPoint, profile: ExecutionProfile | None = None
) -> list[AnalysisSubject]:
    """The symbolic twin of the driver's O/F/H x update-mode variant sweep.

    Mirrors :func:`repro.analysis.driver.analyze_algorithm` exactly: the
    bucket structure is planned once (F on, probe cap) and swept through
    :meth:`~repro.core.schedule.BucketSchedule.variants` — the driver's
    sweep checks rewrites of one committed plan, not sixteen plans.
    """
    base = symbolic_schedule(
        dataclasses.replace(point, overlap=True, flatten=True, hierarchical=False),
        profile,
    )
    nodes = node_major_partition(point.world_size, point.workers_per_node)
    return [
        lower_schedule(variant, point.world_size, nodes=nodes)
        for variant in base.variants()
    ]


# ----------------------------------------------------------------------
# Static rules: provable from the description alone
# ----------------------------------------------------------------------
def _finding(rule: str, message: str, point: PlanPoint, severity: str = "error",
             **loc) -> Finding:
    return Finding(
        rule=rule, severity=severity, message=message,
        plan=point.describe(), **loc,
    )


def _check_hierarchy_split(point: PlanPoint) -> list[Finding]:
    if not point.hierarchical:
        return []
    if point.world_size % point.workers_per_node == 0:
        return []
    return [
        _finding(
            "plan-hierarchy-split",
            f"hierarchical (H) plan needs workers_per_node to divide the "
            f"world evenly, but {point.workers_per_node} does not divide "
            f"{point.world_size} — the trailing node would be under-sized "
            f"and its leader would join inter-node collectives the other "
            f"leaders shape differently",
            point,
        )
    ]


def _check_compressor_compat(point: PlanPoint, model: Algorithm) -> list[Finding]:
    findings: list[Finding] = []
    if point.compressor is not None and point.compressor not in COMPRESSOR_REGISTRY:
        findings.append(
            _finding(
                "plan-compressor-compat",
                f"unknown compressor {point.compressor!r}; registered codecs: "
                f"{sorted(COMPRESSOR_REGISTRY)}",
                point,
            )
        )
        return findings
    codec = _resolved_codec(point, model)
    if codec is not None:
        name, biased, error_feedback = codec
        if biased and not error_feedback:
            findings.append(
                _finding(
                    "plan-compressor-compat",
                    f"biased compressor {name!r} without error feedback — "
                    f"compression error accumulates step over step and the "
                    f"error-compensated convergence guarantees (§2.2) no "
                    f"longer hold",
                    point,
                )
            )
    sync = "async" if model.asynchronous else "sync"
    precision = "full" if codec is None else "low"
    centralization = "decentralized" if model.topology else "centralized"
    row = next(
        (
            p for p in SUPPORT_MATRIX
            if (p.synchronization, p.precision, p.centralization)
            == (sync, precision, centralization)
        ),
        None,
    )
    if row is not None and not row.bagua:
        findings.append(
            _finding(
                "plan-compressor-compat",
                f"relaxation combination ({sync}, {precision}, "
                f"{centralization}) is an unsupported row of Table 1 — no "
                f"BAGUA algorithm instantiates it",
                point,
            )
        )
    return findings


def _check_bucket_feasibility(
    point: PlanPoint, profile: ExecutionProfile
) -> list[Finding]:
    if not point.bucket_bytes > 0:  # NaN fails every comparison
        return [
            _finding(
                "plan-bucket-feasibility",
                f"bucket cap must be positive, got {point.bucket_bytes:g} B",
                point,
            )
        ]
    if not point.flatten or not point.overlap or len(profile.records) < 2:
        return []
    if profile.total_bytes_fp32 <= point.bucket_bytes:
        return [
            _finding(
                "plan-bucket-feasibility",
                f"bucket cap {point.bucket_bytes:g} B fuses the whole model "
                f"({profile.total_bytes_fp32:g} B) into one bucket: overlap "
                f"(O) has nothing to hide communication behind and "
                f"per-bucket updates degenerate to a barrier",
                point,
                severity="warning",
            )
        ]
    return []


def _check_gossip_closure(
    point: PlanPoint,
    peer_sets: tuple[tuple[int, ...], ...],
    members: tuple[int, ...],
    step: int | None,
) -> list[Finding]:
    findings: list[Finding] = []
    member_set = set(members)
    for rank in members:
        for peer in peer_sets[rank]:
            if peer == rank:
                findings.append(
                    _finding(
                        "plan-gossip-closure",
                        f"rank {rank} lists itself as a gossip peer",
                        point, rank=rank, step=step,
                    )
                )
            elif peer not in member_set:
                findings.append(
                    _finding(
                        "plan-gossip-closure",
                        f"rank {rank} lists peer {peer}, which is outside the "
                        f"gossip group {sorted(member_set)}",
                        point, rank=rank, step=step,
                    )
                )
            elif rank not in peer_sets[peer]:
                findings.append(
                    _finding(
                        "plan-gossip-closure",
                        f"peer sets are not mutual: rank {rank} exchanges "
                        f"with {peer} but rank {peer}'s peer set is "
                        f"{sorted(peer_sets[peer])} — rank {rank} would wait "
                        f"on a message never sent",
                        point, rank=rank, step=step,
                    )
                )
    return findings


def _check_gossip_stochasticity(
    point: PlanPoint,
    peer_sets: tuple[tuple[int, ...], ...],
    members: tuple[int, ...],
    step: int | None,
) -> list[Finding]:
    matrix = gossip_weight_matrix(peer_sets, members)
    n = len(members)
    worst_rank, worst_sum = None, 1.0
    for j in range(n):
        column = sum(matrix[i][j] for i in range(n))
        if abs(column - 1.0) > abs(worst_sum - 1.0) + 1e-12:
            worst_rank, worst_sum = members[j], column
    if worst_rank is None or abs(worst_sum - 1.0) <= 1e-9:
        return []
    return [
        _finding(
            "plan-gossip-stochasticity",
            f"gossip weight matrix is not doubly stochastic: the column of "
            f"rank {worst_rank} sums to {worst_sum:.4f} ≠ 1 (peers are "
            f"mutual but degrees are uneven), so repeated averaging drifts "
            f"mass and the uniform consensus is no longer a fixed point",
            point, rank=worst_rank, step=step,
        )
    ]


def check_plan_static(
    point: PlanPoint, profile: ExecutionProfile | None = None
) -> list[Finding]:
    """Run every static rule over one plan description.

    These rules need no IR: they inspect the point itself.  Gossip structure
    is checked per communicating step (random pairings differ by step);
    stochasticity is only meaningful once closure holds, so it is gated on a
    clean closure pass — each broken plan yields its one root-cause finding
    rather than a cascade.
    """
    model = comm_model_of(point.algorithm)
    profile = profile or probe_profile()
    findings = _check_hierarchy_split(point)
    findings.extend(_check_compressor_compat(point, model))
    findings.extend(_check_bucket_feasibility(point, profile))
    if model.topology:
        if point.hierarchical and point.world_size % point.workers_per_node != 0:
            return findings  # the split error already explains this plan
        members = gossip_members(point)
        steps = (
            [None]
            if point.peer_sets is not None or point.steps <= 1
            else list(range(point.steps))
        )
        for step in steps:
            peer_sets = gossip_peer_sets(point, model, step=step or 0)
            closure = _check_gossip_closure(point, peer_sets, members, step)
            findings.extend(closure)
            if not closure:
                findings.extend(
                    _check_gossip_stochasticity(point, peer_sets, members, step)
                )
    return findings
