"""Analyzer driver: dry-run an algorithm, lower its plan, run all checkers.

``analyze_algorithm`` is the front door: it builds a small simulated cluster
(default 2 nodes x 2 GPUs), trains a tiny probe model for a handful of steps
with a :class:`~repro.analysis.recorder.TraceRecorder` attached, and feeds
the rule suite (:func:`~repro.analysis.checkers.run_checkers`, the
happens-before engine included) these subjects:

* the **recorded trace** plus the live bucket layout (real byte
  addresses) — what the algorithm actually did;
* the **plan lowering** — the execution optimizer's
  :class:`~repro.core.schedule.BucketSchedule` (planned extents) with every
  update trailing the communication stream, checkable without running
  anything;
* the **lowered bucket schedule** — the gated event stream the
  :class:`~repro.core.schedule.ScheduledExecutor` drives, so the op order
  being verified is the one the executor actually runs;
* every **O/F/H × update-mode variant** of that schedule — a cheap static
  enumeration (:meth:`~repro.core.schedule.BucketSchedule.variants`)
  proving each rewrite the execution optimizer could emit race- and
  deadlock-free, not just the one that ran.

``analyze_all`` sweeps every algorithm in :mod:`repro.algorithms.registry`
and every baseline in :mod:`repro.baselines` (they are
:class:`~repro.core.engine.Algorithm` subclasses too): the pre-PR
correctness gate wired into ``python -m repro analyze``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..algorithms.registry import ALGORITHM_REGISTRY, make_algorithm
from ..baselines import BASELINE_REGISTRY
from ..cluster.topology import ClusterSpec
from ..cluster.transport import Transport
from ..cluster.worker import make_workers
from ..core.engine import Algorithm, BaguaEngine
from ..core.optimizer_framework import BaguaConfig
from ..tensor import functional as F
from ..tensor.layers import Linear
from ..tensor.module import Module
from ..tensor.optim import SGD
from ..tensor.tensor import Tensor
from .checkers import RULES, BufferAliasingChecker, run_checkers
from .ir import AnalysisSubject
from .lowering import layout_from_buckets, lower_schedule
from .recorder import TraceRecorder
from .report import AnalysisReport, SweepReport
from .symbolic import PROBE_BUCKET_BYTES

#: Constructor overrides so a short dry run reaches each algorithm's
#: interesting communication path (e.g. 1-bit Adam's compressed stage starts
#: after warmup; LocalSGD only communicates every ``frequency`` steps).
ANALYSIS_OVERRIDES: dict[str, dict] = {
    "1bit-adam": {"warmup_steps": 2},
    "local-sgd": {"frequency": 2},
    "qsparse-local-sgd": {"frequency": 2},
}


class _ProbeMLP(Module):
    """Tiny two-layer MLP — four parameters, two buckets under the probe cap."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self.fc1 = Linear(8, 12, rng=rng)
        self.fc2 = Linear(12, 4, rng=rng)

    def forward(self, x):
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.fc2(F.relu(self.fc1(x)))


def _probe_loss(model: Module, batch) -> object:
    inputs, labels = batch
    return F.cross_entropy(model(inputs), labels)


def _probe_batches(world_size: int, steps: int, seed: int) -> list[list]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    per_step = []
    for _ in range(steps):
        batches = []
        for _rank in range(world_size):
            inputs = rng.normal(size=(4, 8))
            labels = rng.integers(0, 4, size=4)
            batches.append((inputs, labels))
        per_step.append(batches)
    return per_step


def probe_algorithm(name: str) -> Algorithm:
    """The registered algorithm or baseline ``name``, with its analysis overrides."""
    if name in BASELINE_REGISTRY:
        return BASELINE_REGISTRY[name]()
    # Unknown names raise here, with the known-name list.
    return make_algorithm(name, **ANALYSIS_OVERRIDES.get(name, {}))


def record_dry_run(
    algorithm: Algorithm,
    spec: ClusterSpec,
    steps: int = 5,
    seed: int = 0,
    config: BaguaConfig | None = None,
) -> tuple[BaguaEngine, TraceRecorder]:
    """Check-by-execution: build a probe engine and record ``steps`` steps.

    This is what obtaining one plan's IR costs when it has to come off a
    real run — the leg ``repro perf``'s ``symbolic_lowering`` record times
    against :func:`repro.analysis.symbolic.sweep_variants`.
    """
    config = config or BaguaConfig(bucket_bytes=PROBE_BUCKET_BYTES)
    transport = Transport(spec)
    workers = make_workers(spec, transport, seed=seed)
    models = [_ProbeMLP(np.random.default_rng(seed)) for _ in workers]
    optimizers = [SGD(m.parameters(), lr=0.05, momentum=0.9) for m in models]
    engine = BaguaEngine(models, optimizers, algorithm, workers, config=config)

    recorder = TraceRecorder(spec.world_size).install(transport)
    try:
        for step, batches in enumerate(_probe_batches(spec.world_size, steps, seed)):
            recorder.begin_step(step)
            engine.step(batches, _probe_loss)
    finally:
        recorder.uninstall()
    return engine, recorder


def analyze_algorithm(
    name: str,
    num_nodes: int = 2,
    gpus_per_node: int = 2,
    steps: int = 5,
    seed: int = 0,
    config: BaguaConfig | None = None,
    algorithm: Algorithm | None = None,
) -> AnalysisReport:
    """Run the full rule suite for one algorithm; returns its report."""
    algorithm = algorithm or probe_algorithm(name)
    spec = ClusterSpec(num_nodes=num_nodes, workers_per_node=gpus_per_node)
    engine, recorder = record_dry_run(algorithm, spec, steps, seed, config)

    expected_topology = "ring" if algorithm.topology == "ring" else None

    report = AnalysisReport(
        algorithm=name,
        world=f"{num_nodes}x{gpus_per_node}",
        checkers=list(RULES),
    )
    nodes = spec.node_groups()

    def check_subject(subject: AnalysisSubject) -> None:
        if algorithm.staleness_bound is not None:
            subject.notes.setdefault("staleness_bound", algorithm.staleness_bound)
        report.findings.extend(run_checkers(subject))
        report.sources.append(subject.source)
        report.num_ops += subject.trace.num_ops if subject.trace is not None else 0

    # Subject 1: what actually ran — trace + rank 0's real bucket layout.
    dynamic = AnalysisSubject(
        world_size=spec.world_size,
        trace=recorder.trace,
        layout=layout_from_buckets(engine.workers[0].buckets),
        expected_topology=expected_topology,
        source=f"dry-run trace ({steps} steps, {recorder.trace.num_ops} ops)",
    )
    check_subject(dynamic)

    # Remaining ranks' live layouts: each replica's own gradient buffers, and
    # its own weights or, when the algorithm declares replicas_identical,
    # read-only views of replica 0's.
    aliasing = BufferAliasingChecker()
    for worker in engine.workers[1:]:
        replica = AnalysisSubject(
            world_size=spec.world_size,
            layout=layout_from_buckets(worker.buckets),
            source=f"rank {worker.rank} bucket layout",
        )
        report.findings.extend(aliasing.check(replica))

    if engine.schedule is not None:
        # Subject 2: the plan, checked statically without running — the
        # planned buckets with every update trailing the communication.
        # Without per-bucket updates that is subject 3 itself, so it is
        # lowered only when the two differ.
        if engine.schedule.per_bucket_updates:
            planned = lower_schedule(
                replace(engine.schedule, per_bucket_updates=False),
                spec.world_size,
                nodes=nodes,
            )
            planned.source = (
                f"plan lowering ({engine.config.describe()}, "
                f"{engine.schedule.num_buckets} buckets)"
            )
            check_subject(planned)

        # Subject 3: the executor's schedule — the gated event stream it runs.
        scheduled = lower_schedule(engine.schedule, spec.world_size, nodes=nodes)
        check_subject(scheduled)

        # Statically sweep every O/F/H × update-mode variant of the schedule:
        # each rewrite the execution optimizer could emit must be provably
        # race- and deadlock-free, not just the one that ran.
        for variant in engine.schedule.variants():
            check_subject(lower_schedule(variant, spec.world_size, nodes=nodes))

    return report


def analyze_all(
    num_nodes: int = 2,
    gpus_per_node: int = 2,
    steps: int = 5,
    seed: int = 0,
) -> SweepReport:
    """Analyze every registered algorithm and baseline; the CI sweep."""
    sweep = SweepReport()
    for name in sorted(ALGORITHM_REGISTRY) + sorted(BASELINE_REGISTRY):
        sweep.reports.append(
            analyze_algorithm(
                name,
                num_nodes=num_nodes,
                gpus_per_node=gpus_per_node,
                steps=steps,
                seed=seed,
            )
        )
    return sweep
