"""The jobs behind the five workloads and the closed loop that runs one.

This module is imported only inside a workload subprocess, after the
set-up clock has started: importing it imports ``repro`` and numpy.

Load shape: closed loop, one client.  The next op is issued when the
previous one returned, for as long as ``plan.py`` says a run measures.
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time
import traceback
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import simulation
from repro.algorithms import make_algorithm
from repro.cluster.topology import ClusterSpec, paper_cluster
from repro.core.optimizer_framework import BaguaConfig
from repro.data.loader import make_sharded_loaders
from repro.data.synthetic import make_image_classification
from repro.models import all_specs
from repro.tensor import SGD, Sequential, Tensor
from repro.tensor import functional as F
from repro.tensor import layers as nn
from repro.training.tasks import get_task
from repro.training.trainer import DistributedTrainer

import checks
import layers
from plan import ORACLE_STEPS, SIM_CELLS, SMOKE_OPS, WARMUP_STEPS, WORKLOADS, TrainJob
from tracing import Tracer, write_chrome_trace

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_quiet": "ms",
    "ops_per_s_quiet": "ops/s",
    "peak_rss_mb": "MiB",
    "failed_ops_share": "ratio",
}
#: plain percentiles of the same samples, printed beside the metrics but not
#: declared in BENCHMARK.json: on this box they say how disturbed the run
#: was, not how fast the program is (see ``QUIET_PERCENTILE``)
RAW_UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "ops/s"}
#: The sandbox shares its host: for a fraction of a second to a minute at a
#: time the same op runs 1.3-2x slower, and a run's median follows whichever
#: state the box was mostly in (two runs of one commit read 40 % apart).
#: Whatever disturbs an op only adds time, and almost every stretch of ~10 s
#: holds undisturbed ops, so a low percentile of an op's repeats is what the
#: op costs when the host leaves the vCPU alone.  That is what the gated
#: timings report.  Of the percentiles tried on recorded six-minute traces
#: (0, 2, 5, 10, 25, 50) the 2nd was the steadiest that is not a single
#: sample: four or more samples lie below it in a full ``train_*`` run.
QUIET_PERCENTILE = 2


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
def wide_mlp(rng: np.random.Generator) -> Sequential:
    """~0.66 M parameters for 2-sample batches: the paper's
    communication-heavy regime (many parameters per sample), which none of
    the five proxy tasks reaches."""
    return Sequential(
        nn.Flatten(),
        nn.Linear(768, 512, rng=rng),
        nn.ReLU(),
        nn.Linear(512, 512, rng=rng),
        nn.ReLU(),
        nn.Linear(512, 10, rng=rng),
    )


def _mlp_loss(model: Sequential, batch: tuple) -> Tensor:
    inputs, labels = batch
    return F.cross_entropy(model(Tensor(inputs)), labels)


def build_job(job: TrainJob, seed: int, backend: str | None = None) -> tuple:
    """``(trainer, loaders, loss_fn)``; ``backend`` overrides the job's."""
    spec = ClusterSpec(num_nodes=job.nodes, workers_per_node=job.workers_per_node)
    backend = backend or job.backend
    if job.task is not None:
        task = get_task(job.task)
        trainer = DistributedTrainer(
            spec,
            task.model_factory,
            task.make_optimizer,
            make_algorithm(job.algorithm),
            BaguaConfig(backend=backend),
            seed=seed,
        )
        return trainer, task.make_loaders(spec.world_size, seed=seed), task.loss_fn
    trainer = DistributedTrainer(
        spec,
        wide_mlp,
        lambda model: SGD(model.parameters(), lr=0.01, momentum=0.9),
        make_algorithm(job.algorithm),
        BaguaConfig(backend=backend, hierarchical=job.hierarchical, bucket_bytes=1 << 20),
        seed=seed,
    )
    dataset = make_image_classification(n=256, seed=seed)
    loaders = make_sharded_loaders(dataset, spec.world_size, batch_size=2, seed=seed)
    return trainer, loaders, _mlp_loss


def cycle_batches(loaders: list) -> Iterator[list]:
    """Per-worker batches, epoch after epoch, as ``DistributedTrainer.train``."""
    while True:
        for batches in zip(*[loader.epoch() for loader in loaders]):
            yield list(batches)


class TrainRun:
    """Op = one ``engine.step``; the item it consumes is the next batch list."""

    prepare_span = "data.next_batch:next"
    #: every step does the same work
    kinds = 1

    def __init__(self, job: TrainJob, seed: int, backend: str | None = None) -> None:
        self.trainer, loaders, self.loss_fn = build_job(job, seed, backend)
        self.batches = cycle_batches(loaders)
        #: per step, set-up steps included: (loss, virtual time, modelled bytes)
        self.steps: list[tuple[float, float, float]] = []

    def prepare(self) -> list:
        return next(self.batches)

    def call(self, batches: list) -> float:
        loss = self.trainer.engine.step(batches, self.loss_fn)
        transport = self.trainer.transport
        self.steps.append((loss, transport.max_time(), transport.stats.total_bytes))
        return loss

    def step(self) -> float:
        return self.call(self.prepare())


class SimRun:
    """Op = one ``simulate_epoch`` cell of the paper's table sweep, over and
    over: op ``i`` is cell ``i % kinds``.

    The cell order is network -> model -> system, so any prefix of a sweep
    holds whole model rows.  Each (sweep, network) gets a fresh cluster and
    a fresh ``CommCostModel``: every sweep repeats the first's work,
    cost-model misses included.
    """

    prepare_span = "simulation.iteration:build_systems"
    NETWORKS = ("10gbps", "25gbps")
    BAGUA_ALGORITHMS = ("allreduce", "qsgd", "decentralized")

    def __init__(self, cells: int = SIM_CELLS) -> None:
        self.specs = list(all_specs().values())
        systems_per_model = len(self.BAGUA_ALGORITHMS) + 3
        self.sweep = [
            (network, model, system)
            for network in self.NETWORKS
            for model in range(len(self.specs))
            for system in range(systems_per_model)
        ][:cells]
        #: distinct ops: a cell costs anything from 15 ms to 0.5 s
        self.kinds = len(self.sweep)
        self.labels: list[tuple[str, str, str]] = []
        self._network: str | None = None
        self._cluster: Any = None
        self._systems: list = []

    def prepare(self) -> tuple:
        cell = len(self.labels) % self.kinds
        network, model, system = self.sweep[cell]
        if cell == 0 or network != self._network:
            self._network = network
            self._cluster = paper_cluster(network)
            cost = simulation.CommCostModel(self._cluster)
            self._systems = [
                simulation.bagua_system(cost, algorithm) for algorithm in self.BAGUA_ALGORITHMS
            ] + [
                simulation.pytorch_ddp_system(cost),
                simulation.horovod_system(cost),
                simulation.byteps_system(cost),
            ]
        spec = self.specs[model]
        self.labels.append((network, spec.name, self._systems[system].name))
        return spec, self._cluster, self._systems[system]

    def call(self, cell: tuple) -> float:
        # Looked up on the module at call time so that the traced run's
        # rebinding of ``simulate_epoch`` reaches this call site too.
        return simulation.simulate_epoch(*cell).epoch_time


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    """Wall seconds of each op (the call alone, ``time.perf_counter`` around
    it) and of each iteration (the op and the loading of its input), and what
    the ops returned."""

    durations: list[float] = field(default_factory=list)
    iterations: list[float] = field(default_factory=list)
    outputs: list[float] = field(default_factory=list)
    error: str | None = None


def closed_loop(
    run: Any, min_ops: int, seconds: float, tracer: Tracer | None = None
) -> LoopResult:
    """Issue ops back to back for ``seconds`` seconds and at least
    ``min_ops`` of them, timing each, and finish the pass over the kinds of
    op that is under way (every kind gets the same number of repeats).

    An exception ends the loop; the caller counts the ops not run as failed.
    """
    result = LoopResult()
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    try:
        while i < min_ops or clock() < deadline or i % run.kinds:
            began = clock()
            with tracer.op(i) if tracer else nullcontext():
                with tracer.span(run.prepare_span) if tracer else nullcontext():
                    item = run.prepare()
                start = clock()
                output = run.call(item)
                end = clock()
            result.durations.append(end - start)
            result.iterations.append(end - began)
            result.outputs.append(output)
            i += 1
    except Exception:
        result.error = traceback.format_exc()
    return result


def failed_ops(attempted: int, outputs: list[float], check_failures: list[str]) -> int:
    """Ops that did not run, returned a non-finite value, or belong to a run
    whose output check failed (then all of them)."""
    if check_failures:
        return attempted
    bad = sum(1 for output in outputs if not math.isfinite(output))
    return attempted - len(outputs) + bad


def quiet(samples: list[float], kinds: int, first_op: int = 0) -> np.ndarray:
    """Per kind of op, the ``QUIET_PERCENTILE`` of its repeats; sample ``i``
    is of kind ``(first_op + i) % kinds``."""
    values = np.asarray(samples)
    repeats = [values[(kind - first_op) % kinds :: kinds] for kind in range(kinds)]
    return np.array([np.percentile(r, QUIET_PERCENTILE) for r in repeats if len(r)])


def quiet_op_ms(loop: LoopResult, kinds: int, first_op: int = 0) -> float:
    """The undisturbed cost of the median kind of op."""
    return float(np.median(quiet(loop.durations, kinds, first_op))) * 1e3


def end_to_end(loop: LoopResult, kinds: int) -> tuple[dict[str, float], dict[str, float]]:
    """The timing metrics of one untraced run, and the plain percentiles of
    the same samples."""
    if not loop.durations:
        return {}, {}
    per_iteration = quiet(loop.iterations, kinds)
    gated = {
        "op_ms_quiet": quiet_op_ms(loop, kinds),
        # One undisturbed pass over every kind of op, input loading included.
        "ops_per_s_quiet": len(per_iteration) / float(per_iteration.sum()),
    }
    raw = {
        "op_ms_p50": float(np.median(loop.durations)) * 1e3,
        "op_ms_p90": float(np.percentile(loop.durations, 90)) * 1e3,
        "ops_per_s": len(loop.iterations) / sum(loop.iterations),
    }
    return gated, raw


def traced_then_untraced(
    run: Any, min_ops: int, seconds: float, tracer: Tracer, profile_iter_s: float
) -> tuple[list[float], str | None, dict[str, float]]:
    """Run the first half traced, remove the wrappers, run the rest untraced.
    Returns all outputs, the first error, and the per-layer metrics of the
    traced half."""
    trainer = getattr(run, "trainer", None)
    backend = trainer.transport.backend if trainer else None
    before = backend.describe() if backend else {}
    loop = closed_loop(run, min_ops // 2, seconds / 2, tracer)
    after = backend.describe() if backend else {}
    tracer.remove()
    traced_ops = max(1, len(loop.outputs))
    backend_delta = {key: after[key] - before[key] for key in layers.BACKEND_KEYS if key in after}
    per_layer = layers.layer_metrics(tracer, traced_ops, backend_delta)
    if trainer:
        run.loss_fn = run.loss_fn.__wrapped__
        per_layer["core.profile_iter_ms"] = profile_iter_s * 1e3
        virtual_s = run.steps[-1][1] - run.steps[WARMUP_STEPS][1]
        per_layer["transport.virtual_ms"] = virtual_s * 1e3 / traced_ops
    if loop.error is not None:
        return loop.outputs, loop.error, per_layer
    tail = closed_loop(run, min_ops - min_ops // 2, seconds / 2)
    if tail.durations and loop.durations:
        untraced = quiet_op_ms(tail, run.kinds, first_op=len(loop.outputs))
        per_layer["trace.overhead_share"] = quiet_op_ms(loop, run.kinds) / untraced - 1.0
    return loop.outputs + tail.outputs, tail.error, per_layer


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@dataclass
class Prepared:
    """A workload set up to its first timed op."""

    run: Any
    tracer: Tracer | None
    #: from just before ``import repro`` to here
    setup_s: float
    profile_iter_s: float
    shm_before: set[str]

    def close(self) -> None:
        if hasattr(self.run, "trainer"):
            self.run.trainer.transport.close()


def set_up(name: str, seed: int, smoke: bool, trace: bool, setup_started: float) -> Prepared:
    """Build the workload's job and run its profiling iteration and warm-up.

    ``setup_started`` is the ``perf_counter`` reading taken just before
    ``repro`` was imported.
    """
    job = WORKLOADS[name].job
    tracer = Tracer() if trace else None
    shm_before = _shm_entries()
    profile_iter_s = 0.0
    if job is None:
        run: Any = SimRun(SMOKE_OPS // 2 if smoke else SIM_CELLS)
        if tracer:
            layers.install(tracer)
    else:
        run = TrainRun(job, seed)
        if tracer:
            layers.install(tracer, run.trainer)
            run.loss_fn = tracer.traced(run.loss_fn, "tensor.forward:loss_fn")
        profile_started = time.perf_counter()
        run.step()
        profile_iter_s = time.perf_counter() - profile_started
        for _ in range(WARMUP_STEPS):
            run.step()
    return Prepared(run, tracer, time.perf_counter() - setup_started, profile_iter_s, shm_before)


def run_workload(
    name: str, seed: int, seconds: float | None, trace: bool, setup_started: float, trace_path: str
) -> dict:
    """Run one workload in this process and return its result record;
    ``seconds=None`` is a smoke run of ``SMOKE_OPS`` ops.

    Untraced runs report the end-to-end metrics, traced runs the per-layer
    ones: a traced run times the first half of its ops with the wrappers
    installed and the second half after removing them, which is what
    ``trace.overhead_share`` compares.
    """
    workload = WORKLOADS[name]
    job = workload.job
    smoke = seconds is None
    min_ops, seconds = (SMOKE_OPS, 0.0) if smoke else (workload.min_ops, seconds)
    prepared = set_up(name, seed, smoke, trace, setup_started)
    run, tracer = prepared.run, prepared.tracer

    per_layer: dict[str, float] = {}
    if tracer is None:
        loop = closed_loop(run, min_ops, seconds)
        outputs, error = loop.outputs, loop.error
    else:
        outputs, error, per_layer = traced_then_untraced(
            run, min_ops, seconds, tracer, prepared.profile_iter_s
        )
    # An op that raised ends the run: it and the ops still owed count as failed.
    ops = max(min_ops, len(outputs) + (error is not None))

    replicas_equal = True
    prepared.close()
    if job is not None:
        states = [w.model.state_dict() for w in run.trainer.engine.workers]
        replicas_equal = all(
            np.array_equal(states[0][key], other[key]) for other in states[1:] for key in states[0]
        )
    leaked = sorted(_shm_entries() - prepared.shm_before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    if leaked:
        failures.append(f"/dev/shm entries left after close: {leaked}")
    if error is not None:
        # An incomplete run gives the checks nothing to hold against; the
        # ops it did not run already count as failed.
        print(error, file=sys.stderr)
    elif job is None:
        failures += checks.sim_failures(run.labels, outputs, run.kinds)
    else:
        oracle = checks.oracle_steps(lambda: TrainRun(job, seed, backend="local"), ORACLE_STEPS)
        failures += checks.train_failures(
            run.steps,
            oracle,
            timed_from=1 + WARMUP_STEPS,
            replicas_equal=replicas_equal or not job.replicas_identical,
        )
    failed = failed_ops(ops, outputs, failures)

    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "ops": len(outputs),
        "samples_per_op": workload.samples_per_op,
        "attempted": ops,
        "failed": failed,
        "check_failures": failures,
        "error": error,
    }
    if tracer is None:
        values, raw = end_to_end(loop, run.kinds)
        values.update(setup_s=prepared.setup_s, peak_rss_mb=peak_rss_mb, failed_ops_share=failed / ops)
        record["metrics"] = _with_units(values, END_TO_END_UNITS)
        record["raw"] = _with_units(raw, RAW_UNITS)
    else:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        per_layer["backends.workers_cpu_ms"] = (children.ru_utime + children.ru_stime) * 1e3
        per_layer["backends.workers_peak_rss_mb"] = children.ru_maxrss / 1024.0
        per_layer["backends.leaked_segments"] = float(len(leaked))
        record["metrics"] = _with_units(per_layer, layers.PER_LAYER_UNITS)
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        record["trace_events"] = write_chrome_trace(tracer.spans, trace_path)
    return record


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
