"""The BAGUA engine: lock-step execution of n model replicas (functional mode).

This is the reproduction's equivalent of ``bagua.bagua_init(model, optimizer,
algorithm)``: it wraps per-worker model replicas, runs the profiling phase on
the first iteration, builds the bucket schedule (bucket granularity per the
:class:`~repro.core.optimizer_framework.BaguaConfig`), and hands aligned
bucket views to the training algorithm after every backward pass.

The engine is "god-view": it owns all replicas and steps them together, which
is how the simulated cluster executes SPMD programs in-process.  Per-worker
state (gradients, BatchNorm statistics, error-feedback residuals, RNG
streams, algorithm state) lives in per-worker objects, so the per-rank
semantics of each algorithm are preserved exactly.  Weights and optimizer
state are per worker too, unless the algorithm declares that its replicas
stay bit-identical (:attr:`Algorithm.replicas_identical`): then the engine
keeps one copy, owned by the first replica, and runs each update once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np

from ..cluster.worker import WorkerContext
from ..comm.group import CommGroup
from ..compression.base import Compressor
from ..tensor.module import Module
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .bucket import TensorBucket
from .optimizer_framework import BaguaConfig, ExecutionOptimizer
from .profiler import ExecutionProfile, GradientReadyProfiler
from .schedule import (
    UPDATE_BARRIER,
    UPDATE_PER_BUCKET,
    BucketSchedule,
    ComputeModel,
    ScheduledExecutor,
)

LossFn = Callable[[Module, object], Tensor]


@dataclass
class WorkerReplica:
    """One worker's replica: model, optimizer, buckets and scratch state."""

    ctx: WorkerContext
    model: Module
    optimizer: Optimizer
    buckets: list[TensorBucket] = field(default_factory=list)
    # Free-form per-worker algorithm state (error feedback, momentum, views).
    state: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return self.ctx.rank

    def optimizer_step_on_buckets(self) -> None:
        """Run the optimizer over the buckets' flat views (paper's flat update).

        Each bucket steps on its own accumulated gradient; the update is in
        place on the fused weight buffers.
        """
        for bucket in self.buckets:
            self.trace_opt_step(bucket)
        arrays = [b.flat_data() for b in self.buckets]
        grads = [b.flat_grad() for b in self.buckets]
        self.optimizer.step_on_slots(range(len(arrays)), arrays, grads)

    def optimizer_step_on_bucket(self, k: int) -> None:
        """Run the optimizer on bucket ``k`` alone (per-bucket update path).

        Steps on the bucket's own gradient and uses the bucket index as the
        optimizer state slot, so per-bucket stepping in ready order is
        bit-identical to one barrier step over all buckets.
        """
        bucket = self.buckets[k]
        self.trace_opt_step(bucket)
        self.optimizer.step_on_slots([k], [bucket.flat_data()], [bucket.flat_grad()])

    def trace_opt_step(self, bucket: TensorBucket) -> None:
        """Tell the tracer, if any, that this rank updates ``bucket``."""
        tracer = self.ctx.transport.tracer
        if tracer is not None:
            tracer.on_local(
                self.rank, "opt_step", bucket=bucket.name, elements=bucket.total_elements
            )


class BaguaEngine:
    """Coordinates replicas, the bucket schedule and the training algorithm."""

    def __init__(
        self,
        models: Sequence[Module],
        optimizers: Sequence[Optimizer],
        algorithm: Algorithm,
        workers: Sequence[WorkerContext],
        config: BaguaConfig | None = None,
        grad_guard: bool = False,
        compute_model: ComputeModel | None = None,
    ) -> None:
        if not (len(models) == len(optimizers) == len(workers)):
            raise ValueError(
                f"got {len(models)} models, {len(optimizers)} optimizers, "
                f"{len(workers)} worker contexts"
            )
        if type(algorithm).comm_bucket is Algorithm.comm_bucket:
            raise TypeError(
                f"{type(algorithm).__name__} does not implement comm_bucket(); "
                "the ScheduledExecutor drives every algorithm through it"
            )
        if algorithm.update_mode not in (UPDATE_PER_BUCKET, UPDATE_BARRIER):
            raise ValueError(
                f"{type(algorithm).__name__} declares update_mode "
                f"{algorithm.update_mode!r}; use {UPDATE_PER_BUCKET!r} or "
                f"{UPDATE_BARRIER!r}"
            )
        self.config = config or BaguaConfig()
        if not self.config.bucket_bytes > 0:  # also rejects nan
            raise ValueError(
                f"bucket_bytes must be positive, got {self.config.bucket_bytes}"
            )
        # With grad_guard on, a non-finite gradient raises before it can be
        # communicated and poison every replica — fail fast at the source
        # rank instead of diverging the whole cluster.
        self.grad_guard = grad_guard
        self.algorithm = algorithm
        self.workers: list[WorkerReplica] = [
            WorkerReplica(ctx=ctx, model=m, optimizer=o)
            for ctx, m, o in zip(workers, models, optimizers)
        ]
        transport = workers[0].transport
        if self.config.backend is not None and self.config.backend != transport.backend.name:
            raise ValueError(
                f"config selects backend {self.config.backend!r} but the workers' "
                f"transport runs {transport.backend.name!r}; build the transport "
                "with the same backend (e.g. make_workers(spec, "
                f"backend={self.config.backend!r}))"
            )
        if self.config.protocol_sanitize is not None:
            # Must happen before any protocol traffic: the shm backend bakes
            # the flag into its workers at spawn time (and raises on a late
            # flip), so the engine applies it at construction.
            transport.backend.set_protocol_sanitize(self.config.protocol_sanitize)
        self.group = CommGroup(transport, [w.ctx.rank for w in self.workers])
        self.profile: ExecutionProfile | None = None
        self._compute_model = compute_model
        self.schedule: BucketSchedule | None = None
        self.executor: ScheduledExecutor | None = None
        self._step_index = 0
        self._verify_identical_replicas()

    # ------------------------------------------------------------------
    # Introspection used by algorithms
    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        return len(self.workers)

    @property
    def num_buckets(self) -> int:
        return len(self.workers[0].buckets)

    @property
    def hierarchical(self) -> bool:
        return self.config.hierarchical

    def grads_of_bucket(self, k: int) -> list[np.ndarray]:
        return [w.buckets[k].flat_grad() for w in self.workers]

    def weights_of_bucket(self, k: int) -> list[np.ndarray]:
        return [w.buckets[k].flat_data() for w in self.workers]

    def set_grads_of_bucket(self, k: int, grads: Sequence[np.ndarray]) -> None:
        for w, g in zip(self.workers, grads):
            w.buckets[k].set_flat_grad(g)

    def set_weights_of_bucket(self, k: int, weights: Sequence[np.ndarray]) -> None:
        for w, x in zip(self.workers, weights):
            w.buckets[k].set_flat_data(x)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def step_on_average(self, k: int, averaged: Sequence[np.ndarray]) -> None:
        """Make row r replica r's bucket-``k`` gradient and update on it.

        When the replicas share state the update runs on row 0 alone, so in
        protocol-sanitize mode every row is first checked to be row 0's bits.
        """
        self.set_grads_of_bucket(k, averaged)
        if self.algorithm.replicas_identical and self.group.transport.backend.sanitizing:
            self._check_rows_agree(k, averaged)
        self.update_replicas(k)

    def update_replicas(self, k: int | None = None) -> None:
        """Step bucket ``k`` (every bucket, in one barrier step, when ``k`` is
        ``None``): once, on replica 0, when the replicas share state, else on
        every replica.  Every rank's ``opt_step`` is traced, in rank order."""
        for i, worker in enumerate(self.workers):
            if i and self.algorithm.replicas_identical:
                for j in range(self.num_buckets) if k is None else (k,):
                    worker.trace_opt_step(worker.buckets[j])
            elif k is None:
                worker.optimizer_step_on_buckets()
            else:
                worker.optimizer_step_on_bucket(k)

    def _check_rows_agree(self, k: int, rows: Sequence[np.ndarray]) -> None:
        """Raise unless every replica's row of bucket ``k`` is row 0's bits."""
        first = rows[0].view(np.uint8)
        for worker, row in zip(self.workers[1:], rows[1:]):
            if not np.array_equal(row.view(np.uint8), first):
                raise RuntimeError(
                    f"bucket {self.workers[0].buckets[k].name!r}: rank {worker.rank}'s "
                    f"averaged gradients differ bitwise from rank {self.workers[0].rank}'s, "
                    "so the replicas cannot share one weight copy"
                )

    # ------------------------------------------------------------------
    # Training step
    # ------------------------------------------------------------------
    def step(self, batches: Sequence, loss_fn: LossFn) -> float:
        """One lock-step iteration; returns the mean loss across workers."""
        if len(batches) != self.world_size:
            raise ValueError(f"need {self.world_size} batches, got {len(batches)}")
        if self.schedule is None:
            losses = self._profiling_iteration(batches, loss_fn)
        else:
            losses = self._compute_gradients(batches, loss_fn)
        assert self.executor is not None  # built by the profiling iteration
        self.executor.run_step(self._step_index)
        # Iteration boundary: the shm backend drains its staged per-worker
        # programs here, so doorbell traffic is O(ranks) per step and any
        # deferred transport fault surfaces this iteration.
        self.group.transport.flush()
        self._step_index += 1
        return float(np.mean(losses))

    def _compute_gradients(self, batches: Sequence, loss_fn: LossFn) -> list[float]:
        losses = []
        for worker, batch in zip(self.workers, batches):
            worker.model.zero_grad()
            loss = loss_fn(worker.model, batch)
            loss.backward()
            losses.append(loss.item())
            if self.grad_guard:
                self._check_finite_gradients(worker)
        return losses

    @staticmethod
    def _check_finite_gradients(worker: WorkerReplica) -> None:
        for name, param in worker.model.named_parameters():
            if param.grad is not None and not np.all(np.isfinite(param.grad)):
                raise FloatingPointError(
                    f"non-finite gradient in {name!r} on rank {worker.rank}"
                )

    def _profiling_iteration(self, batches: Sequence, loss_fn: LossFn) -> list[float]:
        """First iteration: run unoptimized, record the ready order, build buckets."""
        profiler = GradientReadyProfiler(self.workers[0].model)
        profiler.install()
        losses = self._compute_gradients(batches, loss_fn)
        profiler.uninstall()
        self.profile = profiler.profile
        self.schedule = ExecutionOptimizer(self.config).plan(
            self.profile,
            per_bucket_updates=self.algorithm.update_mode == UPDATE_PER_BUCKET,
        )
        self._build_buckets()
        self.executor = ScheduledExecutor(
            self, self.schedule, compute_model=self._compute_model
        )
        self.algorithm.setup(self)
        return losses

    def _build_buckets(self) -> None:
        """Create aligned per-worker buckets following the schedule.

        All replicas share the profile recorded on worker 0 — replicas are
        identical by construction, so the ready order is too.

        Each worker gets ONE contiguous ``DTYPE`` pool for all of its
        buckets, whatever ``flatten`` (which only sets how many tensors a
        bucket fuses): weights in the first half, gradients in the second, a
        bucket at the same offset in both, and every bucket's two backing
        buffers are views into it.  Bucket-level flat views are zero-copy,
        and the whole replica is contiguous (one allocation per worker
        instead of one per bucket).
        The pool's storage comes from the transport backend: in-process
        backends hand back plain ndarrays, the shm backend maps a
        shared-memory segment visible to the rank's worker process as well —
        one registered pool per rank, so gradient views resolve to pool refs
        exactly as weight views do.

        With :attr:`Algorithm.replicas_identical`, replica r > 0 gets a
        gradient-only pool, read-only views of replica 0's weight buffers
        (its parameters re-pointed at them once their bits are checked) and
        replica 0's optimizer, whose ``state_dict()`` every replica reports.
        """
        assert self.schedule is not None
        backend = self.group.transport.backend
        total = self.schedule.total_elements
        lead = self.workers[0]
        for worker in self.workers:
            by_name = dict(worker.model.named_parameters())
            shares = worker is not lead and self.algorithm.replicas_identical
            if shares:
                pool = grads = backend.allocate_pool(worker.rank, total)
                weights = lead.state["flat_pool"][:total]
                weights.flags.writeable = False
                worker.optimizer = lead.optimizer
            else:
                pool = backend.allocate_pool(worker.rank, 2 * total)
                weights, grads = pool[:total], pool[total:]
            offset = 0
            buckets = []
            for scheduled in self.schedule.buckets:
                params = [by_name[name] for name, _elements in scheduled.views]
                # Bitwise, with no copy: DTYPE (float32) viewed as int32.
                if shares and not all(
                    np.array_equal(mine.data.view(np.int32), theirs.data.view(np.int32))
                    for mine, theirs in zip(params, lead.buckets[len(buckets)].params)
                ):
                    raise RuntimeError(
                        f"bucket {scheduled.name!r}: rank {worker.rank}'s weights differ "
                        f"bitwise from rank {lead.rank}'s, so the replicas cannot share one "
                        "weight copy"
                    )
                end = offset + scheduled.elements
                buckets.append(
                    TensorBucket(
                        params,
                        name=scheduled.name,
                        buffer=weights[offset:end],
                        grad_buffer=grads[offset:end],
                    )
                )
                offset = end
            worker.buckets = buckets
            worker.state["flat_pool"] = pool

    def _verify_identical_replicas(self) -> None:
        reference = dict(self.workers[0].model.named_parameters())
        for worker in self.workers[1:]:
            other = dict(worker.model.named_parameters())
            if set(other) != set(reference):
                raise ValueError("replica parameter names differ")
            for name, param in reference.items():
                if not np.array_equal(param.data, other[name].data):
                    raise ValueError(
                        f"replicas differ at parameter {name!r}; data-parallel "
                        "training requires identical initialization"
                    )


class Algorithm:
    """Base class of BAGUA training algorithms.

    Subclasses implement the *communication function* of the paper as a
    per-bucket method: the :class:`~repro.core.schedule.ScheduledExecutor`
    calls :meth:`comm_bucket` once per fused bucket, in gradient-ready order,
    after gating each rank's virtual clock on the bucket's readiness (O on)
    or the end of backward (O off); :meth:`on_step_end` runs after the last
    bucket — barrier-style algorithms do their single optimizer step there
    and declare ``update_mode = "barrier"`` so the schedule gates it on all
    communication.  :meth:`setup` runs once, after the profiling iteration
    built the buckets — the place to allocate per-worker state (error
    feedback, momentum buffers, peer views).
    """

    #: registry name, e.g. "allreduce", "qsgd"
    name: str = "base"
    #: "per_bucket" — parameters update as each bucket's comm lands;
    #: "barrier" — one optimizer step after every bucket communicated.
    update_mode: str = "per_bucket"
    #: async algorithms: max steps an update may lag the gradient it
    #: consumes.  ``None`` = synchronous (no bound to verify); the
    #: happens-before ``hb-staleness`` rule checks declared bounds.
    staleness_bound: int | None = None

    # The declaration: what an algorithm's communication is, stated once.
    # The symbolic analyzer lowers and checks plans from it, timing mode
    # prices it and the tuner ranks it (docs/algorithms.md "Declaring an
    # algorithm"), each from a default-constructed instance — so a subclass
    # sets these as class attributes or in ``__init__``, never later.
    #: codec its collectives quantize with; ``None`` = full precision
    compressor: Compressor | None = None
    #: the codec runs with error-feedback residuals (what lets a *biased*
    #: codec converge, §2.2; the ``ef-invariant`` rule holds the trace to it)
    error_feedback: bool = False
    #: gossip peer structure, "ring" | "random"; non-empty means the
    #: algorithm is decentralized
    topology: str = ""
    #: communicates on every ``frequency``-th step only (LocalSGD-style)
    frequency: int = 1
    #: leading steps that run full-precision allreduce before the codec
    #: takes over (1-bit Adam's warm-up)
    warmup_steps: int = 0
    #: relaxes synchronization (Table 1's "async" rows)
    asynchronous: bool = False
    #: every update consumes one averaged row, so the replicas stay
    #: bit-identical and share one weight copy and optimizer, stepped once
    replicas_identical: bool = False

    def setup(self, engine: BaguaEngine) -> None:  # noqa: B027 (intentional no-op)
        pass

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        """Communicate (and, in per-bucket mode, update) bucket ``k``."""
        raise NotImplementedError

    def on_step_end(self, engine: BaguaEngine, step: int) -> None:  # noqa: B027
        """Runs once per iteration after the last bucket's communication."""
        pass
