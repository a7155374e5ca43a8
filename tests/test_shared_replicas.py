"""Replicas that stay identical share one weight copy and one optimizer.

An algorithm declares ``replicas_identical`` when every update consumes one
averaged row: ``allreduce``, ``qsgd``, the ring-allreduce baselines
(``vanilla``, ``pytorch-ddp``, ``horovod``, ``horovod-16bit``) and sync
``byteps``.  ``BaguaEngine._build_buckets`` then gives replicas r > 0 a
gradient-only pool, read-only views of replica 0's bucket weights and its
optimizer, and ``update_replicas`` steps each bucket once.  No other
algorithm or baseline shares, local SGD and QSparse at ``frequency=1``
included (they step on local gradients before they average weights); a
wrong declaration raises at the first step.  The bitwise identity with
per-replica execution, on every pool leg, is in
``tests/test_backend_identity.py::TestSharedReplicaIdentity``.
"""

import numpy as np
import pytest

from repro.algorithms import (
    ALGORITHM_REGISTRY,
    AllreduceSGD,
    DecentralizedSGD,
    LocalSGD,
    QSparseLocalSGD,
    make_algorithm,
)
from repro.baselines import BASELINE_REGISTRY, BytePS, Horovod
from repro.cluster import ClusterSpec, Transport, make_workers
from repro.core import BaguaConfig, BaguaEngine
from repro.core.primitives import c_fp_s
from repro.tensor import SGD

from .identity_harness import POOL, backend_for, close_shm_backends
from .test_core_engine import loss_fn, make_batches, make_engine, make_model

# Every algorithm and baseline that declares ``replicas_identical``.
SHARING = {
    "allreduce": ALGORITHM_REGISTRY["allreduce"],
    "qsgd": ALGORITHM_REGISTRY["qsgd"],
    **BASELINE_REGISTRY,
    "horovod-16bit": lambda: Horovod(fp16=True),
}


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_backends():
    yield
    close_shm_backends()


def _shares(engine):
    """Per replica r > 0: (shares replica 0's weight memory, holds its optimizer)."""
    lead = engine.workers[0]
    return [
        (
            all(np.shares_memory(b.buffer, a.buffer) for b, a in zip(w.buckets, lead.buckets)),
            w.optimizer is lead.optimizer,
        )
        for w in engine.workers[1:]
    ]


class TestEligibility:
    @pytest.mark.parametrize("name", sorted(SHARING))
    def test_averaging_algorithms_share(self, rng, name):
        engine = make_engine(algorithm=SHARING[name]())
        engine.step(make_batches(rng, 4), loss_fn)  # the profiling step builds buckets
        assert _shares(engine) == [(True, True)] * 3
        lead = engine.workers[0]
        for worker in engine.workers[1:]:
            for bucket, theirs in zip(worker.buckets, lead.buckets):
                assert not bucket.buffer.flags.writeable
                assert not np.shares_memory(bucket.grad_buffer, theirs.grad_buffer)

    @pytest.mark.parametrize("name", ["allreduce", "qsgd"])
    def test_shared_weights_lie_in_replica_0s_pool(self, rng, name):
        """Every replica's gradients stay in its own pool and resolve to pool
        refs for every rank; every replica's weights lie in replica 0's pool,
        where replica 0's weight rows resolve."""
        spec = ClusterSpec(num_nodes=2, workers_per_node=2)
        workers = make_workers(spec, backend="batched")
        models = [make_model() for _ in range(4)]
        engine = BaguaEngine(
            models, [SGD(m.parameters(), lr=0.1) for m in models], make_algorithm(name),
            workers, config=BaguaConfig(backend="batched"),
        )
        engine.step(make_batches(rng, 4), loss_fn)
        lead_pool = engine.workers[0].state["flat_pool"]
        for worker in engine.workers:
            for bucket in worker.buckets:
                assert np.shares_memory(bucket.grad_buffer, worker.state["flat_pool"])
                assert np.shares_memory(bucket.buffer, lead_pool)
        ranks = [w.rank for w in engine.workers]
        resolve = engine.group.transport.backend.resolve_pool_refs
        for k in range(engine.num_buckets):
            assert resolve(engine.grads_of_bucket(k), ranks) is not None
            assert resolve(engine.weights_of_bucket(k)[:1], ranks[:1]) is not None

    @pytest.mark.parametrize("leg", POOL)
    def test_only_replica_0s_pool_holds_weights(self, rng, leg):
        """Replica 0's pool holds the one weight half and its gradients;
        every other replica's pool holds its gradients alone."""
        spec = ClusterSpec(num_nodes=2, workers_per_node=2)
        workers = make_workers(spec, Transport(spec, backend=backend_for(leg, 4)))
        models = [make_model() for _ in range(4)]
        engine = BaguaEngine(
            models, [SGD(m.parameters(), lr=0.1) for m in models], AllreduceSGD(), workers,
            config=BaguaConfig(backend=leg),
        )
        engine.step(make_batches(rng, 4), loss_fn)
        total = engine.schedule.total_elements
        assert [w.state["flat_pool"].size for w in engine.workers] == [2 * total] + [total] * 3
        engine.step(make_batches(rng, 4), loss_fn)  # and the world trains on that layout

    @pytest.mark.parametrize(
        "make",
        [
            *(make for name, make in sorted(ALGORITHM_REGISTRY.items()) if name not in SHARING),
            lambda: LocalSGD(frequency=1),
            lambda: QSparseLocalSGD(frequency=1),
            lambda: BytePS(asynchronous=True),
        ],
    )
    def test_everything_else_shares_nothing(self, rng, make):
        engine = make_engine(algorithm=make())
        engine.step(make_batches(rng, 4), loss_fn)  # the profiling step built the buckets
        lead = engine.workers[0]
        for worker in engine.workers[1:]:
            assert worker.optimizer is not lead.optimizer
            assert worker.state["flat_pool"].size == 2 * engine.schedule.total_elements
            for bucket, theirs in zip(worker.buckets, lead.buckets):
                assert not np.shares_memory(bucket.buffer, theirs.buffer)
                assert bucket.buffer.flags.writeable


class SharesThenStepsPerReplica(AllreduceSGD):
    """A wrong declaration: shares the weights, then updates every replica."""

    name = "shares-then-steps-per-replica"

    def comm_bucket(self, engine, k, step):
        grads = engine.grads_of_bucket(k)
        c_fp_s(grads, engine.group, out=grads, average=True)
        for worker in engine.workers:
            worker.optimizer_step_on_bucket(k)


class TestReadOnlyGuard:
    def test_per_replica_update_of_shared_weights_fails_at_once(self, rng):
        engine = make_engine(algorithm=SharesThenStepsPerReplica())
        with pytest.raises(ValueError, match="read-only"):
            engine.step(make_batches(rng, 4), loss_fn)

    def test_per_replica_weight_write_fails(self, rng):
        engine = make_engine()
        engine.step(make_batches(rng, 4), loss_fn)
        weights = engine.weights_of_bucket(0)
        with pytest.raises(ValueError, match="read-only"):
            engine.set_weights_of_bucket(0, [w + 1.0 for w in weights])

    @pytest.mark.parametrize(
        "make", [lambda: LocalSGD(frequency=1), DecentralizedSGD], ids=["local-sgd-1", "decentralized"]
    )
    def test_wrong_declaration_fails_at_the_first_step(self, rng, make):
        """The field is stated, not inferred: declaring it on an algorithm
        whose replicas step on their own gradients or gossip their weights
        raises on the first step instead of updating the shared weights n
        times."""
        algorithm = make()
        algorithm.replicas_identical = True
        engine = make_engine(algorithm=algorithm)
        with pytest.raises(ValueError, match="read-only"):
            engine.step(make_batches(rng, 4), loss_fn)

    def test_diverged_replicas_refuse_to_share(self, rng):
        engine = make_engine()
        engine.workers[2].model.parameters()[0].data[0, 0] += 1.0  # after the init check
        with pytest.raises(RuntimeError, match="rank 2's weights differ"):
            engine.step(make_batches(rng, 4), loss_fn)


def _perturb_rank_1(monkeypatch):
    """Make allreduce's collective hand rank 1 a row one ulp off the others'."""

    def perturbed(arrays, group, **kwargs):
        rows = c_fp_s(arrays, group, **kwargs)
        rows[1][0] = np.nextafter(rows[1][0], np.float32(np.inf))
        return rows

    monkeypatch.setattr("repro.algorithms.allreduce.c_fp_s", perturbed)


class TestSanitizedContract:
    def test_differing_row_is_named_under_sanitize(self, rng, monkeypatch):
        _perturb_rank_1(monkeypatch)
        engine = make_engine(config=BaguaConfig(protocol_sanitize=True))
        with pytest.raises(RuntimeError, match=r"bucket '\w+': rank 1's averaged gradients differ"):
            engine.step(make_batches(rng, 4), loss_fn)

    def test_unchecked_without_sanitize(self, rng, monkeypatch):
        _perturb_rank_1(monkeypatch)
        engine = make_engine(config=BaguaConfig(protocol_sanitize=False))
        engine.step(make_batches(rng, 4), loss_fn)

