"""The Listing-2 communicator facade and engine robustness features."""

import numpy as np
import pytest

from repro.algorithms import AllreduceSGD, QSGD
from repro.cluster import ClusterSpec, Transport, make_workers
from repro.comm import CommGroup
from repro.compression import OneBitCompressor, QSGDCompressor
from repro.core import (
    Algorithm,
    BaguaEngine,
    GlobalComm,
    RandomPeers,
    get_global_comm,
)
from repro.tensor import SGD
from repro.training import DistributedTrainer, get_task

from .conftest import exact_rows

WORLD = ClusterSpec(num_nodes=2, workers_per_node=2)


@pytest.fixture
def comm():
    transport = Transport(WORLD)
    group = CommGroup(transport, list(range(4)))
    return GlobalComm(group)


class TestGlobalComm:
    def test_cen_fp_sync(self, comm, rng):
        arrays = exact_rows(rng, 4, 16)
        outs = comm.cen_fp_sync.exec(arrays)
        expected = np.sum(arrays, axis=0)
        for out in outs:
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_cen_lp_sync_with_states(self, comm, rng):
        codec = OneBitCompressor()
        worker_err, server_err = comm.cen_lp_sync.init_states(codec)
        assert len(worker_err) == len(server_err) == 4
        arrays = [rng.standard_normal(16) for _ in range(4)]
        outs = comm.cen_lp_sync.exec(arrays, codec, worker_err, server_err)
        assert outs[0].shape == (16,)
        # Residual state was populated by the call.
        assert worker_err[0].total_residual_norm() > 0

    def test_cen_lp_sync_stateless(self, comm, rng):
        codec = QSGDCompressor(bits=8)
        arrays = [rng.standard_normal(64) for _ in range(4)]
        outs = comm.cen_lp_sync.exec(arrays, codec)
        expected = np.sum(arrays, axis=0)
        assert np.linalg.norm(outs[0] - expected) / np.linalg.norm(expected) < 0.2

    def test_decen_fp_sync(self, comm, rng):
        arrays = exact_rows(rng, 4, 8)
        outs = comm.decen_fp_sync.exec(arrays, peers=RandomPeers(seed=0), step=1)
        np.testing.assert_allclose(
            np.mean(outs, axis=0), np.mean(arrays, axis=0), atol=1e-10
        )

    def test_decen_lp_sync(self, comm, rng):
        arrays = [rng.standard_normal(32) for _ in range(4)]
        outs = comm.decen_lp_sync.exec(arrays, QSGDCompressor(bits=8))
        assert len(outs) == 4

    def test_world_size(self, comm):
        assert comm.world_size == 4


class ListingTwoAlgorithm(Algorithm):
    """A Listing-2-style algorithm written purely against the facade."""

    name = "listing2"
    update_mode = "barrier"

    def setup(self, engine: BaguaEngine) -> None:
        self.global_comm = get_global_comm(engine)
        self.codec = OneBitCompressor()
        self.worker_err, self.server_err = self.global_comm.cen_lp_sync.init_states(
            self.codec
        )

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        n = engine.world_size
        summed = self.global_comm.cen_lp_sync.exec(
            engine.grads_of_bucket(k), self.codec, self.worker_err, self.server_err
        )
        engine.set_grads_of_bucket(k, [s / n for s in summed])

    def on_step_end(self, engine: BaguaEngine, step: int) -> None:
        for worker in engine.workers:
            worker.optimizer_step_on_buckets()


class TestListingTwoStyle:
    def test_facade_algorithm_trains(self):
        task = get_task("VGG16")
        trainer = DistributedTrainer(
            WORLD, task.model_factory, task.make_optimizer, ListingTwoAlgorithm(), seed=0
        )
        loaders = task.make_loaders(WORLD.world_size, seed=0)
        record = trainer.train(loaders, task.loss_fn, epochs=3)
        assert record.epoch_losses[-1] < record.epoch_losses[0]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestGradGuard:
    def _engine(self, grad_guard):
        from repro.tensor import Linear, Sequential

        workers = make_workers(WORLD)
        models = [
            Sequential(Linear(3, 2, rng=np.random.default_rng(0))) for _ in range(4)
        ]
        optimizers = [SGD(m.parameters(), lr=0.1) for m in models]
        return BaguaEngine(
            models, optimizers, AllreduceSGD(), workers, grad_guard=grad_guard
        )

    @staticmethod
    def _poisoned_loss(model, batch):
        from repro.tensor import Tensor
        from repro.tensor import functional as F

        inputs, labels = batch
        logits = model(Tensor(inputs * np.inf))
        return F.mse_loss(logits, labels)

    def test_guard_raises_on_nan_gradient(self, rng):
        engine = self._engine(grad_guard=True)
        batches = [(rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))] * 4
        with pytest.raises(FloatingPointError, match="rank"):
            engine.step(batches, self._poisoned_loss)

    def test_guard_off_by_default(self, rng):
        engine = self._engine(grad_guard=False)
        batches = [(rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))] * 4
        engine.step(batches, self._poisoned_loss)  # no raise


class TestTrafficRecords:
    def test_epoch_bytes_recorded_and_monotone(self):
        task = get_task("VGG16")
        trainer = DistributedTrainer(
            WORLD, task.model_factory, task.make_optimizer, AllreduceSGD(), seed=0
        )
        loaders = task.make_loaders(WORLD.world_size, seed=0)
        record = trainer.train(loaders, task.loss_fn, epochs=3)
        assert len(record.epoch_comm_bytes) == 3
        assert record.epoch_comm_bytes[0] < record.epoch_comm_bytes[2]
        assert record.bytes_in_epoch(1) > 0
        with pytest.raises(IndexError):
            record.bytes_in_epoch(7)

    def test_compression_visible_in_epoch_bytes(self):
        task = get_task("VGG16")

        def run(algorithm):
            trainer = DistributedTrainer(
                WORLD, task.model_factory, task.make_optimizer, algorithm, seed=0
            )
            loaders = task.make_loaders(WORLD.world_size, seed=0)
            return trainer.train(loaders, task.loss_fn, epochs=2)

        exact = run(AllreduceSGD())
        quant = run(QSGD())
        assert quant.bytes_in_epoch(1) < 0.5 * exact.bytes_in_epoch(1)
