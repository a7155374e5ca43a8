"""Cross-cutting consistency: functional traffic matches analytic volume,
and the quick functional figure experiments run end to end."""

import numpy as np
import pytest

from repro.algorithms import AllreduceSGD
from repro.cluster import ClusterSpec, Transport
from repro.cluster.transport import payload_nbytes
from repro.comm import CommGroup
from repro.experiments import fig5_convergence_systems, fig6_convergence_algorithms
from repro.simulation.patterns import dry_scatter_reduce
from repro.tensor import DTYPE
from repro.training import DistributedTrainer, get_task

WORLD = ClusterSpec(num_nodes=2, workers_per_node=2)


class TestTrafficMatchesAnalyticVolume:
    def test_scatter_reduce_bytes_per_step(self):
        """Flat ScatterReduce moves exactly 2(n-1) x model bytes per step.

        This ties the engine, bucketing, primitive and transport accounting
        together: phase 1 ships (n-1)/n of each worker's tensor, phase 2
        ships each merged partition to n-1 members.
        """
        task = get_task("VGG16")
        trainer = DistributedTrainer(
            WORLD, task.model_factory, task.make_optimizer, AllreduceSGD(), seed=0
        )
        loaders = task.make_loaders(WORLD.world_size, seed=0)
        steps = 0
        for batches in zip(*[loader.epoch() for loader in loaders]):
            trainer.engine.step(list(batches), task.loss_fn)
            steps += 1

        n = WORLD.world_size
        params = trainer.engine.workers[0].model.num_parameters()
        expected = steps * 2 * (n - 1) * params * DTYPE.itemsize
        measured = trainer.transport.stats.total_bytes
        assert measured == pytest.approx(expected, rel=0.05)

    def test_full_precision_step_is_charged_the_timing_mode_bytes(self):
        """A functional-mode allreduce step and timing mode's dry
        ScatterReduce over the same buckets charge the same payload bytes in
        the same number of messages: both move 4-byte elements.  Functional
        messages add only their ``(index, payload)`` envelope."""
        task = get_task("VGG16")
        trainer = DistributedTrainer(
            WORLD, task.model_factory, task.make_optimizer, AllreduceSGD(), seed=0
        )
        loaders = task.make_loaders(WORLD.world_size, seed=0)
        batches = zip(*[loader.epoch() for loader in loaders])
        trainer.engine.step(list(next(batches)), task.loss_fn)  # the profiling step
        stats = trainer.transport.stats
        messages, total = stats.messages, stats.total_bytes
        trainer.engine.step(list(next(batches)), task.loss_fn)
        messages, total = stats.messages - messages, stats.total_bytes - total

        dry = Transport(WORLD)
        group = CommGroup(dry, list(range(WORLD.world_size)))
        elements = [bucket.elements for bucket in trainer.engine.schedule.buckets]
        for count in elements:
            dry_scatter_reduce(group, count)
        assert sum(elements) == trainer.engine.workers[0].model.num_parameters()
        assert messages == dry.stats.messages
        envelope = payload_nbytes((0, np.empty(0, DTYPE)))
        assert total - envelope * messages == dry.stats.total_bytes

    def test_epoch_sim_time_scales_with_bytes(self):
        """Simulated communication time grows with traffic volume."""
        task = get_task("VGG16")
        trainer = DistributedTrainer(
            WORLD, task.model_factory, task.make_optimizer, AllreduceSGD(), seed=0
        )
        loaders = task.make_loaders(WORLD.world_size, seed=0)
        record = trainer.train(loaders, task.loss_fn, epochs=2)
        t1, t2 = record.epoch_sim_times
        b1, b2 = record.epoch_comm_bytes
        # Cumulative time and bytes both roughly double after epoch two.
        assert t2 == pytest.approx(2 * t1, rel=0.15)
        assert b2 == pytest.approx(2 * b1, rel=0.01)


class TestFunctionalFigureExperiments:
    """Fast single-task versions of the Figure 5/6 harnesses."""

    def test_fig5_single_task(self):
        result = fig5_convergence_systems.run(
            tasks=[get_task("VGG16")], epochs=2
        )
        records = result.curves["VGG16"]
        assert set(records) == {
            "BAGUA (qsgd)", "PyTorch-DDP", "Horovod", "Horovod-16bit", "BytePS",
        }
        exact = [records[s].epoch_losses for s in ("PyTorch-DDP", "Horovod", "BytePS")]
        np.testing.assert_allclose(exact[0], exact[1], atol=1e-9)
        np.testing.assert_allclose(exact[0], exact[2], atol=1e-9)
        assert "Figure 5" in result.render()

    def test_fig6_single_task(self):
        result = fig6_convergence_algorithms.run(
            tasks=[get_task("BERT-BASE")], epochs=2
        )
        records = result.curves["BERT-BASE"]
        assert len(records) == 6
        for label, record in records.items():
            assert not record.diverged, label
        assert "Figure 6" in result.render()
