"""Engine x config integration: every algorithm under every O/F/H setting."""

import numpy as np
import pytest

from repro.algorithms import AllreduceSGD, QSGD, make_algorithm
from repro.cluster import ClusterSpec
from repro.core import BaguaConfig
from repro.training import DistributedTrainer, get_task

WORLD = ClusterSpec(num_nodes=2, workers_per_node=2)

CONFIGS = [
    BaguaConfig(overlap=True, flatten=True, hierarchical=False),
    BaguaConfig(overlap=True, flatten=True, hierarchical=True),
    BaguaConfig(overlap=True, flatten=False, hierarchical=False),
    BaguaConfig(overlap=False, flatten=True, hierarchical=True),
]


def losses_for(algorithm, config, epochs=2, seed=0):
    task = get_task("VGG16")
    trainer = DistributedTrainer(
        WORLD, task.model_factory, task.make_optimizer, algorithm,
        config=config, seed=seed,
    )
    loaders = task.make_loaders(WORLD.world_size, seed=seed)
    return trainer.train(loaders, task.loss_fn, epochs=epochs).epoch_losses


class TestConfigInvariance:
    """O/F/H are performance switches: numerics must not change (for exact
    algorithms) or must stay convergent (for relaxed ones)."""

    def test_allreduce_identical_under_all_configs(self):
        reference = losses_for(AllreduceSGD(), CONFIGS[0])
        for config in CONFIGS[1:]:
            np.testing.assert_allclose(
                losses_for(AllreduceSGD(), config), reference, atol=1e-9
            )

    def test_qsgd_converges_under_all_configs(self):
        for config in CONFIGS:
            losses = losses_for(QSGD(), config)
            assert losses[-1] < losses[0], config.describe()

    @pytest.mark.parametrize(
        "name",
        ["decentralized", "decentralized-8bit", "async", "local-sgd",
         "qsparse-local-sgd"],
    )
    def test_all_algorithms_run_hierarchical(self, name):
        config = BaguaConfig(hierarchical=True)
        losses = losses_for(make_algorithm(name), config)
        assert np.isfinite(losses[-1])
        assert losses[-1] < losses[0] * 2  # no explosion

    def test_unflattened_buckets_update_weights(self):
        # Regression guard: with one tensor per bucket (F off), optimizer
        # results must still land in parameter storage.
        config = BaguaConfig(flatten=False)
        task = get_task("VGG16")
        trainer = DistributedTrainer(
            WORLD, task.model_factory, task.make_optimizer, AllreduceSGD(),
            config=config, seed=0,
        )
        loaders = task.make_loaders(WORLD.world_size, seed=0)
        before = trainer.engine.workers[0].model.state_dict()
        trainer.train(loaders, task.loss_fn, epochs=1)
        after = trainer.engine.workers[0].model.state_dict()
        changed = any(
            not np.array_equal(before[k], after[k]) for k in before
        )
        assert changed
