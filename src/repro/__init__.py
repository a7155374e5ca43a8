"""repro — a from-scratch reproduction of BAGUA (VLDB 2021).

BAGUA is a communication framework for distributed data-parallel training
built around *system relaxations*: communication compression, decentralized
communication, and asynchronization.  This package rebuilds the whole system
in pure Python/numpy:

* :mod:`repro.tensor` — numpy autograd + NN substrate (PyTorch stand-in);
* :mod:`repro.cluster` — simulated multi-node/multi-GPU cluster with an
  alpha-beta network model;
* :mod:`repro.comm` — NCCL-style collectives built from send/recv rounds;
* :mod:`repro.compression` — QSGD, 1-bit, top-K, fp16, ... codecs and
  error feedback;
* :mod:`repro.core` — BAGUA's primitives (C_FP_S / C_LP_S / D_FP_S /
  D_LP_S), the execution optimizer (overlap / fusion / hierarchy), and the
  engine;
* :mod:`repro.algorithms` — the algorithm zoo (Allreduce, QSGD, 1-bit Adam,
  decentralized 32/8-bit, Async, LocalSGD);
* :mod:`repro.baselines` — PyTorch-DDP, Horovod, BytePS re-implementations;
* :mod:`repro.simulation` — timing mode reproducing the paper's epoch-time
  tables; :mod:`repro.training` — functional mode reproducing convergence;
* :mod:`repro.experiments` — one module per table/figure of the evaluation.

Quickstart::

    from repro.cluster import ClusterSpec
    from repro.training import DistributedTrainer, get_task
    from repro.algorithms import QSGD

    task = get_task("VGG16")
    cluster = ClusterSpec(num_nodes=2, workers_per_node=4)
    trainer = DistributedTrainer(
        cluster, task.model_factory, task.make_optimizer, QSGD()
    )
    record = trainer.train(
        task.make_loaders(cluster.world_size), task.loss_fn, epochs=5
    )
"""

__version__ = "0.1.0"

# ``core`` goes first: its package import reaches ``algorithms.registry``
# through the tuner and timing mode (core.autotune -> simulation.systems),
# which only resolves while no algorithm module is itself mid-import.
from . import core  # noqa: F401
from . import (  # noqa: F401  (re-exported subpackages)
    algorithms,
    analysis,
    baselines,
    cluster,
    comm,
    compression,
    data,
    experiments,
    models,
    simulation,
    tensor,
    training,
)

__all__ = [
    "tensor",
    "cluster",
    "comm",
    "compression",
    "core",
    "algorithms",
    "analysis",
    "baselines",
    "models",
    "data",
    "simulation",
    "training",
    "experiments",
    "__version__",
]
