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

import importlib
from types import ModuleType
from typing import TYPE_CHECKING

__version__ = "0.1.0"

# Subpackages load when first named (PEP 562), so a training job never
# compiles the analyzer, the experiments or the baselines.  No import order
# is needed: ``repro.core`` exports the tuner lazily as well, which removed
# the ``simulation -> core -> core.autotune -> simulation`` cycle (and its
# twin through ``algorithms.registry``) that once forced ``core`` first.
if TYPE_CHECKING:
    from . import (
        algorithms,
        analysis,
        baselines,
        cluster,
        comm,
        compression,
        core,
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


def __getattr__(name: str) -> ModuleType:
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
