"""Algorithm registry and the Table 1 support matrix.

Maps names to factories and records each algorithm's position in the paper's
taxonomy (synchronization x precision x centralization), which regenerates
Table 1's BAGUA column and documents what the competing systems support.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..core.engine import Algorithm
from .allreduce import AllreduceSGD
from .async_compositions import AsyncDecentralizedSGD, AsyncQSGD
from .async_sgd import AsyncSGD
from .decentralized import DecentralizedSGD
from .decentralized_lp import LowPrecisionDecentralizedSGD
from .local_sgd import LocalSGD
from .onebit_adam import OneBitAdam
from .qsgd_sgd import QSGD
from .qsparse_local_sgd import QSparseLocalSGD

ALGORITHM_REGISTRY: dict[str, Callable[..., Algorithm]] = {
    "allreduce": AllreduceSGD,
    "qsgd": QSGD,
    "1bit-adam": OneBitAdam,
    "decentralized": DecentralizedSGD,
    "decentralized-8bit": LowPrecisionDecentralizedSGD,
    "async": AsyncSGD,
    "local-sgd": LocalSGD,
    "async-qsgd": AsyncQSGD,
    "async-decentralized": AsyncDecentralizedSGD,
    "qsparse-local-sgd": QSparseLocalSGD,
}

#: The six algorithms the paper evaluates end to end (§4.1): what timing
#: mode prices (:func:`repro.simulation.systems.bagua_system`, which models
#: neither ``frequency`` nor ``warmup_steps`` and so refuses every other
#: name) and what the auto-tuner ranks (:data:`repro.core.autotune.CANDIDATES`).
EVALUATED_ALGORITHMS: tuple[str, ...] = (
    "allreduce",
    "qsgd",
    "1bit-adam",
    "decentralized",
    "decentralized-8bit",
    "async",
)


def make_algorithm(name: str, **kwargs) -> Algorithm:
    if name not in ALGORITHM_REGISTRY:
        raise KeyError(f"unknown algorithm {name!r}; options: {sorted(ALGORITHM_REGISTRY)}")
    return ALGORITHM_REGISTRY[name](**kwargs)


@dataclass(frozen=True)
class RelaxationProfile:
    """One row of Table 1: a (sync, precision, centralization) combination."""

    synchronization: str  # "sync" | "async"
    precision: str  # "full" | "low"
    centralization: str  # "centralized" | "decentralized"
    pytorch_ddp: bool
    horovod: bool
    byteps: bool
    bagua: bool
    bagua_algorithm: str = ""


# The eight combinations of Table 1 and which system supports each.
SUPPORT_MATRIX: list[RelaxationProfile] = [
    RelaxationProfile("sync", "full", "centralized", True, True, True, True, "allreduce"),
    RelaxationProfile("sync", "full", "decentralized", False, False, False, True, "decentralized"),
    RelaxationProfile("sync", "low", "centralized", True, True, True, True, "qsgd / 1bit-adam"),
    RelaxationProfile("sync", "low", "decentralized", False, False, False, True, "decentralized-8bit"),
    RelaxationProfile("async", "full", "centralized", False, False, True, True, "async"),
    RelaxationProfile("async", "full", "decentralized", False, False, False, True, "async-decentralized"),
    RelaxationProfile("async", "low", "centralized", False, False, False, True, "async-qsgd"),
    RelaxationProfile("async", "low", "decentralized", False, False, False, False, ""),
]


def support_matrix_rows() -> list[dict]:
    """Table 1 as dictionaries, for rendering and tests."""
    return [
        {
            "sync": p.synchronization,
            "precision": p.precision,
            "centralization": p.centralization,
            "PyTorch-DDP": p.pytorch_ddp,
            "Horovod": p.horovod,
            "BytePS": p.byteps,
            "BAGUA": p.bagua,
            "algorithm": p.bagua_algorithm,
        }
        for p in SUPPORT_MATRIX
    ]
