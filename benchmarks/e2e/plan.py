"""What the benchmark runs: the workloads and how long a run measures.

Imports nothing heavy, so that ``run.py`` can read the plan without paying
for (or depending on) ``repro`` and numpy; the workload subprocess imports
those after its set-up clock has started.

Load shape: closed loop, one client.  A run issues ops for ``--seconds``
seconds (and at least ``min_ops`` of them); every timing metric is a
per-op statistic, so the number of ops a run fits in does not enter it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``run_seconds`` of BENCHMARK.json, and the default of ``--seconds``
RUN_SECONDS = 30
SMOKE_OPS = 12
WARMUP_STEPS = 5
#: steps the oracle replays: the profiling iteration and four more
ORACLE_STEPS = 5
#: cells of one ``sim_tables`` sweep (2 networks x 5 models x 6 systems); a
#: smoke run sweeps the first ``SMOKE_OPS // 2`` of them, twice
SIM_CELLS = 60


@dataclass(frozen=True)
class TrainJob:
    """One functional-mode training job; ``task=None`` is the wide MLP."""

    task: str | None
    algorithm: str
    backend: str
    nodes: int
    workers_per_node: int
    hierarchical: bool = False
    #: synchronous centralized algorithms keep replicas bit-identical;
    #: decentralized and asynchronous ones legitimately do not
    replicas_identical: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    #: ops a full run issues at least, however slow the box is: enough for
    #: the loss check's windows and, on ``sim_tables``, two whole sweeps
    min_ops: int
    samples_per_op: int
    job: TrainJob | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_compute", 40, 64, TrainJob("VGG16", "allreduce", "batched", 1, 4, replicas_identical=True)),
        Workload("train_comm_lp", 40, 16, TrainJob(None, "qsgd", "batched", 2, 4, hierarchical=True, replicas_identical=True)),
        Workload("train_gossip_fp", 40, 8, TrainJob(None, "decentralized", "batched", 1, 4)),
        Workload("train_shm_async", 40, 4, TrainJob(None, "async", "shm", 1, 2)),
        Workload("sim_tables", 2 * SIM_CELLS, 1, None),
    )
}
