"""Vanilla DP-SG (Figure 2, "Vanilla"): per-tensor allreduce, no overlap.

Numerically identical to synchronous allreduce SGD; its role is the timing
baseline every optimized system improves on.  In functional mode it runs
ring allreduce per parameter tensor, which also exercises the unfused code
path end to end.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..comm.collectives import ring_allreduce
from ..core.engine import Algorithm, BaguaEngine


class RingAllreduceBaseline(Algorithm):
    """What Vanilla, PyTorch-DDP and Horovod all do in functional mode.

    Each bucket's gradients are ring-allreduced and averaged in ready order
    (overlapping backward where the system's timing profile allows it); the
    three differ in those profiles only (:mod:`repro.simulation.systems`).
    Every rank gets the ring's same sum, so the replicas stay bit-identical
    and share one weight copy and one optimizer, stepped once.
    """

    # One optimizer step after all communication: DDP / Horovod semantics,
    # and what makes Vanilla the unoptimized baseline.
    update_mode = "barrier"
    replicas_identical = True

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        self.allreduce_mean(engine, k, engine.grads_of_bucket(k))

    def allreduce_mean(self, engine: BaguaEngine, k: int, grads: Sequence[np.ndarray]) -> None:
        n = engine.world_size
        summed = ring_allreduce(grads, engine.group)
        engine.set_grads_of_bucket(k, [s / n for s in summed])

    def on_step_end(self, engine: BaguaEngine, step: int) -> None:
        engine.update_replicas()


class VanillaDPSG(RingAllreduceBaseline):
    name = "vanilla"
