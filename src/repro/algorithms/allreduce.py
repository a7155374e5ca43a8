"""Standard synchronous DP-SG via the C_FP_S primitive ("BAGUA AllReduce")."""

from __future__ import annotations

from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_fp_s


class AllreduceSGD(Algorithm):
    """Textbook data-parallel SGD: average gradients, then step.

    Each bucket's gradients are averaged across workers with the centralized
    full-precision primitive the moment the bucket is ready, after which the
    optimizer steps on that bucket alone — the scheduler can overlap bucket
    k's reduction with the backward of earlier layers.  Every worker gets the
    same averaged row, so the replicas stay bit-identical: it declares
    ``replicas_identical``, and they share one copy of the weights and of the
    optimizer state, stepped once per bucket.
    """

    name = "allreduce"
    replicas_identical = True

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        grads = engine.grads_of_bucket(k)
        averaged = c_fp_s(
            grads, engine.group, hierarchical=engine.hierarchical, out=grads, average=True
        )
        # The average landed in the rows it was read from, the workers' gradient
        # buffers: each is (re)bound as is, and the one shared copy of the
        # weights steps on it once.
        engine.step_on_average(k, averaged)
