"""Standard synchronous DP-SG via the C_FP_S primitive ("BAGUA AllReduce")."""

from __future__ import annotations

from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_fp_s


class AllreduceSGD(Algorithm):
    """Textbook data-parallel SGD: average gradients, then step.

    Each bucket's gradients are averaged across workers with the centralized
    full-precision primitive the moment the bucket is ready, after which each
    worker steps its optimizer on that bucket alone — replicas stay
    bit-identical, and the scheduler can overlap bucket k's reduction with
    the backward of earlier layers.
    """

    name = "allreduce"

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        grads = engine.grads_of_bucket(k)
        averaged = c_fp_s(
            grads, engine.group, hierarchical=engine.hierarchical, out=grads, average=True
        )
        # The average landed in the rows it was read from, the workers' gradient
        # buffers: each is (re)bound as is and stepped on.
        for worker, grad in zip(engine.workers, averaged):
            worker.buckets[k].set_flat_grad(grad)
            worker.optimizer_step_on_bucket(k, grad)
