"""Standard synchronous DP-SG via the C_FP_S primitive ("BAGUA AllReduce")."""

from __future__ import annotations

from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_fp_s


class AllreduceSGD(Algorithm):
    """Textbook data-parallel SGD: average gradients, then step.

    Each bucket's gradients are summed across workers with the centralized
    full-precision primitive and divided by the world size the moment the
    bucket is ready, after which each worker steps its optimizer on that
    bucket alone — replicas stay bit-identical, and the scheduler can
    overlap bucket k's reduction with the backward of earlier layers.
    """

    name = "allreduce"

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        n = engine.world_size
        grads = engine.grads_of_bucket(k)
        summed = c_fp_s(grads, engine.group, hierarchical=engine.hierarchical, out=grads)
        # The sum landed in the rows it was read from — the workers' gradient
        # buffers when flattened — so each is averaged in place, (re)bound as
        # the worker's gradient and stepped on as is.
        for worker, grad in zip(engine.workers, summed):
            grad /= n
            worker.buckets[k].set_flat_grad(grad)
            worker.optimizer_step_on_bucket(k, grad)
