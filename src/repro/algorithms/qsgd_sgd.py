"""QSGD: 8-bit quantized synchronous DP-SG via C_LP_S (no error compensation).

Matches the paper's configuration: "QSGD [4], a quantized (8-bit) DP-SG
algorithm, implemented with C_LP_S primitive without error compensation."
QSGD's stochastic rounding is unbiased, so no residual state is needed.
"""

from __future__ import annotations


from ..compression.base import Compressor
from ..compression.qsgd import QSGDCompressor
from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_lp_s


class QSGD(Algorithm):
    name = "qsgd"

    def __init__(self, bits: int = 8, compressor: Compressor | None = None) -> None:
        self.compressor = compressor or QSGDCompressor(bits=bits)

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        grads = engine.grads_of_bucket(k)
        averaged = c_lp_s(
            grads,
            engine.group,
            compressor=self.compressor,
            hierarchical=engine.hierarchical,
            out=grads,
            average=True,
        )
        # The average landed in the rows it was read from, the workers' gradient
        # buffers: each is (re)bound as is and stepped on.
        for worker, grad in zip(engine.workers, averaged):
            worker.buckets[k].set_flat_grad(grad)
            worker.optimizer_step_on_bucket(k, grad)
