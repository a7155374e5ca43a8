"""QSGD: 8-bit quantized synchronous DP-SG via C_LP_S (no error compensation).

Matches the paper's configuration: "QSGD [4], a quantized (8-bit) DP-SG
algorithm, implemented with C_LP_S primitive without error compensation."
QSGD's stochastic rounding is unbiased, so no residual state is needed.
Every worker decodes the same averaged row, so the replicas stay
bit-identical: it declares ``replicas_identical``, and they share one copy of
the weights and optimizer state.
"""

from __future__ import annotations

from ..compression.base import Compressor
from ..compression.qsgd import QSGDCompressor
from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_lp_s


class QSGD(Algorithm):
    name = "qsgd"
    replicas_identical = True

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
        # buffers: each is (re)bound as is, and the one shared copy of the
        # weights steps on it once.
        engine.step_on_average(k, averaged)
