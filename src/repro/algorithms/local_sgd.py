"""LocalSGD (refs [19-22]): the communication-delay relaxation.

Workers run ``frequency`` purely local optimizer steps between model
averagings; the averaging itself is a full-precision centralized sum of the
*weights* over C_FP_S.  The paper lists LocalSGD/model averaging as
implementable on BAGUA's synchronous primitives (§3.2), so it is included as
the communication-delay member of the relaxation taxonomy.
"""

from __future__ import annotations

from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_fp_s


class LocalSGD(Algorithm):
    name = "local-sgd"

    def __init__(self, frequency: int = 4) -> None:
        if frequency < 1:
            raise ValueError(f"frequency must be >= 1, got {frequency}")
        self.frequency = frequency

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        for worker in engine.workers:
            worker.optimizer_step_on_bucket(k)
        if (step + 1) % self.frequency != 0:
            return
        weights = engine.weights_of_bucket(k)
        engine.set_weights_of_bucket(
            k, c_fp_s(weights, engine.group, hierarchical=engine.hierarchical, average=True)
        )
