"""Qsparse-local-SGD (Basu et al., 2019; paper ref [76]).

The paper's related work highlights "approaches that combine multiple
strategies": Qsparse-local-SGD composes all three relaxations at once —
communication *delay* (local steps), *sparsification + quantization* of
what finally travels, and error feedback to keep the composition
convergent.  Concretely:

* run ``frequency`` purely local optimizer steps;
* at each synchronization point, communicate the compressed (top-K of the
  quantized) *model delta since the last sync* through the
  error-compensated C_LP_S primitive;
* apply the averaged delta to the last synchronized state.

This is also a stress test of the primitive layer: one algorithm touching
every relaxation axis through the same public API.
"""

from __future__ import annotations


import numpy as np

from ..compression.error_feedback import ErrorFeedback
from ..compression.topk import TopKCompressor
from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_lp_s


class QSparseLocalSGD(Algorithm):
    name = "qsparse-local-sgd"
    error_feedback = True

    def __init__(self, frequency: int = 2, ratio: float = 0.05) -> None:
        if frequency < 1:
            raise ValueError(f"frequency must be >= 1, got {frequency}")
        self.frequency = frequency
        self.compressor = TopKCompressor(ratio=ratio)

    def setup(self, engine: BaguaEngine) -> None:
        for worker in engine.workers:
            # The last globally synchronized model, per bucket.
            worker.state["anchor"] = [b.flat_data().copy() for b in worker.buckets]
            worker.state["worker_ef"] = [
                ErrorFeedback(self.compressor) for _ in worker.buckets
            ]
            worker.state["server_ef"] = [
                ErrorFeedback(self.compressor) for _ in worker.buckets
            ]

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        for worker in engine.workers:
            worker.optimizer_step_on_bucket(k)
        if (step + 1) % self.frequency != 0:
            return

        # Deltas accumulated since the last synchronization.
        deltas: list[np.ndarray] = []
        for worker in engine.workers:
            deltas.append(worker.buckets[k].flat_data() - worker.state["anchor"][k])
        averaged = c_lp_s(
            deltas,
            engine.group,
            compressor=self.compressor,
            worker_errors=[w.state["worker_ef"][k] for w in engine.workers],
            server_errors=[w.state["server_ef"][k] for w in engine.workers],
            hierarchical=engine.hierarchical,
            average=True,
        )
        for worker, mean in zip(engine.workers, averaged):
            new_anchor = worker.state["anchor"][k] + mean
            worker.state["anchor"][k] = new_anchor
            worker.buckets[k].set_flat_data(new_anchor.copy())
