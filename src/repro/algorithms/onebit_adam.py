"""1-bit Adam (Tang et al., 2021; paper ref [79]) via C_LP_S + error feedback.

Two stages, as in the original algorithm:

* **Warmup** (full precision): vanilla Adam on allreduce-averaged gradients
  while the second-moment estimate ``v`` stabilizes.
* **Compression stage**: ``v`` is frozen and acts as a fixed diagonal
  preconditioner; workers update their *momentum* locally and synchronize it
  through the error-compensated 1-bit C_LP_S primitive.  Both compression
  sides (worker chunks and merged partitions) carry residual state — exactly
  the delta/epsilon pair of the paper's C_LP_S semantics.

The algorithm owns its Adam state directly (the engine's optimizer is not
used) because the compression applies to the momentum, not the gradient.
"""

from __future__ import annotations


import numpy as np

from ..compression.error_feedback import ErrorFeedback
from ..compression.onebit import OneBitCompressor
from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import c_fp_s, c_lp_s
from ..tensor.tensor import DTYPE


class OneBitAdam(Algorithm):
    name = "1bit-adam"
    error_feedback = True

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        warmup_steps: int = 20,
    ) -> None:
        if warmup_steps < 1:
            raise ValueError("1-bit Adam needs at least one warmup step to estimate v")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.warmup_steps = warmup_steps
        self.compressor = OneBitCompressor()

    def setup(self, engine: BaguaEngine) -> None:
        num_buckets = engine.num_buckets
        for worker in engine.workers:
            worker.state["m"] = [np.zeros(b.total_elements, DTYPE) for b in worker.buckets]
            worker.state["v"] = [np.zeros(b.total_elements, DTYPE) for b in worker.buckets]
            # Residual stores are per bucket: chunk keys repeat across buckets.
            worker.state["worker_ef"] = [
                ErrorFeedback(self.compressor) for _ in range(num_buckets)
            ]
            worker.state["server_ef"] = [
                ErrorFeedback(self.compressor) for _ in range(num_buckets)
            ]
        self._t = 0

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        # Adam's step count advances once per iteration regardless of how
        # many buckets carry it (the engine calls every bucket every step).
        self._t = step + 1
        if step < self.warmup_steps:
            self._warmup_bucket(engine, k)
        else:
            self._compressed_bucket(engine, k)

    # ------------------------------------------------------------------
    def _warmup_bucket(self, engine: BaguaEngine, k: int) -> None:
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        grads = engine.grads_of_bucket(k)
        averaged = c_fp_s(grads, engine.group, hierarchical=engine.hierarchical, average=True)
        for worker, g in zip(engine.workers, averaged):
            m = worker.state["m"][k]
            v = worker.state["v"][k]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            x = worker.buckets[k].flat_data()
            x -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def _compressed_bucket(self, engine: BaguaEngine, k: int) -> None:
        worker_efs = [w.state["worker_ef"][k] for w in engine.workers]
        server_efs = [w.state["server_ef"][k] for w in engine.workers]
        # Local momentum update with the *local* gradient.
        locals_m: list[np.ndarray] = []
        for worker in engine.workers:
            g = worker.buckets[k].flat_grad()
            m = worker.state["m"][k]
            m *= self.beta1
            m += (1 - self.beta1) * g
            locals_m.append(m.copy())
        # Error-compensated 1-bit aggregation of momentum.
        averaged = c_lp_s(
            locals_m,
            engine.group,
            compressor=self.compressor,
            worker_errors=worker_efs,
            server_errors=server_efs,
            hierarchical=engine.hierarchical,
            average=True,
        )
        for worker, m_avg in zip(engine.workers, averaged):
            # Workers adopt the synchronized momentum so replicas track.
            worker.state["m"][k][...] = m_avg
            v = worker.state["v"][k]  # frozen preconditioner
            x = worker.buckets[k].flat_data()
            x -= self.lr * m_avg / (np.sqrt(v) + self.eps)
