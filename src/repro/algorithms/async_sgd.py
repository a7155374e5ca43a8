"""Asynchronous centralized DP-SG ("Async" in the paper's evaluation).

BAGUA builds asynchronous algorithms from synchronous primitives by running
communication on a separate thread that does not wait for computation
(paper §3.2, "Supporting Asynchronous Algorithms").  In the lock-step
simulation the same semantics appear as a serialized parameter server:

* a master copy of the weights lives on rank 0's node;
* each step, workers push their local gradients one at a time (the push
  order rotates so no worker is permanently first);
* a worker pulls the master weights *immediately after its own push* — so it
  observes the pushes of workers earlier in the round but not later ones.

Workers therefore compute gradients on mutually inconsistent, slightly stale
models — the defining property of async SGD, and the source of the
convergence gap Figure 6 shows on BERT-LARGE.  ``pull_interval > 1``
increases staleness: workers then refresh their model only every few steps.
"""

from __future__ import annotations


import numpy as np

from ..cluster.transport import Message
from ..core.engine import Algorithm, BaguaEngine


class AsyncSGD(Algorithm):
    name = "async"
    asynchronous = True

    def __init__(
        self,
        lr: float | None = None,
        pull_interval: int = 1,
        scale_by_world: bool = True,
    ) -> None:
        if pull_interval < 1:
            raise ValueError(f"pull_interval must be >= 1, got {pull_interval}")
        self.lr = lr
        self.pull_interval = pull_interval
        # Every worker's gradient is applied individually, so the server step
        # is scaled by 1/n to keep the per-sample learning rate comparable to
        # the synchronous algorithms (standard practice for async SGD).
        self.scale_by_world = scale_by_world

    def setup(self, engine: BaguaEngine) -> None:
        # Master weights start as the shared initial model.
        self._server: list[np.ndarray] = [
            b.flat_data().copy() for b in engine.workers[0].buckets
        ]
        if self.lr is None:
            lr = getattr(engine.workers[0].optimizer, "lr", None)
            if lr is None:
                raise ValueError(
                    f"{type(self).__name__} needs lr (none given, optimizer has no .lr)"
                )
            self.lr = float(lr)
        if self.scale_by_world:
            self.lr /= engine.world_size
        self._server_rank = engine.group.ranks[0]

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        # Server bucket states are independent, so the per-worker rotation
        # replays per bucket with identical staleness: a worker's pull of
        # bucket k still observes exactly the earlier workers' pushes of
        # bucket k this round.
        n = engine.world_size
        group = engine.group
        order = [(step + i) % n for i in range(n)]

        for i in order:
            worker = engine.workers[i]
            g = worker.buckets[k].flat_grad()
            # Push: gradient travels to the server host (no-op for rank 0).
            if worker.rank != self._server_rank:
                group.transport.exchange(
                    [Message(worker.rank, self._server_rank, g)]
                )
            self._server[k] -= self.lr * g
            # Pull: only every pull_interval steps; stale in between.
            if step % self.pull_interval == 0:
                snapshot = self._server[k].copy()
                if worker.rank != self._server_rank:
                    group.transport.exchange(
                        [Message(self._server_rank, worker.rank, snapshot)]
                    )
                worker.buckets[k].set_flat_data(snapshot)
