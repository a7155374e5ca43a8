"""BytePS baseline (Jiang et al., OSDI 2020; paper ref [29]).

System strategy: parameters are partitioned into equal chunks spread over
parameter servers (one per node here); workers push gradient chunks as they
become ready and pull updated chunks, with a priority scheduler that favours
chunks blocking the next forward pass.  Synchronous mode aggregates all
workers' pushes before the pull; asynchronous mode applies each worker's
push to the server state immediately (the paper's Table 1 credits BytePS
with async centralized full-precision support).

Functionally, sync BytePS is exact gradient averaging — same convergence as
allreduce, and every worker pulls the same average, so its replicas stay
bit-identical and share one weight copy and one optimizer; async BytePS
exhibits bounded staleness like :class:`~repro.algorithms.async_sgd.AsyncSGD`,
and its replicas differ.
"""

from __future__ import annotations


import numpy as np

from ..core.engine import Algorithm, BaguaEngine
from .parameter_server import ShardedParameterServer


class BytePS(Algorithm):
    def __init__(self, asynchronous: bool = False, lr: float | None = None) -> None:
        self.asynchronous = asynchronous
        self.name = "byteps-async" if asynchronous else "byteps"
        # Sync mode steps the optimizer once after all pulls (worker-side
        # optimizer, server only aggregates); async applies pushes in place.
        self.update_mode = "per_bucket" if asynchronous else "barrier"
        self.replicas_identical = not asynchronous
        self.lr = lr

    def setup(self, engine: BaguaEngine) -> None:
        self._servers: list[ShardedParameterServer] = [
            ShardedParameterServer(engine.group, bucket.flat_data())
            for bucket in engine.workers[0].buckets
        ]
        if self.asynchronous and self.lr is None:
            lr = getattr(engine.workers[0].optimizer, "lr", None)
            if lr is None:
                raise ValueError("async BytePS needs lr (optimizer exposes none)")
            # Per-push application: scale by 1/n to keep the per-sample
            # learning rate aligned with synchronous averaging.
            self.lr = float(lr) / engine.world_size

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        if self.asynchronous:
            self._async_bucket(engine, k, step)
        else:
            self._sync_bucket(engine, k)

    def on_step_end(self, engine: BaguaEngine, step: int) -> None:
        if self.asynchronous:
            return
        engine.update_replicas()
        # Keep server shards in sync with the (identical) worker replicas.
        for k, server in enumerate(self._servers):
            flat = engine.workers[0].buckets[k].flat_data()
            for i, (lo, hi) in enumerate(server._bounds):
                server.shards[i][...] = flat[lo:hi]

    # ------------------------------------------------------------------
    def _sync_bucket(self, engine: BaguaEngine, k: int) -> None:
        n = engine.world_size
        server = self._servers[k]
        for worker in engine.workers:
            server.push_gradients(worker.rank, worker.buckets[k].flat_grad())
        # Server holds the summed gradient; workers pull it and average.
        # (Parameters update on the workers: BytePS keeps the optimizer
        # worker-side in its default configuration.)
        grads = [shard_state.pop("acc") for shard_state in server.server_state]
        full = np.concatenate(grads) / n
        for worker in engine.workers:
            server.pull_parameters(worker.rank)  # traffic accounting
            worker.buckets[k].set_flat_grad(full)

    def _async_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        n = engine.world_size
        server = self._servers[k]
        order = [(step + i) % n for i in range(n)]
        for i in order:
            worker = engine.workers[i]
            grad = worker.buckets[k].flat_grad()

            def apply_now(shard_index: int, grad_shard: np.ndarray, _state: dict) -> None:
                server.shards[shard_index] -= self.lr * grad_shard

            server.push_gradients(worker.rank, grad, apply_fn=apply_now)
            worker.buckets[k].set_flat_data(server.pull_parameters(worker.rank))
