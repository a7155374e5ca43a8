"""Composed asynchronous relaxations (Table 1's starred BAGUA cells).

The paper's Table 1 credits BAGUA with asynchronous *low-precision*
centralized training ("Async + QSGD") and asynchronous *decentralized*
training ("Async + decentralized"), both built by composing the synchronous
primitives with a non-blocking communication loop (§3.2).  These classes
make the compositions concrete in the lock-step simulation:

* :class:`AsyncQSGD` — the serialized parameter server of
  :class:`~repro.algorithms.async_sgd.AsyncSGD`, but pushes travel
  quantized: workers upload ``Q(g)`` and download quantized model deltas,
  cutting async traffic the same 4x as sync QSGD.
* :class:`AsyncDecentralizedSGD` — gossip against *stale snapshots*: every
  worker publishes its weights to a mailbox every ``publish_interval``
  steps and averages with a random peer's last published (possibly old)
  snapshot, never blocking on the peer's progress.
"""

from __future__ import annotations


import numpy as np

from ..cluster.transport import Message
from ..compression.base import Compressor
from ..compression.qsgd import QSGDCompressor
from ..core.engine import Algorithm, BaguaEngine
from .async_sgd import AsyncSGD


class AsyncQSGD(AsyncSGD):
    """Asynchronous centralized DP-SG with quantized pushes and pulls.

    :class:`AsyncSGD`'s server (master copy on rank 0's node, ``lr``
    resolution, ``1/n`` scaling) with a codec on both directions.
    """

    name = "async-qsgd"

    def __init__(
        self,
        lr: float | None = None,
        bits: int = 8,
        compressor: Compressor | None = None,
        scale_by_world: bool = True,
    ) -> None:
        super().__init__(lr=lr, scale_by_world=scale_by_world)
        self.compressor = compressor or QSGDCompressor(bits=bits)

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        group = engine.group
        n = engine.world_size
        order = [(step + i) % n for i in range(n)]
        for i in order:
            worker = engine.workers[i]
            bucket = worker.buckets[k]
            # Push: quantized gradient (wire size = compressed size).
            payload = self.compressor.compress(bucket.flat_grad())
            if worker.rank != self._server_rank:
                group.transport.exchange(
                    [Message(worker.rank, self._server_rank, payload)]
                )
            self._server[k] -= self.lr * self.compressor.decompress(payload)
            # Pull: quantized model *delta* against the worker's current copy
            # (absolute weights do not survive aggressive quantization).
            delta = self.compressor.compress(self._server[k] - bucket.flat_data())
            if worker.rank != self._server_rank:
                group.transport.exchange(
                    [Message(self._server_rank, worker.rank, delta)]
                )
            bucket.set_flat_data(bucket.flat_data() + self.compressor.decompress(delta))


class AsyncDecentralizedSGD(Algorithm):
    """Gossip averaging against stale published snapshots (no blocking)."""

    name = "async-decentralized"
    asynchronous = True
    topology = "random"

    def __init__(self, publish_interval: int = 1, seed: int = 0) -> None:
        if publish_interval < 1:
            raise ValueError(f"publish_interval must be >= 1, got {publish_interval}")
        self.publish_interval = publish_interval
        self.seed = seed

    def setup(self, engine: BaguaEngine) -> None:
        # mailbox[i][k] = worker i's last published weights for bucket k.
        self._mailbox: list[list[np.ndarray]] = [
            [b.flat_data().copy() for b in worker.buckets]
            for worker in engine.workers
        ]

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        n = engine.world_size
        group = engine.group

        # Local optimizer step — never waits for anyone.
        for worker in engine.workers:
            worker.optimizer_step_on_bucket(k)

        # Publish (possibly stale from then on) this bucket's snapshot.
        if step % self.publish_interval == 0:
            for i, worker in enumerate(engine.workers):
                self._mailbox[i][k] = worker.buckets[k].flat_data().copy()

        # Each worker averages with one random peer's published snapshot;
        # the permutation is seeded by the step, so every bucket of one
        # iteration pairs with the same peer.
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, step]))
        peers = rng.permutation(n)
        messages = []
        for i in range(n):
            j = int(peers[i])
            if j != i:
                messages.append(
                    Message(group.ranks[j], group.ranks[i], self._mailbox[j][k])
                )
        if messages:
            group.transport.exchange(messages)
        for i in range(n):
            j = int(peers[i])
            if j == i:
                continue
            bucket = engine.workers[i].buckets[k]
            buf = bucket.flat_data()
            np.add(buf, self._mailbox[j][k], out=buf)
            buf *= 0.5
            bucket.set_flat_data(buf)
