"""Sharded parameter-server substrate (the PS half of Figure 1).

The model is partitioned into one shard per server; servers live on distinct
nodes (rank 0 of each node doubles as the server host, mirroring co-located
BytePS deployments).  Workers ``push`` gradient shards which the server
aggregates — optionally applying a server-side optimizer state, the thing the
paper notes plain put/get PS abstractions struggle to express — and ``pull``
fresh parameter shards.  All traffic moves through the simulated transport,
so PS byte counts and times are directly comparable with collectives.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..cluster.transport import Message, Transport
from ..comm.chunking import chunk_bounds
from ..comm.group import CommGroup
from ..tensor.tensor import DTYPE


class ShardedParameterServer:
    """Parameter shards distributed over one server per node."""

    def __init__(self, group: CommGroup, initial: np.ndarray) -> None:
        self.group = group
        self.server_ranks = [sub.ranks[0] for sub in group.node_subgroups()]
        self.num_shards = len(self.server_ranks)
        self._bounds = chunk_bounds(initial.shape[0], self.num_shards)
        self.total_elements = initial.shape[0]
        # shard index -> parameter slice held by that server
        self.shards: list[np.ndarray] = [
            initial[lo:hi].astype(DTYPE, copy=True) for lo, hi in self._bounds
        ]
        # Arbitrary per-shard server state (error compensation, momentum, ...)
        self.server_state: list[dict] = [{} for _ in range(self.num_shards)]

    @property
    def transport(self) -> Transport:
        return self.group.transport

    def parameters(self) -> np.ndarray:
        """Current full parameter vector (concatenated shards)."""
        return np.concatenate(self.shards)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _shard_messages(self, src: int, payload_per_shard: Sequence) -> list[Message]:
        return [
            Message(src, server, payload)
            for server, payload in zip(self.server_ranks, payload_per_shard)
            if server != src
        ]

    def push_gradients(
        self,
        worker_rank: int,
        gradient: np.ndarray,
        apply_fn: Callable[[int, np.ndarray, dict], None] | None = None,
    ) -> None:
        """Send ``gradient`` sharded to the servers and apply it.

        ``apply_fn(shard_index, grad_shard, server_state)`` customizes the
        server-side update (defaults to accumulating into ``state['acc']``).
        """
        if gradient.shape[0] != self.total_elements:
            raise ValueError(
                f"gradient has {gradient.shape[0]} elements, server holds {self.total_elements}"
            )
        shards = [gradient[lo:hi] for lo, hi in self._bounds]
        messages = self._shard_messages(worker_rank, shards)
        if messages:
            self.transport.exchange(messages)
        for shard_index, grad_shard in enumerate(shards):
            state = self.server_state[shard_index]
            if apply_fn is not None:
                apply_fn(shard_index, grad_shard, state)
            else:
                if "acc" not in state:
                    state["acc"] = np.zeros_like(self.shards[shard_index])
                state["acc"] += grad_shard

    def apply_accumulated(self, update_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
        """Fold accumulated gradients into the shards and clear accumulators.

        ``update_fn(params, grad_sum) -> new_params`` runs per shard.
        """
        for shard_index, shard in enumerate(self.shards):
            state = self.server_state[shard_index]
            acc = state.pop("acc", None)
            if acc is not None:
                self.shards[shard_index] = update_fn(shard, acc)

    def pull_parameters(self, worker_rank: int) -> np.ndarray:
        """Fetch the full parameter vector to ``worker_rank``."""
        messages = [
            Message(server, worker_rank, self.shards[i])
            for i, server in enumerate(self.server_ranks)
            if server != worker_rank
        ]
        if messages:
            self.transport.exchange(messages)
        return self.parameters()
