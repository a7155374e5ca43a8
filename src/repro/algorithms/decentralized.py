"""Decen-32bits: decentralized full-precision SGD via D_FP_S.

Matches the paper's "decentralized training algorithm with the random probing
method to exchange the model parameters in each iteration" (ref [15]'s
D-PSGD with a randomized matching).  Each step:

1. every worker applies its optimizer with its *local* gradient
   (the paper's Figure 3 shows model update happening *before* the
   decentralized communication);
2. workers average model weights with their randomly matched peer(s).

Replicas deliberately diverge between steps; consensus is maintained only in
expectation, which is why Figure 6 shows a small accuracy drop on some tasks.
The ring topology variant is available via ``topology='ring'``.
"""

from __future__ import annotations

from ..core.engine import Algorithm, BaguaEngine
from ..core.primitives import d_fp_s, make_peer_selector


class DecentralizedSGD(Algorithm):
    name = "decentralized"

    def __init__(self, topology: str = "random", seed: int = 0) -> None:
        self.peers = make_peer_selector(topology, seed)
        self.topology = topology

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        # Local model update first (no gradient synchronization at all);
        # the peer matching is a function of ``step`` alone, so every bucket
        # of one iteration gossips with the same partner.
        for worker in engine.workers:
            worker.optimizer_step_on_bucket(k)
        # Then gossip-average this bucket's weights with the step's peers,
        # in the rows they were read from — the workers' weight buffers,
        # which makes the store below a no-op.
        weights = engine.weights_of_bucket(k)
        averaged = d_fp_s(
            weights,
            engine.group,
            peers=self.peers,
            step=step,
            hierarchical=engine.hierarchical,
            out=weights,
        )
        engine.set_weights_of_bucket(k, averaged)
