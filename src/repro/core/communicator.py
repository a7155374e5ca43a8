"""The developer-facing communicator facade of the paper's Listing 2.

Algorithm developers in BAGUA write against a global communicator object::

    self.global_comm = bagua.communication.get_global_comm()
    self.worker_err, self.server_err = \
        self.global_comm.cen_lp_sync.init_states(self.param)
    ...
    self.global_comm.cen_lp_sync.exec(
        gradients, qsgd_compress_fn, self.worker_err, self.server_err)

This module reproduces that surface.  A :class:`GlobalComm` wraps a
:class:`~repro.comm.group.CommGroup` and exposes one handle per primitive —
``cen_fp_sync`` / ``cen_lp_sync`` / ``decen_fp_sync`` / ``decen_lp_sync`` —
each with ``exec`` and (for the low-precision ones) ``init_states``.
Because the simulation is lock-step, ``exec`` takes the per-member arrays at
once and returns per-member results, but state handling (one error-feedback
pair per member) matches the per-rank program exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..comm.group import CommGroup

if TYPE_CHECKING:
    from ..cluster.backends import TransportBackend
from ..compression.base import Compressor
from ..compression.error_feedback import ErrorFeedback
from .primitives import PeerSelector, RingPeers, c_fp_s, c_lp_s, d_fp_s, d_lp_s


class CentralizedFullPrecision:
    """Handle for C_FP_S."""

    def __init__(self, comm: GlobalComm) -> None:
        self._comm = comm

    def exec(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        return c_fp_s(arrays, self._comm.group, hierarchical=self._comm.hierarchical)


class CentralizedLowPrecision:
    """Handle for C_LP_S with optional error-compensation state."""

    def __init__(self, comm: GlobalComm) -> None:
        self._comm = comm

    def init_states(
        self, compressor: Compressor
    ) -> tuple[list[ErrorFeedback], list[ErrorFeedback]]:
        """Allocate (worker_err, server_err) stores, one pair per member.

        Mirrors Listing 2's ``init_states``; reuse one pair per bucket (chunk
        keys repeat across buckets).
        """
        n = self._comm.group.size
        return (
            [ErrorFeedback(compressor) for _ in range(n)],
            [ErrorFeedback(compressor) for _ in range(n)],
        )

    def exec(
        self,
        arrays: Sequence[np.ndarray],
        compressor: Compressor,
        worker_err: Sequence[ErrorFeedback] | None = None,
        server_err: Sequence[ErrorFeedback] | None = None,
    ) -> list[np.ndarray]:
        return c_lp_s(
            arrays,
            self._comm.group,
            compressor=compressor,
            worker_errors=worker_err,
            server_errors=server_err,
            hierarchical=self._comm.hierarchical,
        )


class DecentralizedFullPrecision:
    """Handle for D_FP_S."""

    def __init__(self, comm: GlobalComm) -> None:
        self._comm = comm

    def exec(
        self,
        arrays: Sequence[np.ndarray],
        peers: PeerSelector | None = None,
        step: int = 0,
        out: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        return d_fp_s(
            arrays,
            self._comm.group,
            peers=peers or RingPeers(),
            step=step,
            hierarchical=self._comm.hierarchical,
            out=out,
        )


class DecentralizedLowPrecision:
    """Handle for D_LP_S."""

    def __init__(self, comm: GlobalComm) -> None:
        self._comm = comm

    def exec(
        self,
        arrays: Sequence[np.ndarray],
        compressor: Compressor,
        peers: PeerSelector | None = None,
        step: int = 0,
        out: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        return d_lp_s(
            arrays,
            self._comm.group,
            compressor=compressor,
            peers=peers or RingPeers(),
            step=step,
            hierarchical=self._comm.hierarchical,
            out=out,
        )


class GlobalComm:
    """All four primitive handles over one communication group."""

    def __init__(self, group: CommGroup, hierarchical: bool = False) -> None:
        self.group = group
        self.hierarchical = hierarchical
        self.cen_fp_sync = CentralizedFullPrecision(self)
        self.cen_lp_sync = CentralizedLowPrecision(self)
        self.decen_fp_sync = DecentralizedFullPrecision(self)
        self.decen_lp_sync = DecentralizedLowPrecision(self)

    @property
    def world_size(self) -> int:
        return self.group.size

    @property
    def backend(self) -> TransportBackend:
        """The execution substrate the group's transport runs on."""
        return self.group.transport.backend


def get_global_comm(engine) -> GlobalComm:
    """Listing-2 entry point: the engine's group wrapped as a GlobalComm."""
    return GlobalComm(engine.group, hierarchical=engine.hierarchical)
