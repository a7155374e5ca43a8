"""In-process backends: the loop-reference oracle and the batched fast path.

Both deliver payloads by handing the sender's objects straight to the
receiver (the original single-process execution model); they differ only in
which kernel flavor collectives run.  ``LocalBackend`` is the auditable
oracle — per-rank Python loops, one payload per message, inputs never
written — and ``BatchedBackend`` runs the world-batched kernels of
:mod:`repro.comm.batched`: size stubs instead of payloads, and dense ``DTYPE``
rows that live in the pools :meth:`LocalBackend.allocate_pool` handed out
reduced in place by the base class's serial ``pool_ref_reduce`` (what the
shm workers run in parallel).  Results, clocks, stats and traces are
bit-identical by the PR 5 contract, so the two backends are interchangeable
in every observable way except wall-clock and where a pool row's sum lands.

Under the protocol sanitizer (``REPRO_PROTOCOL_SANITIZE=1``) the in-process
backends emit the same doorbell/ack event shape the shm backend does — the
"worker" half synthesized synchronously, since delivery and per-rank compute
happen in the parent's address space — so the conformance checker
(:mod:`repro.analysis.protocol.sanitizer`) replays every backend uniformly.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ...tensor.tensor import DTYPE
from .base import TransportBackend

if TYPE_CHECKING:
    from ..transport import Message


class LocalBackend(TransportBackend):
    """Single-process delivery, loop-reference kernels, serial rank tasks."""

    name = "local"
    prefers_fast_path = False

    def __init__(self) -> None:
        super().__init__()
        self._seq: dict[int, int] = {}

    def _next_seq(self, rank: int) -> int:
        seq = self._seq.get(rank, 0)
        self._seq[rank] = seq + 1
        return seq

    def _emit_exchange(self, op: str, rank: int, records: int) -> None:
        """One synchronous doorbell/ack event sextet for ``rank``."""
        seq = self._next_seq(rank)
        worker = f"worker:{rank}"
        self.emit_protocol_event("post", rank=rank, seq=seq, op=op, detail=(records, 0, records))
        self.emit_protocol_event("recv", rank=rank, seq=seq, op=op, proc=worker)
        if op in ("round", "task"):
            self.emit_protocol_event("ring_read", rank=rank, seq=seq, detail=(records,), proc=worker)
            self.emit_protocol_event("ring_write", rank=rank, seq=seq, detail=(records,), proc=worker)
        elif op == "pool":
            self.emit_protocol_event("pool_map", rank=rank, seq=seq, proc=worker)
        self.emit_protocol_event("ack_send", rank=rank, seq=seq, op=op, proc=worker)
        self.emit_protocol_event("ack_recv", rank=rank, seq=seq, op=op)

    def route_round(self, messages: Sequence[Message]) -> dict[int, list[Message]]:
        inbox: dict[int, list[Message]] = {}
        for message in messages:
            inbox.setdefault(message.dst, []).append(message)
        if self.sanitizing:
            for dst, batch in inbox.items():
                self._emit_exchange("round", dst, len(batch))
        return inbox

    def flush(self) -> None:
        """Delivery is synchronous in-process; there is nothing staged."""

    def allocate_pool(self, rank: int, n_elements: int) -> np.ndarray:
        pool = np.empty(n_elements, dtype=DTYPE)
        self._register_pool(rank, pool)
        if self.sanitizing:
            self._emit_exchange("pool", rank, 0)
        return pool

    def run_rank_tasks(
        self,
        fn: Callable[..., Any],
        args_by_rank: Mapping[int, tuple],
    ) -> dict[int, Any]:
        results = {}
        for rank in sorted(args_by_rank):
            if self.sanitizing:
                self._emit_exchange("task", rank, 1)
            results[rank] = fn(self._pool_arrays.get(rank), *args_by_rank[rank])
        return results

    def close(self) -> None:
        self._pool_arrays.clear()
        if self.sanitizing and self._seq:
            for rank in sorted(self._seq):
                seq = self._next_seq(rank)
                worker = f"worker:{rank}"
                self.emit_protocol_event("post", rank=rank, seq=seq, op="close")
                self.emit_protocol_event("recv", rank=rank, seq=seq, op="close", proc=worker)
                self.emit_protocol_event("exit", rank=rank, proc=worker)
                self.emit_protocol_event("ack_send", rank=rank, seq=seq, op="close", proc=worker)
                self.emit_protocol_event("ack_recv", rank=rank, seq=seq, op="close")
                self.emit_protocol_event("unlink", rank=rank)
            self._seq.clear()
            self.emit_protocol_event("closed")


class BatchedBackend(LocalBackend):
    """Single-process delivery preferring the world-batched kernels."""

    name = "batched"
    prefers_fast_path = True
