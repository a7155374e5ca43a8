"""Tensor bucketing and memory flattening (paper §3.4).

A :class:`TensorBucket` fuses parameters into one unit of communication and
update, and its storage is always flat: every parameter is *re-pointed* into
one contiguous weight buffer, so the flat view used for communication,
compression and the optimizer step is zero-copy — the paper's "align
parameters within a bucket into a continuous memory space" trick (and Apex's
flat-buffer optimizer).  Gradients get the same treatment: every parameter
is bound to its slot of a second contiguous buffer, backward accumulates
straight into it, and the flat gradient is that buffer.  The F switch of
:class:`~repro.core.optimizer_framework.BaguaConfig` only decides how many
tensors a bucket fuses (one each when off); a one-tensor bucket is just as
contiguous.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE, Tensor


def _is_buffer(flat: np.ndarray, buffer: np.ndarray) -> bool:
    """Whether ``flat`` is exactly ``buffer``'s memory, as some view of it.

    Identity would miss a re-sliced view of the same storage (what a
    ``list(arrays)`` or pool-ref round trip hands back), and storing that
    into the buffer copies it onto itself through a temporary.
    """
    return flat is buffer or (
        flat.shape == buffer.shape
        and flat.dtype == buffer.dtype
        and flat.flags.c_contiguous
        and flat.__array_interface__["data"][0] == buffer.__array_interface__["data"][0]
    )


class TensorBucket:
    """A fused group of parameters over one weight and one gradient buffer."""

    def __init__(
        self,
        params: Sequence[Tensor],
        name: str = "",
        buffer: np.ndarray | None = None,
        grad_buffer: np.ndarray | None = None,
    ) -> None:
        if not params:
            raise ValueError("bucket needs at least one tensor")
        self.params: list[Tensor] = list(params)
        self.name = name
        self._shapes = [p.data.shape for p in self.params]
        self._sizes = [p.data.size for p in self.params]
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes)]).astype(int)
        self.total_elements = int(self._offsets[-1])
        self._grad_slots: list[np.ndarray] = []
        self._buffer = self._checked_buffer(buffer)
        self._grad_buffer = self._checked_buffer(grad_buffer)
        self._materialize()

    def _checked_buffer(self, buffer: np.ndarray | None) -> np.ndarray:
        if buffer is None:
            return np.empty(self.total_elements, dtype=DTYPE)
        if buffer.shape != (self.total_elements,) or buffer.dtype != DTYPE:
            raise ValueError(
                f"bucket buffer must be {DTYPE} of shape ({self.total_elements},), "
                f"got {buffer.dtype} {buffer.shape}"
            )
        return buffer

    def _materialize(self) -> None:
        """Copy parameters into the weight buffer and re-point their storage at it.

        The buffers are the caller's preallocated slices when given (e.g.
        views into a per-worker flat pool shared by all buckets — the
        engine's zero-copy bucket path), private allocations otherwise.  A
        read-only weight buffer is another replica's weights, which the
        caller has checked hold the parameters' bits: the parameters are
        re-pointed at it without a copy, and a write through them raises.
        Every parameter is bound to its slot of the gradient buffer:
        gradients it accumulates from now on are born there, and one it
        already holds (the profiling iteration's) moves in.
        """
        for p, lo, hi, shape in zip(self.params, self._offsets, self._offsets[1:], self._shapes):
            if self._buffer.flags.writeable:
                self._buffer[lo:hi] = p.data.reshape(-1)
            p.data = self._buffer[lo:hi].reshape(shape)
            slot = self._grad_buffer[lo:hi].reshape(shape)
            if p.grad is not None:
                slot[...] = p.grad.reshape(shape)
                p.grad = slot
            p._grad_slot = slot
            self._grad_slots.append(slot)

    # ------------------------------------------------------------------
    # Introspection (used by repro.analysis)
    # ------------------------------------------------------------------
    @property
    def buffer(self) -> np.ndarray:
        """The fused weight buffer."""
        return self._buffer

    @property
    def grad_buffer(self) -> np.ndarray:
        """The fused gradient buffer."""
        return self._grad_buffer

    def bound_grad_slots(self) -> list[np.ndarray]:
        """The slots this bucket's parameters accumulate gradients into *now*.

        Inside :attr:`grad_buffer` unless a later bucket re-bound a parameter.
        """
        return [p._grad_slot for p in self.params if p._grad_slot is not None]

    # ------------------------------------------------------------------
    # Flat views of parameters
    # ------------------------------------------------------------------
    def flat_data(self) -> np.ndarray:
        """The bucket's parameters as one 1-D array: the weight buffer itself."""
        return self._buffer

    def set_flat_data(self, flat: np.ndarray) -> None:
        """Write ``flat`` into the weight buffer (nothing when it is the buffer)."""
        if flat.shape != (self.total_elements,):
            raise ValueError(f"expected shape ({self.total_elements},), got {flat.shape}")
        if not _is_buffer(flat, self._buffer):
            self._buffer[...] = flat

    # ------------------------------------------------------------------
    # Flat views of gradients
    # ------------------------------------------------------------------
    def flat_grad(self) -> np.ndarray:
        """Gradients of all parameters concatenated (missing grads are zero).

        Zero-copy: the gradient buffer itself, live — writing to it writes
        the parameters' gradients, and the next backward overwrites it.  Only
        stragglers cost a store: a parameter without a gradient has its slot
        zeroed (``.grad`` stays ``None``), an array assigned to ``.grad`` from
        outside moves into the slot.
        """
        for p, slot in zip(self.params, self._grad_slots):
            if p.grad is None:
                slot[...] = 0.0
            elif p.grad is not slot:
                slot[...] = p.grad.reshape(slot.shape)
                p.grad = slot
        return self._grad_buffer

    def set_flat_grad(self, flat: np.ndarray) -> None:
        """Make ``flat`` the parameters' gradients: at most one contiguous
        store (none when ``flat`` is the gradient buffer) and every ``.grad``
        re-pointed at its slot."""
        if flat.shape != (self.total_elements,):
            raise ValueError(f"expected shape ({self.total_elements},), got {flat.shape}")
        if not _is_buffer(flat, self._grad_buffer):
            self._grad_buffer[...] = flat
        for p, slot in zip(self.params, self._grad_slots):
            p.grad = slot

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def grads_ready(self) -> bool:
        return all(p.grad is not None for p in self.params)

    @property
    def nbytes(self) -> float:
        """Wire size of the bucket at full precision."""
        return float(self.total_elements * DTYPE.itemsize)

    def __len__(self) -> int:
        return len(self.params)

    def __repr__(self) -> str:
        return (
            f"TensorBucket(name={self.name!r}, tensors={len(self.params)}, "
            f"elements={self.total_elements})"
        )
