"""Optimizers operating on lists of parameters (or flattened bucket views).

The BAGUA engine flattens bucketed parameters into one contiguous array and
runs the optimizer over that flat view (paper §3.4, "Tensor Bucketing and
Memory Flattening"); to allow that, every optimizer here keeps its state
per-parameter as plain numpy arrays keyed by position, and exposes
``step_on_arrays`` so the same update rule can run on flat buffers.

Per-bucket parameter updates (the scheduled executor steps bucket k the
moment its reduction lands, not all buckets at a barrier) need state keyed by
*slot*: ``step_on_slots`` updates a chosen subset of slots, and one call over
all slots is bit-identical to per-slot calls in the same order.  Adam keeps a
per-slot step count for its bias correction so both call patterns agree.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .tensor import Tensor

#: elements per block of :meth:`SGD.step_on_slots` (x, g, v and scratch stay in cache)
SGD_BLOCK = 32_768


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        arrays = [p.data for p in self.params]
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        self.step_on_arrays(arrays, grads)

    def step_on_arrays(self, arrays: Sequence[np.ndarray], grads: Sequence[np.ndarray]) -> None:
        """Apply the update rule in place on raw arrays (flat-view friendly)."""
        self.step_on_slots(range(len(arrays)), arrays, grads)

    def step_on_slots(
        self,
        slots: Sequence[int],
        arrays: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> None:
        """Apply the update rule to the given state slots only.

        ``slots[i]`` names the persistent state cell used for ``arrays[i]``;
        the engine passes the bucket index, so stepping bucket k alone (the
        per-bucket update path) touches exactly the state a full-barrier step
        would have used for that bucket.
        """
        raise NotImplementedError

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


class SGD(Optimizer):
    """Stochastic gradient descent with optional (Nesterov) momentum and weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"invalid learning rate {lr}")
        if momentum < 0 or weight_decay < 0:
            raise ValueError(f"invalid momentum {momentum} or weight decay {weight_decay}")
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)
        # Per slot, the block whose subnormal velocity the next step clears.
        self._flush_turn: list[int] = [0] * len(self.params)

    def step_on_slots(
        self,
        slots: Sequence[int],
        arrays: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> None:
        """The unblocked formula's per-element sequence, bits included, run on
        leading-axis views of about ``SGD_BLOCK`` elements while each is in
        cache (a non-contiguous array is updated in place), ``lr * v`` into
        one reused block-sized scratch.

        Subnormal velocity is flushed to zero, one block of each slot per
        step in turn.  An element whose gradient stays zero (a dead unit, a
        constant input) decays by ``momentum`` every step; in float32 it turns
        subnormal after some 800 steps at 0.9 and then sticks at the smallest
        subnormal, which 0.9 x rounds back to.  A CPU takes a microcode assist
        for every subnormal operand, so from then on each step paid for it
        again: the 2.4 % of stuck elements a wide MLP reaches made its SGD step
        2.3x slower on a Xeon.  Clearing them is what a flush-to-zero
        accelerator does; it moves ``x`` only where ``|x|`` is below about
        ``lr * tiny / eps`` (1e-33 in float32 at lr 0.01).
        """
        m, wd, lr = self.momentum, self.weight_decay, self.lr
        for slot, x, g in zip(slots, arrays, grads):
            v = None
            if m:
                if len(self._velocity) <= slot:
                    self._velocity.extend([None] * (slot + 1 - len(self._velocity)))
                    self._flush_turn.extend([0] * (slot + 1 - len(self._flush_turn)))
                if self._velocity[slot] is None or self._velocity[slot].shape != x.shape:
                    self._velocity[slot] = np.zeros_like(x)
                    self._flush_turn[slot] = 0
                v = np.atleast_1d(self._velocity[slot])
            x, g = np.atleast_1d(x), np.atleast_1d(g)
            rows = max(1, -(-len(x) // max(1, round(x.size / SGD_BLOCK))))
            if v is not None:
                flush_lo = self._flush_turn[slot] * rows
                self._flush_turn[slot] = (self._flush_turn[slot] + 1) % max(1, -(-len(x) // rows))
            scratch = None
            for lo in range(0, len(x), rows):
                xb, gb = x[lo : lo + rows], g[lo : lo + rows]
                if wd:
                    gb = gb + wd * xb
                if v is not None:
                    vb = v[lo : lo + rows]
                    vb *= m
                    vb += gb
                    if lo == flush_lo:
                        np.copyto(vb, 0, where=np.abs(vb) < np.finfo(vb.dtype).tiny)
                    gb = gb + m * vb if self.nesterov else vb
                # The first block's product is the scratch every later block reuses.
                scratch = np.multiply(gb, lr, out=None if scratch is None else scratch[: len(gb)])
                xb -= scratch

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "velocity": [None if v is None else v.copy() for v in self._velocity],
            "flush_turn": list(self._flush_turn),
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self.momentum = state["momentum"]
        self._velocity = [None if v is None else v.copy() for v in state["velocity"]]
        # States saved before the flush turn existed start every slot at block 0.
        self._flush_turn = list(state.get("flush_turn", [0] * len(self._velocity)))


class Adam(Optimizer):
    """Adam (Kingma & Ba).  1-bit Adam freezes this state after warmup."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"invalid learning rate {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: list[np.ndarray | None] = [None] * len(self.params)
        self._v: list[np.ndarray | None] = [None] * len(self.params)
        # Per-slot step counts: with per-bucket updates each slot is stepped
        # independently, and the bias correction must track that slot's own
        # age for per-bucket and barrier stepping to agree bit for bit.
        self._t: list[int] = [0] * len(self.params)
        # When frozen (1-bit Adam compression stage), the second moment stops
        # updating and acts as a fixed diagonal preconditioner.
        self.variance_frozen = False

    def freeze_variance(self) -> None:
        self.variance_frozen = True

    def step_on_slots(
        self,
        slots: Sequence[int],
        arrays: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> None:
        for slot, x, g in zip(slots, arrays, grads):
            if self.weight_decay:
                g = g + self.weight_decay * x
            if len(self._m) <= slot:
                grow = slot + 1 - len(self._m)
                self._m.extend([None] * grow)
                self._v.extend([None] * grow)
                self._t.extend([0] * grow)
            if self._m[slot] is None or self._m[slot].shape != x.shape:
                self._m[slot] = np.zeros_like(x)
                self._v[slot] = np.zeros_like(x)
                self._t[slot] = 0
            self._t[slot] += 1
            bc1 = 1.0 - self.beta1 ** self._t[slot]
            bc2 = 1.0 - self.beta2 ** self._t[slot]
            m, v = self._m[slot], self._v[slot]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            if not self.variance_frozen:
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            x -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self.t = max(self._t, default=0)

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "t": self.t,
            "m": [None if m is None else m.copy() for m in self._m],
            "v": [None if v is None else v.copy() for v in self._v],
            "variance_frozen": self.variance_frozen,
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self.t = state["t"]
        self._m = [None if m is None else m.copy() for m in state["m"]]
        self._v = [None if v is None else v.copy() for v in state["v"]]
        # Serialized states predate per-slot counts: every live slot has
        # been stepped ``t`` times under barrier semantics.
        self._t = [state["t"] if m is not None else 0 for m in self._m]
        self.variance_frozen = state["variance_frozen"]


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    def step_on_slots(
        self,
        slots: Sequence[int],
        arrays: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
    ) -> None:
        if self.weight_decay:
            for x in arrays:
                x -= self.lr * self.weight_decay * x
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            super().step_on_slots(slots, arrays, grads)
        finally:
            self.weight_decay = decay
