"""A small reverse-mode autograd engine over numpy arrays.

This module is the compute substrate of the reproduction: the paper runs on
PyTorch CUDA tensors, and every distributed algorithm only interacts with
parameters and gradients.  ``Tensor`` provides exactly that surface — a numpy
array, an optional gradient, and a dynamic computation graph with reverse-mode
differentiation — so the BAGUA engine, baselines and algorithms exercise the
same hook/bucket/flatten code paths they would on the real framework.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

ArrayLike = np.ndarray | float | int | Sequence

#: The one floating-point dtype of the reproduction: parameters, gradients,
#: activations, bucket pools, wire payloads and codec outputs.  fp32, as the
#: paper trains and communicates.  Kernels follow their inputs' dtype, so a
#: model built from float64 arrays still runs float64 kernels.
DTYPE = np.dtype(np.float32)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` into a float numpy array without copying when possible.

    Arrays and numpy scalars keep a float dtype they have; anything else
    becomes :data:`DTYPE`."""
    if isinstance(value, np.generic):
        value = np.asarray(value)
    if isinstance(value, np.ndarray):
        if dtype is not None and value.dtype != dtype:
            return value.astype(dtype)
        if value.dtype.kind not in "fc":
            return value.astype(DTYPE)
        return value
    return np.asarray(value, dtype=dtype or DTYPE)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph.

    Attributes:
        data: the underlying numpy array.  Mutable; in-place updates are used
            by optimizers and by the flattened bucket views.
        grad: accumulated gradient (numpy array or None).
        requires_grad: whether backward should flow into this tensor.
        name: optional human-readable label (used by profiler/bucketing).
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "_backward_fn",
        "_parents",
        "_post_grad_hooks",
        "_seq",
        "_grad_slot",
    )

    # Global creation counter: children always have a larger sequence number
    # than their parents, so descending sequence is a valid reverse
    # topological order that also matches actual execution order (the way
    # real autograd engines schedule backward).
    _next_seq = 0

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._parents: tuple = ()
        self._post_grad_hooks: list = []
        self._grad_slot: np.ndarray | None = None
        Tensor._next_seq += 1
        self._seq = Tensor._next_seq

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numel(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def copy(self) -> Tensor:
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def detach(self) -> Tensor:
        return Tensor(self.data, requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    def register_post_grad_hook(self, hook: Callable[[Tensor], None]) -> None:
        """Register a callback fired when this tensor's gradient is finalized.

        This is the mechanism algorithms use to trigger per-parameter
        communication as soon as a backward pass produces the gradient —
        mirroring PyTorch's ``Tensor.register_post_accumulate_grad_hook``.
        """
        self._post_grad_hooks.append(hook)

    def clear_post_grad_hooks(self) -> None:
        self._post_grad_hooks.clear()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Iterable[Tensor],
        backward_fn: Callable[[np.ndarray], None],
    ) -> Tensor:
        parents = tuple(parents)
        out = cls(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad``; never writes into ``grad`` itself.

        An interior node borrows the first array it is handed (``backward``
        drops its ``.grad`` after use) and sums a later one into a fresh array,
        never ``+=``: the first may be a caller's or a read-only broadcast view.
        A leaf's ``.grad`` outlives the pass and is scaled in place, so a leaf
        owns it: unbound it copies; bound it accumulates in its bucket's gradient
        slot, which the first contribution overwrites, so it is never zeroed.
        ``_accumulate_product`` is the slot's only other writer.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(_as_array(grad), self.data.shape)
        slot = self._grad_slot
        if slot is not None:
            if self.grad is None:
                np.copyto(slot, grad)
            else:
                np.add(self.grad, grad, out=slot)
            self.grad = slot
        elif self.grad is not None:
            self.grad = self.grad + grad
        else:
            self.grad = grad if self._backward_fn is not None else grad.copy()

    def _accumulate_product(self, lhs: np.ndarray, rhs: np.ndarray) -> None:
        """``_accumulate(lhs @ rhs)`` without a copy of the first contribution:
        a bound leaf's GEMM writes its slot, an unbound tensor keeps the fresh
        product it owns.  ``matmul`` picks its loop from ``lhs`` and ``rhs`` and
        casts on store, so a float64 product stored into a ``DTYPE`` slot rounds
        once, as ``_accumulate``'s copy into the slot would."""
        if not self.requires_grad:
            return
        if self.grad is not None:
            self._accumulate(lhs @ rhs)
        else:  # out=None: a fresh product
            self.grad = np.matmul(lhs, rhs, out=self._grad_slot)

    def backward(self, grad: ArrayLike | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Leaf tensors accumulate into ``.grad``; after a leaf's gradient is
        final (all contributions applied), its post-grad hooks fire in the
        reverse order the leaves were reached — the natural "backward order"
        distributed systems key their communication scheduling on.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad).copy()  # the root keeps its .grad: never the caller's array

        # Collect the reachable requires-grad subgraph (iteratively: models
        # can be deep enough to overflow Python's recursion limit) ...
        reachable: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            reachable.append(node)
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append(parent)
        # ... and process it in descending creation order: a child is always
        # created after its parents, so this is a valid reverse-topological
        # order that also mirrors real execution order — hooks fire in the
        # order gradients genuinely become ready during backward.
        reachable.sort(key=lambda n: n._seq, reverse=True)

        # Count how many times each node appears as a parent so that leaf
        # hooks fire only once the gradient is complete.
        pending: dict[int, int] = {}
        for node in reachable:
            for parent in node._parents:
                if parent.requires_grad:
                    pending[id(parent)] = pending.get(id(parent), 0) + 1

        self._accumulate(grad)
        for node in reachable:
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                # Interior nodes do not need to retain gradients.
                if node is not self:
                    node.grad = None
            for parent in node._parents:
                if not parent.requires_grad:
                    continue
                pending[id(parent)] -= 1
                if pending[id(parent)] == 0 and parent._backward_fn is None:
                    for hook in parent._post_grad_hooks:
                        hook(parent)

    # ------------------------------------------------------------------
    # Arithmetic — thin wrappers creating graph nodes
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> Tensor:
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> Tensor:
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> Tensor:
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> Tensor:
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> Tensor:
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> Tensor:
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> Tensor:
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> Tensor:
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> Tensor:
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data ** exponent, (self,), backward)

    def __matmul__(self, other: Tensor) -> Tensor:
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_matmul_grad_lhs(grad, self.data, other.data))
            if other.requires_grad:
                other._accumulate(_matmul_grad_rhs(grad, self.data, other.data))

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> Tensor:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> Tensor:
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> Tensor:
        return self.transpose()

    def sum(self, axis=None, keepdims: bool = False) -> Tensor:
        return self._reduced(self.data.sum(axis=axis, keepdims=keepdims), axis, keepdims, 1)

    def mean(self, axis=None, keepdims: bool = False) -> Tensor:
        out = self.data.mean(axis=axis, keepdims=keepdims)
        return self._reduced(out, axis, keepdims, self.data.size // max(out.size, 1))

    def _reduced(self, out: np.ndarray, axis, keepdims: bool, count: int) -> Tensor:
        """Node for a sum (``count`` 1) or a mean of ``count`` elements over ``axis``."""

        def backward(grad: np.ndarray) -> None:
            g = grad if count == 1 else grad / count
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out, (self,), backward)

    def __getitem__(self, index) -> Tensor:
        # Basic indices (ints, slices, Ellipsis, None) select each element at
        # most once; only advanced indices can repeat and need ``np.add.at``.
        items = index if isinstance(index, tuple) else (index,)
        basic = all(isinstance(i, (int, np.integer, slice, type(...), type(None))) for i in items)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if basic:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(self.data[index], (self,), backward)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{label}{grad})"

    def __len__(self) -> int:
        return len(self.data)


def _matmul_grad_lhs(grad: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if rhs.ndim == 1:
        return np.outer(grad, rhs) if lhs.ndim == 2 else grad[..., None] * rhs
    out = grad @ np.swapaxes(rhs, -1, -2)
    return _unbroadcast(out, lhs.shape)


def _matmul_grad_rhs(grad: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if lhs.ndim == 1:
        return np.outer(lhs, grad)
    out = np.swapaxes(lhs, -1, -2) @ grad
    return _unbroadcast(out, rhs.shape)


def tensor(data: ArrayLike, requires_grad: bool = False, name: str | None = None) -> Tensor:
    """Public constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, name=name)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, DTYPE), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(DTYPE), requires_grad=requires_grad)
