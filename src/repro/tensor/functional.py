"""Differentiable operations on :class:`~repro.tensor.tensor.Tensor`.

Everything here builds graph nodes by hand: forward with numpy, backward as a
closure.  ``linear`` is one node whose weight gradient is one GEMM in the
weight's own [out, in] layout, written straight into a bound leaf's bucket
slot (``Tensor._accumulate_product``).  ``conv2d`` is im2col over a window
view plus BLAS, and its input gradient one GEMM per kernel offset; the pools
make one elementwise pass per window offset over contiguous memory, and
max-pool routes its gradient with one ``np.add.at`` in the input's dtype.  A
backward closure never writes into the gradient it receives: an interior node
may be holding it (``_accumulate``).

Numeric contract: ``linear`` on a 2-D input gives the unfused ``x @ W.T + b``
graph's bits.  ``conv2d`` contracts with BLAS (``np.matmul``), which
re-associates sums, so it matches a nested-loop reference to ~1e-10 relative,
not bitwise.  Every executor x backend pair runs these same kernels
and therefore stays bitwise-equal to every other.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor


# ----------------------------------------------------------------------
# Elementwise nonlinearities
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - out ** 2))

    return Tensor._make(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out * (1.0 - out))

    return Tensor._make(out, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as used by BERT)."""
    c = float(np.sqrt(2.0 / np.pi))  # a Python float keeps float32 data float32
    inner = c * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        dinner = c * (1.0 + 3 * 0.044715 * x.data ** 2)
        dt = (1.0 - t ** 2) * dinner
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return Tensor._make(out, (x,), backward)


def exp(x: Tensor) -> Tensor:
    out = np.exp(np.clip(x.data, -700.0, 700.0))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out)

    return Tensor._make(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / x.data)

    return Tensor._make(np.log(x.data), (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * 0.5 / out)

    return Tensor._make(out, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.data >= lo) & (x.data <= hi)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(np.clip(x.data, lo, hi), (x,), backward)


# ----------------------------------------------------------------------
# Softmax and losses
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - dot))

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(out)
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` [batch, classes] and int targets."""
    return nll_loss(log_softmax(logits, axis=-1), targets)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=pred.data.dtype)
    diff = pred.data - target
    loss_value = (diff ** 2).mean(dtype=np.float64)  # the loss is a float64 scalar

    def backward(grad: np.ndarray) -> None:
        pred._accumulate(2.0 * float(grad) * diff / diff.size)

    return Tensor._make(np.asarray(loss_value), (pred,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    targets = np.asarray(targets).reshape(-1)
    batch = log_probs.data.shape[0]
    # The loss is a float64 scalar whatever the activations' dtype.
    loss_value = -log_probs.data[np.arange(batch), targets].mean(dtype=np.float64)

    def backward(grad: np.ndarray) -> None:
        g = np.zeros_like(log_probs.data)
        g[np.arange(batch), targets] = -float(grad) / batch
        log_probs._accumulate(g)

    return Tensor._make(np.asarray(loss_value), (log_probs,), backward)


# ----------------------------------------------------------------------
# Structural ops
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(lo, hi)
            t._accumulate(grad[tuple(index)])

    return Tensor._make(np.concatenate(datas, axis=axis), tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for t, p in zip(tensors, parts):
            t._accumulate(np.squeeze(p, axis=axis))

    return Tensor._make(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = np.divide(rng.random(x.data.shape) < keep, keep, dtype=x.data.dtype)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    indices = np.asarray(indices)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[1]))
        weight._accumulate(full)

    return Tensor._make(weight.data[indices], (weight,), backward)


# ----------------------------------------------------------------------
# Affine, convolution and pooling
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` over the last axis of ``x``, ``weight`` [out, in]."""
    features = weight.data.shape[0]
    x2 = x.data.reshape(-1, weight.data.shape[1])
    out = x2 @ weight.data.T
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (bias, x, weight)  # hooks: bias first

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(-1, features)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad:
            x._accumulate((g @ weight.data).reshape(x.data.shape))
        weight._accumulate_product(g.T, x2)  # [out, in]: straight into a bound slot

    return Tensor._make(out.reshape(*x.data.shape[:-1], features), parents, backward)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int = 0) -> np.ndarray:
    """Windows of zero-padded ``x`` [B, C, H, W] as [B, C, kh, kw, out_h, out_w].

    A strided ``sliding_window_view`` of the padded input, materialised by
    one copy so the BLAS calls and reductions downstream see dense memory.
    """
    if padding:
        batch, channels, height, width = x.shape
        padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding), x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def _window_slices(shape: tuple, kh: int, kw: int, stride: int) -> list[tuple]:
    """Per window offset ``(i, j)``, row-major: the index selecting element ``(i, j)``
    of every ``kh`` x ``kw`` window, ``stride`` apart, of a [B, C, H, W] array."""
    height, width = shape[2:]
    if not (1 <= kh <= height and 1 <= kw <= width and stride >= 1):
        raise ValueError(f"no {kh}x{kw} window with stride {stride} fits an input of shape {shape}")
    out_h, out_w = (height - kh) // stride + 1, (width - kw) // stride + 1
    return [
        (..., slice(i, i + stride * out_h, stride), slice(j, j + stride * out_w, stride))
        for i, j in np.ndindex(kh, kw)
    ]


def conv2d(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0
) -> Tensor:
    """2D convolution: ``x`` [B, C, H, W], ``weight`` [F, C, kh, kw]."""
    filters, _, kh, kw = weight.data.shape
    batch = x.data.shape[0]
    windows = _im2col(x.data, kh, kw, stride, padding)
    w_flat = weight.data.reshape(filters, -1)  # [F, C*kh*kw]
    cols = windows.reshape(batch, w_flat.shape[1], -1)  # [B, C*kh*kw, L]
    out = np.matmul(w_flat, cols)  # [B, F, L]
    if bias is not None:
        out += bias.data.reshape(1, -1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(batch, filters, -1)  # [B, F, L]
        if weight.requires_grad:
            dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(dw.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:  # one GEMM per kernel offset, slice-added where that offset reads
            w_t = np.ascontiguousarray(weight.data.transpose(2, 3, 1, 0))  # [kh, kw, C, F]
            shape = (*x.data.shape[:2], *(n + 2 * padding for n in x.data.shape[2:]))
            padded = np.zeros(shape, np.result_type(w_t, g))
            for (i, j), at in zip(np.ndindex(kh, kw), _window_slices(shape, kh, kw, stride)):
                padded[at] += np.matmul(w_t[i, j], g).reshape(batch, -1, *windows.shape[4:])
            x._accumulate(padded[:, :, padding : shape[2] - padding, padding : shape[3] - padding])

    return Tensor._make(out.reshape(batch, filters, *windows.shape[4:]), parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max over ``kernel`` x ``kernel`` windows; ties route the gradient to the
    first maximum in window (row-major) order.  A window holding a NaN yields
    NaN and routes its gradient to one of its elements, unspecified which
    (``grad_guard`` is the tool for non-finite gradients)."""
    slices = _window_slices(x.data.shape, kernel, kernel, stride or kernel)
    # ``winner``: the flat [H, W] step from a window's corner to its maximum.  It grows
    # with the offset, so a running maximum of ``hit * step`` is a branch-free putmask.
    height, width = x.data.shape[2:]
    steps = (np.arange(kernel)[:, None] * width + np.arange(kernel)).ravel()
    best = x.data[slices[0]].copy()
    window, hit = np.empty_like(best), np.empty(best.shape, bool)
    winner = np.zeros(best.shape, np.min_scalar_type(steps[-1]))
    for at, step in zip(slices[1:], steps[1:].astype(winner.dtype)):
        np.copyto(window, x.data[at])  # the one strided read of this offset
        np.greater(window, best, out=hit)  # strict: the first of equal maxima stays
        np.maximum(winner, hit * step, out=winner)
        np.maximum(best, window, out=best)

    def backward(grad: np.ndarray) -> None:
        # One unbuffered add in the input's dtype, fed each [B, C] plane's windows
        # last to first: every input element then sums in ascending window-offset
        # order, as slice-adds would.
        back = (..., slice(None, None, -1), slice(None, None, -1))
        planes = np.arange(0, x.data.size, height * width).reshape(*x.data.shape[:2], 1, 1)
        index = np.arange(height * width).reshape(height, width)[slices[0]][back] + planes
        index += winner[back]
        dx = np.zeros(x.data.size, x.data.dtype)
        np.add.at(dx, index.ravel(), grad[back].ravel())
        x._accumulate(dx.reshape(x.data.shape))

    return Tensor._make(best, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    slices = _window_slices(x.data.shape, kernel, kernel, stride or kernel)
    out = x.data[slices[0]].copy()
    for at in slices[1:]:
        out += x.data[at]
    out /= kernel * kernel

    def backward(grad: np.ndarray) -> None:
        dx, share = np.zeros_like(x.data), grad / (kernel * kernel)
        for at in slices:
            dx[at] += share
        x._accumulate(dx)

    return Tensor._make(out, (x,), backward)


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def batch_norm2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over [B, C, H, W] (per-channel statistics).

    In training mode, batch statistics normalize and the running buffers are
    updated in place; in eval mode the running buffers are used.  The buffers
    are plain arrays (not parameters) — they are not communicated by the
    distributed algorithms, matching standard DDP semantics.
    """
    axes = (0, 2, 3)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        unbiased = var * count / max(1, count - 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mu = running_mean
        var = running_var

    shape = (1, -1, 1, 1)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mu.reshape(shape)) * inv_std.reshape(shape)
    out = x_hat * weight.data.reshape(shape) + bias.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).sum(axis=axes))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            dxhat = grad * weight.data.reshape(shape)
            if training:
                mean_dxhat = dxhat.mean(axis=axes).reshape(shape)
                mean_dxhat_xhat = (dxhat * x_hat).mean(axis=axes).reshape(shape)
                dx = (dxhat - mean_dxhat - x_hat * mean_dxhat_xhat) * inv_std.reshape(shape)
            else:
                dx = dxhat * inv_std.reshape(shape)
            x._accumulate(dx)

    return Tensor._make(out, (x, weight, bias), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mu) * inv_std
    out = x_hat * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        axes = tuple(range(grad.ndim - 1))
        if weight.requires_grad:
            weight._accumulate((grad * x_hat).sum(axis=axes))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            dxhat = grad * weight.data
            dx = (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - x_hat * (dxhat * x_hat).mean(axis=-1, keepdims=True)
            ) * inv_std
            x._accumulate(dx)

    return Tensor._make(out, (x, weight, bias), backward)
