"""Convolution and pooling: shapes and numeric gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor import functional as F


def central_difference(build, param: Tensor, index, eps=1e-6):
    param.data[index] += eps
    hi = build().item()
    param.data[index] -= 2 * eps
    lo = build().item()
    param.data[index] += eps
    return (hi - lo) / (2 * eps)


@pytest.fixture
def x(rng) -> Tensor:
    return Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)


@pytest.fixture
def w(rng) -> Tensor:
    return Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)


class TestConv2d:
    def test_output_shape_no_padding(self, x, w):
        assert F.conv2d(x, w).shape == (2, 4, 6, 6)

    def test_output_shape_padding(self, x, w):
        assert F.conv2d(x, w, padding=1).shape == (2, 4, 8, 8)

    def test_output_shape_stride(self, x, w):
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)

    def test_matches_direct_convolution(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)))
        out = F.conv2d(x, w).data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = np.sum(x.data[0, 0, i : i + 3, j : j + 3] * w.data[0, 0])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_weight_grad(self, x, w):
        def build():
            return (F.conv2d(x, w, padding=1) ** 2).sum()

        x.zero_grad(); w.zero_grad()
        build().backward()
        numeric = central_difference(build, w, (2, 1, 0, 2))
        assert abs(w.grad[2, 1, 0, 2] - numeric) < 1e-4

    def test_input_grad(self, x, w):
        def build():
            return (F.conv2d(x, w, stride=2, padding=1) ** 2).sum()

        x.zero_grad(); w.zero_grad()
        build().backward()
        numeric = central_difference(build, x, (1, 2, 3, 4))
        assert abs(x.grad[1, 2, 3, 4] - numeric) < 1e-4

    def test_bias_grad(self, x, w, rng):
        b = Tensor(rng.standard_normal(4), requires_grad=True)

        def build():
            return F.conv2d(x, w, b).sum()

        build().backward()
        # d(sum)/d(bias_c) = number of output positions x batch.
        np.testing.assert_allclose(b.grad, np.full(4, 2 * 6 * 6), atol=1e-9)


class TestPooling:
    def test_max_pool_shape_and_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        grad = x.grad[0, 0]
        assert grad[1, 1] == 1 and grad[0, 0] == 0
        assert grad.sum() == 4

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_grad_uniform(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_max_pool_stride(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        out = F.max_pool2d(x, 2, stride=1)
        assert out.shape == (1, 2, 5, 5)
        out.sum().backward()
        assert x.grad.shape == x.data.shape


# ----------------------------------------------------------------------
# Window-view kernels against nested-loop references
# ----------------------------------------------------------------------
def naive_conv2d(x, w, b, stride, padding):
    """``(out, grads)``: the forward value, and ``grads(upstream) -> (dx, dw,
    db)``, both accumulated one output position at a time."""
    batch, channels, height, width = x.shape
    filters, _, kh, kw = w.shape
    xp = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    xp[:, :, padding : padding + height, padding : padding + width] = x
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((batch, filters, out_h, out_w))
    for n, f, i, j in np.ndindex(*out.shape):
        patch = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
        out[n, f, i, j] = np.sum(patch * w[f]) + b[f]

    def grads(upstream):
        dxp, dw = np.zeros_like(xp), np.zeros_like(w)
        for n, f, i, j in np.ndindex(*out.shape):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            dw[f] += upstream[n, f, i, j] * xp[n, :, rows, cols]
            dxp[n, :, rows, cols] += upstream[n, f, i, j] * w[f]
        dx = dxp[:, :, padding : padding + height, padding : padding + width]
        return dx, dw, upstream.sum(axis=(0, 2, 3))

    return out, grads


def naive_pool2d(x, kernel, stride, mode):
    batch, channels, height, width = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    out = np.zeros((batch, channels, out_h, out_w))
    for n, c, i, j in np.ndindex(*out.shape):
        patch = x[n, c, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
        out[n, c, i, j] = patch.max() if mode == "max" else patch.mean()

    def grad(upstream):
        dx = np.zeros_like(x)
        for n, c, i, j in np.ndindex(*out.shape):
            rows = slice(i * stride, i * stride + kernel)
            cols = slice(j * stride, j * stride + kernel)
            if mode == "avg":
                dx[n, c, rows, cols] += upstream[n, c, i, j] / kernel**2
                continue
            # First maximum in window (row-major) order takes the gradient.
            di, dj = divmod(int(np.argmax(x[n, c, rows, cols])), kernel)
            dx[n, c, i * stride + di, j * stride + dj] += upstream[n, c, i, j]
        return dx

    return out, grad


@st.composite
def conv_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    height = draw(st.integers(max(1, kh - 2 * padding), 9))
    width = draw(st.integers(max(1, kw - 2 * padding), 9))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), height, width)
    filters = draw(st.integers(1, 3))
    return shape, (filters, shape[1], kh, kw), stride, padding, draw(st.integers(0, 2**31))


@st.composite
def pool_cases(draw):
    kernel, stride = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    height, width = draw(st.integers(kernel, 9)), draw(st.integers(kernel, 9))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), height, width)
    return shape, kernel, stride, draw(st.booleans()), draw(st.integers(0, 2**31))


class TestAgainstNaiveReference:
    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_conv2d_forward_and_all_gradients(self, case):
        x_shape, w_shape, stride, padding, seed = case
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
        expected, grads = naive_conv2d(x.data, w.data, b.data, stride, padding)

        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)
        upstream = rng.standard_normal(expected.shape)
        out.backward(upstream)
        for got, want in zip((x.grad, w.grad, b.grad), grads(upstream)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pool_cases(), st.sampled_from(["max", "avg"]))
    def test_pool_forward_and_input_gradient(self, case, mode):
        shape, kernel, stride, ties, seed = case
        rng = np.random.default_rng(seed)
        # Small integers make equal maxima inside one window likely.
        data = rng.integers(0, 3, shape).astype(float) if ties else rng.standard_normal(shape)
        x = Tensor(data, requires_grad=True)
        expected, grad = naive_pool2d(data, kernel, stride, mode)

        pool = F.max_pool2d if mode == "max" else F.avg_pool2d
        out = pool(x, kernel, stride)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)
        upstream = rng.standard_normal(expected.shape)
        out.backward(upstream)
        np.testing.assert_allclose(x.grad, grad(upstream), rtol=1e-10, atol=1e-12)
