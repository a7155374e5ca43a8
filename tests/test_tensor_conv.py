"""Convolution and pooling: shapes and numeric gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

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


# ----------------------------------------------------------------------
# Window-slice pooling against the im2col pooling it replaced
# ----------------------------------------------------------------------
def im2col_pool2d(x, kernel, stride, mode):
    """The pooling kernels as they were before they sliced (im2col copy,
    ``argmax`` / ``put_along_axis``, col2im), transcribed as the oracle:
    ``(out, grad)`` with ``grad(upstream) -> dx``."""
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    windows = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    shape = windows.shape  # [B, C, k, k, out_h, out_w]
    flat = (shape[0], shape[1], kernel * kernel, shape[4], shape[5])

    def col2im(dcols):
        dx = np.zeros(x.shape, dcols.dtype)
        for i, j in np.ndindex(kernel, kernel):
            rows = slice(i, i + stride * shape[4], stride)
            cols = slice(j, j + stride * shape[5], stride)
            dx[:, :, rows, cols] += dcols[:, :, i, j]
        return dx

    if mode == "avg":

        def avg_grad(upstream):
            share = (upstream / (kernel * kernel))[:, :, None, None]
            return col2im(np.broadcast_to(share, shape))

        return windows.mean(axis=(2, 3)), avg_grad
    cols = windows.reshape(flat)
    argmax = cols.argmax(axis=2)[:, :, None]

    def max_grad(upstream):
        dcols = np.zeros(shape, upstream.dtype)
        np.put_along_axis(dcols.reshape(flat), argmax, upstream[:, :, None], axis=2)
        return col2im(dcols)

    return cols.max(axis=2), max_grad


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestAgainstIm2colPooling:
    @settings(max_examples=150, deadline=None)
    @given(pool_cases(), st.sampled_from(["max", "avg"]), st.booleans())
    def test_values_and_input_gradient(self, case, mode, salted):
        shape, kernel, stride, integers, seed = case
        rng = np.random.default_rng(seed)
        # Integers in [-2, 0] tie often, and often at zero; the salt makes
        # some of those zeros negative, so a window's maxima can be +0.0 and -0.0.
        data = rng.integers(-2, 1, shape).astype(float) if integers else rng.standard_normal(shape)
        if salted:
            data[rng.random(shape) < 0.3] = -0.0
        x = Tensor(data, requires_grad=True)
        expected, grad = im2col_pool2d(data, kernel, stride, mode)
        out = (F.max_pool2d if mode == "max" else F.avg_pool2d)(x, kernel, stride)
        upstream = rng.standard_normal(expected.shape)
        out.backward(upstream)

        # The gradient is bitwise the oracle's for both pools: the same
        # addends, added in the same (window-offset) order.
        np.testing.assert_array_equal(bits(x.grad), bits(grad(upstream)))
        if mode == "avg":  # a running sum against numpy's two-axis mean
            np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)
            return
        # Maxima that are zeros of both signs compare equal but may differ in
        # the zero's sign (``np.max`` leaves it open too); all else is bitwise.
        np.testing.assert_array_equal(out.data, expected)
        nonzero = expected != 0
        np.testing.assert_array_equal(bits(out.data[nonzero]), bits(expected[nonzero]))

    def test_kernel_12_needs_the_wide_winner_index(self, rng):
        data = rng.standard_normal((1, 2, 13, 13))
        data[:, :, 11, 11] = 100.0  # window offsets 143, 142, 131, 130: steps of up to 154
        x = Tensor(data, requires_grad=True)
        expected, grad = im2col_pool2d(data, 12, 1, "max")
        out = F.max_pool2d(x, 12, stride=1)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 100.0))
        upstream = rng.standard_normal(expected.shape)
        out.backward(upstream)
        np.testing.assert_array_equal(bits(x.grad), bits(grad(upstream)))
        assert np.count_nonzero(x.grad) == 2  # all four windows of a channel route to one element

    def test_an_element_winning_many_windows_sums_in_window_offset_order(self, rng):
        """The centre of a 5x5 plane sits in all nine 3x3 stride-1 windows and
        wins each.  Its nine upstream values sum to 1.0 in window-offset order,
        the oracle's (window (2, 2) first, then (2, 1), ... (0, 0)), and to 0.0
        in window order, where the 1.0 is absorbed into 1e16 before the
        cancellation."""
        data = rng.standard_normal((1, 1, 5, 5))
        data[0, 0, 2, 2] = 100.0
        x = Tensor(data, requires_grad=True)
        expected, grad = im2col_pool2d(data, 3, 1, "max")
        out = F.max_pool2d(x, 3, stride=1)
        upstream = np.zeros(expected.shape)
        upstream[0, 0, 0, 0], upstream[0, 0, 1, 1], upstream[0, 0, 2, 2] = 1.0, 1e16, -1e16
        out.backward(upstream)
        np.testing.assert_array_equal(bits(x.grad), bits(grad(upstream)))
        assert x.grad[0, 0, 2, 2] == 1.0 and np.count_nonzero(x.grad) == 1

    @pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
    @pytest.mark.parametrize(
        "shape, kernel, stride",
        [((1, 1, 4, 4), 0, None), ((1, 1, 4, 4), -1, 1), ((1, 1, 3, 5), 4, 1),
         ((1, 1, 5, 3), 4, 1), ((1, 1, 4, 4), 2, -1)],
    )  # fmt: skip
    def test_windows_that_do_not_fit_raise(self, pool, shape, kernel, stride):
        with pytest.raises(ValueError, match=r"(?s)window.*stride.*shape.*\(1, 1, "):
            pool(Tensor(np.ones(shape), requires_grad=True), kernel, stride)

    @pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
    def test_stride_none_and_zero_mean_the_kernel(self, pool, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)))
        for stride in (None, 0):
            np.testing.assert_array_equal(pool(x, 3, stride).data, pool(x, 3, 3).data)

    def test_nan_window_is_nan_and_routes_to_one_element(self, rng):
        """The NaN contract: a window holding a NaN yields NaN and hands its
        gradient to exactly one of its elements, unspecified which."""
        data = rng.standard_normal((1, 1, 4, 4))
        data[0, 0, 0, 1] = data[0, 0, 3, 2] = np.nan  # windows (0, 0) and (1, 1)
        x = Tensor(data, requires_grad=True)
        out = F.max_pool2d(x, 2)
        np.testing.assert_array_equal(np.isnan(out.data[0, 0]), [[True, False], [False, True]])
        upstream = rng.standard_normal((1, 1, 2, 2))
        out.backward(upstream)
        for i, j in np.ndindex(2, 2):
            window = x.grad[0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            assert np.count_nonzero(window) == 1 and window.sum() == upstream[0, 0, i, j]


@pytest.mark.parametrize(
    "op",
    [lambda x: F.max_pool2d(x, 2), lambda x: F.max_pool2d(x, 3, stride=1),
     lambda x: F.avg_pool2d(x, 2), lambda x: F.avg_pool2d(x, 3, stride=1),
     lambda x: F.conv2d(x, Tensor(np.ones((2, 3, 3, 3), np.float32)), padding=1),
     lambda x: F.conv2d(x, Tensor(np.ones((2, 3, 2, 2), np.float32)), stride=2)],
    ids=["max", "max-overlapping", "avg", "avg-overlapping", "conv", "conv-strided"],
)  # fmt: skip
def test_a_float32_input_gets_a_float32_gradient(op, rng):
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
    out = op(x)
    assert out.data.dtype == np.float32
    out.backward(np.ones(out.shape, np.float32))
    assert x.grad.dtype == np.float32 and x.grad.shape == x.data.shape
