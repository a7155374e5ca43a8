"""Autograd core: arithmetic, broadcasting, backward, hooks."""

import numpy as np
import pytest

from repro.core import TensorBucket
from repro.models import VGGProxy
from repro.models.trainable import bert_base_proxy
from repro.tensor import Sequential, Tensor, clip_grad_norm, ones, randn, tensor, zeros
from repro.tensor import functional as F
from repro.tensor import layers as nn
from repro.tensor.tensor import _unbroadcast


def numeric_grad(f, x: Tensor, index, eps: float = 1e-6) -> float:
    x.data[index] += eps
    hi = f().item()
    x.data[index] -= 2 * eps
    lo = f().item()
    x.data[index] += eps
    return (hi - lo) / (2 * eps)


class TestBasics:
    def test_constructor_properties(self):
        t = Tensor(np.arange(6).reshape(2, 3), requires_grad=True, name="w")
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.numel() == 6
        assert t.name == "w"
        assert t.dtype.kind == "f"

    def test_factories(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((3,)).data.sum() == 3
        assert randn(4, 5, rng=np.random.default_rng(0)).shape == (4, 5)
        assert tensor([1.0, 2.0]).shape == (2,)

    def test_detach_breaks_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_copy_is_independent(self):
        a = Tensor([1.0], requires_grad=True)
        b = a.copy()
        b.data[0] = 5.0
        assert a.data[0] == 1.0


class TestArithmeticBackward:
    def test_add_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_mul_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3, 4])
        np.testing.assert_allclose(b.grad, [1, 2])

    def test_sub_and_neg(self):
        a = Tensor([2.0], requires_grad=True)
        ((-a) - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-2.0])

    def test_div_grad(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_pow_grad(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])
        a.zero_grad()
        (1.0 / a).sum().backward()
        np.testing.assert_allclose(a.grad, [-0.25])

    def test_matmul_2d(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        expected = numeric_grad(lambda: (a @ b).sum(), a, (1, 2))
        assert abs(a.grad[1, 2] - expected) < 1e-6

    def test_matmul_batched(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        expected = numeric_grad(lambda: (a @ b).sum(), b, (1, 2, 3))
        assert abs(b.grad[1, 2, 3] - expected) < 1e-6

    def test_broadcast_add_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [2, 2, 2])

    def test_grad_accumulates_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2 + a * 3).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)
        np.testing.assert_allclose(a.grad, np.ones((2, 6)))

    def test_transpose_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        (a.T * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        np.testing.assert_allclose(a.grad, np.arange(6.0).reshape(3, 2).T)

    def test_getitem_grad_scatter(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[1:3].sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 1, 0, 0])

    def test_mean_grad(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, [0.25] * 4)

    def test_sum_axis_keepdims(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [2.0, 20.0])

    def test_deep_chain_no_recursion(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 0.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_post_grad_hook_fires_once_with_final_grad(self):
        a = Tensor([1.0], requires_grad=True)
        seen = []
        a.register_post_grad_hook(lambda t: seen.append(t.grad.copy()))
        (a * 2 + a * 3).sum().backward()
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], [5.0])

    def test_hooks_fire_in_backward_order(self):
        a = Tensor([1.0], requires_grad=True, name="a")
        b = Tensor([1.0], requires_grad=True, name="b")
        order = []
        a.register_post_grad_hook(lambda t: order.append("a"))
        b.register_post_grad_hook(lambda t: order.append("b"))
        # b enters the graph later (closer to the loss) -> its hook fires first.
        ((a * 2) + b).sum().backward()
        assert order == ["b", "a"]

    def test_clear_post_grad_hooks(self):
        a = Tensor([1.0], requires_grad=True)
        seen = []
        a.register_post_grad_hook(lambda t: seen.append(1))
        a.clear_post_grad_hooks()
        (a * 1).sum().backward()
        assert seen == []

    def test_no_grad_flow_into_non_requires(self):
        a = Tensor([1.0], requires_grad=False)
        b = Tensor([1.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad is None
        assert b.grad is not None


class TestUnbroadcast:
    def test_extra_leading_dims(self):
        g = np.ones((4, 2, 3))
        out = _unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_size_one_dims(self):
        g = np.ones((2, 3))
        out = _unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_noop_when_equal(self):
        g = np.ones((2, 2))
        assert _unbroadcast(g, (2, 2)) is g


class TestGradientOwnership:
    """A leaf's ``.grad`` is its own, because callers scale it in place: a
    private array (first contribution copied) on an unbound leaf, the leaf's
    slot of its bucket's gradient buffer, and nothing else, on a bound one."""

    def test_leaves_sharing_one_upstream_do_not_alias(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        clip_grad_norm([a, b], max_norm=1.0)
        # Norm sqrt(12) -> every entry scaled exactly once, on both leaves.
        np.testing.assert_allclose(a.grad, np.full((2, 3), 1 / np.sqrt(12)))
        np.testing.assert_allclose(b.grad, a.grad)

    def test_leaf_reached_twice_accumulates(self):
        a = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, -4.0, 6.0])

    def test_upstream_grad_is_never_mutated_or_aliased(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        upstream = rng.standard_normal((2, 3))
        before = upstream.copy()
        (a + b).backward(upstream)
        assert not np.shares_memory(a.grad, upstream)
        assert not np.shares_memory(b.grad, upstream)
        clip_grad_norm([a, b], max_norm=1e-3)
        np.testing.assert_array_equal(upstream, before)

    def test_affine_weight_grad_is_dense_and_seen_by_nobody_else(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        upstream = rng.standard_normal((4, 3))
        (x @ w.T + b).backward(upstream)
        assert w.grad.shape == w.shape and w.grad.flags.c_contiguous
        for other in (upstream, x.data, w.data, x.grad, b.grad):
            assert not np.shares_memory(w.grad, other)
        np.testing.assert_allclose(w.grad, upstream.T @ x.data, rtol=1e-12)

    @staticmethod
    def _bound_pair(rng):
        """An affine layer's leaves bound to one bucket, and an unbound twin."""
        w, b = rng.standard_normal((3, 5)), rng.standard_normal(3)
        bound = [Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)]
        twin = [Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)]
        return TensorBucket(bound, flatten=True), bound, twin

    def test_bound_leaf_grad_is_its_slot_and_nothing_else(self, rng):
        bucket, (w, b), _ = self._bound_pair(rng)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        upstream = rng.standard_normal((4, 3))
        before = upstream.copy()
        assert w.grad is None and b.grad is None  # binding alone creates no gradient
        (x @ w.T + b).backward(upstream)
        flat = bucket.grad_buffer
        assert np.shares_memory(w.grad, flat[:15]) and not np.shares_memory(w.grad, flat[15:])
        assert np.shares_memory(b.grad, flat[15:]) and not np.shares_memory(b.grad, flat[:15])
        for other in (upstream, x.data, w.data, b.data, x.grad, bucket.buffer):
            assert not np.shares_memory(w.grad, other)
            assert not np.shares_memory(b.grad, other)
        assert bucket.flat_grad() is flat
        np.testing.assert_array_equal(flat[:15], (upstream.T @ x.data).reshape(-1))
        np.testing.assert_array_equal(upstream, before)

    def test_clip_grad_norm_scales_the_pool_once(self, rng):
        bucket, bound, twin = self._bound_pair(rng)
        for w, b in (bound, twin):
            (Tensor(np.ones((4, 5))) @ w.T + b).sum().backward()
        assert clip_grad_norm(bound, max_norm=0.5) == clip_grad_norm(twin, max_norm=0.5)
        np.testing.assert_array_equal(
            bucket.grad_buffer, np.concatenate([p.grad.reshape(-1) for p in twin])
        )

    def test_backward_twice_accumulates_in_the_slot(self, rng):
        bucket, bound, twin = self._bound_pair(rng)
        inputs = rng.standard_normal((2, 4, 5))
        for w, b in (bound, twin):
            for x in inputs:  # no zero_grad in between
                ((Tensor(x) @ w.T + b) * (Tensor(x) @ w.T)).sum().backward()
        for p, q in zip(bound, twin):
            assert np.shares_memory(p.grad, bucket.grad_buffer)
            np.testing.assert_array_equal(p.grad, q.grad)  # bitwise, not allclose

    def test_zero_grad_then_backward_leaves_nothing_stale(self, rng):
        bucket, (w, b), _ = self._bound_pair(rng)
        (Tensor(np.ones((4, 5))) @ w.T + b).sum().backward()
        assert bucket.flat_grad().all()
        bucket.zero_grad()
        (Tensor(np.ones((4, 5))) @ w.T).sum().backward()  # b takes no part this time
        assert b.grad is None
        flat = bucket.flat_grad()
        np.testing.assert_array_equal(flat[:15], np.full(15, 4.0))
        np.testing.assert_array_equal(flat[15:], np.zeros(3))
        assert b.grad is None  # reading the flat gradient did not invent one


def _hook_order(model, inputs, labels) -> list[str]:
    fired: list[str] = []
    for name, param in model.named_parameters():
        param.register_post_grad_hook(lambda _t, name=name: fired.append(name))
    F.cross_entropy(model(inputs), labels).backward()
    return fired


class TestGradientReadyOrder:
    """The order post-grad hooks fire in is what ``GradientReadyProfiler``
    records and bucket layouts are built from.  These lists were recorded
    before ``Linear`` became one fused node; kernels may change, they may not."""

    def test_vgg_proxy(self, rng):
        order = _hook_order(VGGProxy(rng=rng), rng.standard_normal((2, 3, 16, 16)), [1, 2])
        assert order == [
            "classifier.3.bias", "classifier.3.weight",
            "classifier.1.bias", "classifier.1.weight",
            "features.3.weight", "features.3.bias",
            "features.0.weight", "features.0.bias",
        ]  # fmt: skip

    def test_wide_mlp(self, rng):
        mlp = Sequential(
            nn.Flatten(),
            nn.Linear(768, 512, rng=rng), nn.ReLU(),
            nn.Linear(512, 512, rng=rng), nn.ReLU(),
            nn.Linear(512, 10, rng=rng),
        )  # fmt: skip
        order = _hook_order(mlp, Tensor(rng.standard_normal((2, 3, 16, 16))), [1, 2])
        assert order == ["5.bias", "5.weight", "3.bias", "3.weight", "1.bias", "1.weight"]

    def test_bert_proxy(self, rng):
        order = _hook_order(bert_base_proxy(rng=rng), rng.integers(0, 64, (2, 8)), [1, 2])
        block = "layers.0."
        assert order == ["head.bias", "head.weight"] + [block + name for name in (
            "ff2.bias", "ff2.weight", "ff1.bias", "ff1.weight",
            "norm2.weight", "norm2.bias",
            "attn.out_proj.bias", "attn.out_proj.weight",
            "attn.v_proj.bias", "attn.v_proj.weight",
            "attn.k_proj.bias", "attn.k_proj.weight",
            "attn.q_proj.bias", "attn.q_proj.weight",
            "norm1.weight", "norm1.bias",
        )] + ["embed.weight"]  # fmt: skip
