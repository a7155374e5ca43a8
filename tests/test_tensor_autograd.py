"""Autograd core: arithmetic, broadcasting, backward, hooks."""

import inspect
import tracemalloc

import numpy as np
import pytest

from repro.core import TensorBucket
from repro.models import VGGProxy
from repro.models.trainable import LSTMAlexNetProxy, TransformerProxy, bert_base_proxy
from repro.tensor import DTYPE, Sequential, Tensor, clip_grad_norm, ones, randn, tensor, zeros
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
    slot of its bucket's gradient buffer, and nothing else, on a bound one.
    The root owns a copy of its seed; an interior node borrows the first
    array it is handed and never writes into it."""

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

    def test_root_keeps_a_copy_of_the_seed(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        seed = rng.standard_normal(3)
        before = seed.copy()
        root = a * 2.0
        root.backward(seed)
        np.testing.assert_array_equal(root.grad, seed)
        assert not np.shares_memory(root.grad, seed)
        root.grad *= 0.0  # the root's to scale; the caller's array is not
        np.testing.assert_array_equal(seed, before)

    def test_interior_node_borrows_first_and_sums_into_a_fresh_array(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        hidden = a * 1.0
        first, second = np.ones(3), np.broadcast_to(2.0, (3,))  # the second is read-only
        kept = []

        def hands_over(array):
            return Tensor._make(np.zeros(3), (hidden,), lambda _g: hidden._accumulate(array))

        # Backward runs the node made last first: ``first`` is handed over,
        # the probe looks at what ``hidden`` holds, then ``second`` is added.
        nodes = [
            hands_over(second),
            Tensor._make(np.zeros(3), (hidden,), lambda _g: kept.append(hidden.grad)),
            hands_over(first),
        ]
        (nodes[0] + nodes[1] + nodes[2]).sum().backward()
        assert kept[0] is first  # borrowed, not copied
        np.testing.assert_array_equal(first, np.ones(3))  # and not summed into
        np.testing.assert_array_equal(a.grad, np.full(3, 3.0))

    @pytest.mark.parametrize("bound", [False, True])
    def test_leaves_behind_views_of_one_gradient_alias_nothing(self, rng, bound):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        bucket = TensorBucket([a, b]) if bound else None
        seed = rng.standard_normal(6)
        before = seed.copy()
        root = a.reshape(6) + b.transpose().reshape(6)  # both leaves are handed views of root.grad
        root.backward(seed)
        for grad, other in ((a.grad, b.grad), (b.grad, a.grad)):
            for array in (other, seed, root.grad, a.data, b.data):
                assert not np.shares_memory(grad, array)
        if bound:
            flat = bucket.grad_buffer
            assert np.shares_memory(a.grad, flat[:6]) and not np.shares_memory(a.grad, flat[6:])
            assert np.shares_memory(b.grad, flat[6:]) and not np.shares_memory(b.grad, flat[:6])
        clip_grad_norm([a, b], max_norm=1e-3)
        np.testing.assert_array_equal(seed, before)
        np.testing.assert_array_equal(root.grad, before)

    @staticmethod
    def _bound_pair(rng):
        """An affine layer's leaves bound to one bucket, and an unbound twin."""
        w, b = rng.standard_normal((3, 5)).astype(DTYPE), rng.standard_normal(3).astype(DTYPE)
        bound = [Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)]
        twin = [Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)]
        return TensorBucket(bound), bound, twin

    def test_bound_leaf_grad_is_its_slot_and_nothing_else(self, rng):
        bucket, (w, b), _ = self._bound_pair(rng)
        x = Tensor(rng.standard_normal((4, 5)).astype(DTYPE), requires_grad=True)
        upstream = rng.standard_normal((4, 3)).astype(DTYPE)
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
            (Tensor(np.ones((4, 5), DTYPE)) @ w.T + b).sum().backward()
        assert clip_grad_norm(bound, max_norm=0.5) == clip_grad_norm(twin, max_norm=0.5)
        np.testing.assert_array_equal(
            bucket.grad_buffer, np.concatenate([p.grad.reshape(-1) for p in twin])
        )

    def test_backward_twice_accumulates_in_the_slot(self, rng):
        bucket, bound, twin = self._bound_pair(rng)
        inputs = rng.standard_normal((2, 4, 5)).astype(DTYPE)
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


class TestLinear:
    """``F.linear`` is the unfused ``x @ W.T + b`` graph as one node: the same
    gradients, and the weight's born in its own layout, in its slot if bound."""

    @staticmethod
    def _leaves(rng, x_shape, out=6, dtype=np.float64):
        x = rng.standard_normal(x_shape)
        w, b = rng.standard_normal((out, x_shape[-1])), rng.standard_normal(out)
        return [Tensor(a.astype(dtype), requires_grad=True) for a in (x, w, b)]

    @staticmethod
    def _grads(x_shape, fused, bound=False, dtype=np.float64):
        """Gradients of fixed (x, W, b) under a fixed upstream; a bound model's
        data is cast back to ``dtype`` after binding, its slots stay ``DTYPE``."""
        rng = np.random.default_rng(0)
        x, w, b = TestLinear._leaves(rng, x_shape, dtype=dtype)
        if bound:
            TensorBucket([w, b])
            for p in (w, b):
                p.data = p.data.astype(dtype)
        root = F.linear(x, w, b) if fused else x @ w.T + b
        root.backward(rng.standard_normal(root.shape).astype(dtype))
        return [p.grad for p in (x, w, b)]

    @pytest.mark.parametrize("bound", [False, True])
    def test_2d_gradients_are_the_unfused_graphs_bits(self, bound):
        fused, plain = self._grads((8, 20), True, bound), self._grads((8, 20), False, bound)
        for got, want in zip(fused, plain):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("x_shape", [(2, 5, 20), (20,)], ids=["3-D", "1-D"])
    def test_other_ranks_match_the_unfused_graph(self, x_shape):
        fused, plain = self._grads(x_shape, True), self._grads(x_shape, False)
        for got, want in zip(fused, plain):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_bound_weight_grad_is_its_slot(self, rng):
        x, w, b = self._leaves(rng, (4, 5))
        bucket = TensorBucket([w, b])
        slot = w._grad_slot
        F.linear(x, w, b).backward(rng.standard_normal((4, 6)))
        assert w.grad is slot and np.shares_memory(w.grad, bucket.grad_buffer)
        np.testing.assert_array_equal(bucket.grad_buffer[:30], w.grad.reshape(-1))

    def test_bound_backward_allocates_no_weight_sized_temporary(self, rng):
        x = Tensor(rng.standard_normal((8, 512)).astype(DTYPE))
        w = Tensor(rng.standard_normal((256, 512)).astype(DTYPE), requires_grad=True)
        TensorBucket([w])
        root = F.linear(x, w)
        upstream = rng.standard_normal((8, 256)).astype(DTYPE)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            root.backward(upstream)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert w.grad is w._grad_slot
        assert peak < w.data.nbytes // 4, f"backward allocated {peak} B at its peak"

    @pytest.mark.parametrize("bound", [False, True])
    def test_weight_used_twice_sums_both_contributions(self, rng, bound):
        x, w, _ = self._leaves(rng, (4, 6), dtype=DTYPE)
        twin = Tensor(w.data.copy(), requires_grad=True)
        if bound:
            TensorBucket([w])
        upstream = rng.standard_normal((4, 6)).astype(DTYPE)
        F.linear(F.linear(x, w), w).backward(upstream)
        ((Tensor(x.data) @ twin.T) @ twin.T).backward(upstream)
        np.testing.assert_array_equal(w.grad, twin.grad)

    def test_float64_model_on_float32_slots_rounds_each_gradient_once(self):
        """The fused GEMM writes a float64 product into a ``DTYPE`` slot with
        the one rounding the unfused graph's store into it makes."""
        fused = self._grads((8, 20), True, True, np.float64)
        plain = self._grads((8, 20), False, True, np.float64)
        assert fused[1].dtype == DTYPE  # the slot's, holding a float64 GEMM's values
        assert fused[0].dtype == np.float64  # the input is unbound: its own precision
        for got, want in zip(fused, plain):
            assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# The borrow contract, executable: no kernel writes into a gradient it is handed
# ----------------------------------------------------------------------
@pytest.fixture
def read_only_borrows(monkeypatch):
    """Every array an interior node borrows is read-only for the rest of the
    test, so a backward closure that writes into a gradient it received (or
    into one it has handed on) raises.  A view that is read-only already does
    not own the flag (``broadcast_to``) and is left alone."""
    accumulate, frozen = Tensor._accumulate, []

    def poisoning(self, grad):
        first = self.grad is None
        accumulate(self, grad)
        kept = self.grad
        if first and self._backward_fn is not None and kept is not None and kept.flags.writeable:
            kept.flags.writeable = False
            frozen.append(kept)

    monkeypatch.setattr(Tensor, "_accumulate", poisoning)
    yield
    for array in frozen:  # oldest first: a view thaws after its base
        array.flags.writeable = True


class _Leaves:
    """``leaves(*shape)`` makes a leaf and returns it behind an interior node,
    so that what the op under test hands to its inputs is borrowed too."""

    def __init__(self, rng):
        self.rng, self.made = rng, []

    def __call__(self, *shape, positive=False):
        data = self.rng.standard_normal(shape)
        self.made.append(Tensor(np.abs(data) + 0.5 if positive else data, requires_grad=True))
        return self.made[-1] * 1.0


def _mlp(rng):
    """The wide MLP's shape (``TestGradientReadyOrder.test_wide_mlp``), narrow."""
    return Sequential(
        nn.Flatten(), nn.Linear(48, 32, rng=rng), nn.ReLU(), nn.Linear(32, 32, rng=rng),
        nn.ReLU(), nn.Linear(32, 10, rng=rng),
    )  # fmt: skip


def _model_loss(factory, make_inputs, classes):
    def graph(t, rng):
        model = factory(rng=rng)
        t.made.extend(model.parameters())
        return F.cross_entropy(model(make_inputs(rng)), rng.integers(0, classes, 2))

    return graph


def _images(size):
    return lambda rng: rng.standard_normal((2, 3, size, size))


def _tokens(vocab):
    return lambda rng: rng.integers(0, vocab, (2, 8))


#: name -> graph(leaves, rng) -> root.  The models, then every public op of
#: ``functional.py`` by name (``test_every_public_op_has_a_graph``), then
#: the ``Tensor`` methods.
GRAPHS = {
    "VGGProxy": _model_loss(VGGProxy, _images(16), 10),
    "wide MLP": _model_loss(_mlp, lambda rng: Tensor(_images(4)(rng)), 10),
    "bert_base_proxy": _model_loss(bert_base_proxy, _tokens(64), 4),
    "TransformerProxy": _model_loss(TransformerProxy, _tokens(64), 4),
    "LSTMAlexNetProxy": _model_loss(
        LSTMAlexNetProxy, lambda rng: (_images(12)(rng), _tokens(32)(rng)), 6
    ),
    "relu": lambda t, rng: F.relu(t(3, 4)),
    "tanh": lambda t, rng: F.tanh(t(3, 4)),
    "sigmoid": lambda t, rng: F.sigmoid(t(3, 4)),
    "gelu": lambda t, rng: F.gelu(t(3, 4)),
    "exp": lambda t, rng: F.exp(t(3, 4)),
    "log": lambda t, rng: F.log(t(3, 4, positive=True)),
    "sqrt": lambda t, rng: F.sqrt(t(3, 4, positive=True)),
    "clip": lambda t, rng: F.clip(t(3, 4), -0.5, 0.5),
    "softmax": lambda t, rng: F.softmax(t(3, 4)),
    "log_softmax": lambda t, rng: F.log_softmax(t(3, 4)),
    "cross_entropy": lambda t, rng: F.cross_entropy(t(3, 4), [0, 3, 1]),
    "mse_loss": lambda t, rng: F.mse_loss(t(3, 4), rng.standard_normal((3, 4))),
    "nll_loss": lambda t, rng: F.nll_loss(t(3, 4), [0, 3, 1]),
    "concat": lambda t, rng: F.concat([t(2, 3), t(2, 2)], axis=1),
    "stack": lambda t, rng: F.stack([t(2, 3), t(2, 3)], axis=1),
    "dropout": lambda t, rng: F.dropout(t(3, 4), 0.5, rng),
    "embedding_lookup": lambda t, rng: F.embedding_lookup(t(5, 3), [[0, 2], [2, 4]]),
    "linear": lambda t, rng: F.linear(t(2, 3, 4), t(5, 4), t(5)),
    "conv2d": lambda t, rng: F.conv2d(t(2, 2, 5, 5), t(3, 2, 3, 3), t(3), stride=2, padding=1),
    "max_pool2d": lambda t, rng: F.max_pool2d(t(2, 2, 5, 5), 2, 1),
    "avg_pool2d": lambda t, rng: F.avg_pool2d(t(2, 2, 5, 5), 2, 1),
    "batch_norm2d": lambda t, rng: F.batch_norm2d(
        t(2, 3, 4, 4), t(3), t(3), np.zeros(3), np.ones(3), training=True
    ),
    "layer_norm": lambda t, rng: F.layer_norm(t(2, 3, 4), t(4), t(4)),
    "Tensor methods": lambda t, rng: (
        ((t(2, 3) @ t(3, 4) - t(4)) / t(2, 4, positive=True) * -t(1, 4)) ** 2 + t(2, 1)
    ).transpose()[1:3, ::-1].reshape(2, 2, 1).mean(axis=1).sum(axis=0, keepdims=True),
}  # fmt: skip


def _leaf_grads(name) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    leaves = _Leaves(rng)
    root = GRAPHS[name](leaves, rng)
    root.backward(rng.standard_normal(root.shape))
    return [leaf.grad for leaf in leaves.made]


class TestBorrowedGradientsAreNeverWrittenInto:
    def test_every_public_op_has_a_graph(self):
        public = {
            name for name, op in vars(F).items()
            if inspect.isfunction(op) and op.__module__ == F.__name__ and name[0] != "_"
        }  # fmt: skip
        assert public <= set(GRAPHS)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_backward_under_read_only_borrows(self, name, request):
        plain = _leaf_grads(name)
        request.getfixturevalue("read_only_borrows")
        poisoned = _leaf_grads(name)  # nothing may raise
        assert len(plain) == len(poisoned) > 0
        for got, want in zip(poisoned, plain):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_the_fixture_catches_a_kernel_that_writes(self, read_only_borrows):
        a = Tensor(np.ones(3), requires_grad=True)

        def scales_in_place(grad):
            grad *= 2.0
            a._accumulate(grad)

        with pytest.raises(ValueError, match="read-only"):
            Tensor._make(np.zeros(3), (a,), scales_in_place).sum().backward()


def _hook_order(model, inputs, labels) -> list[str]:
    fired: list[str] = []
    for name, param in model.named_parameters():
        param.register_post_grad_hook(lambda _t, name=name: fired.append(name))
    F.cross_entropy(model(inputs), labels).backward()
    return fired


class TestGradientReadyOrder:
    """The order post-grad hooks fire in is what ``GradientReadyProfiler``
    records and bucket layouts are built from.  Kernels may change, these
    lists may not."""

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

    def test_lstm_alexnet_proxy(self, rng):
        inputs = (rng.standard_normal((2, 3, 12, 12)), rng.integers(0, 32, (2, 8)))
        order = _hook_order(LSTMAlexNetProxy(rng=rng), inputs, [1, 2])
        assert order == [
            "head.bias", "head.weight",
            "lstm.cell.bias", "lstm.cell.weight_hh", "lstm.cell.weight_ih",
            "embed.weight", "image_tower.0.weight", "image_tower.0.bias",
        ]  # fmt: skip
