"""Optimizers: update rules, state, flat-view stepping."""

import tracemalloc

import numpy as np
import pytest

from repro.tensor import Adam, AdamW, SGD, Tensor
from repro.tensor.optim import SGD_BLOCK


def params_with_grads(values, grads):
    out = []
    for v, g in zip(values, grads):
        t = Tensor(np.array(v, dtype=float), requires_grad=True)
        t.grad = np.array(g, dtype=float)
        out.append(t)
    return out


class TestSGD:
    def test_plain_step(self):
        (p,) = params_with_grads([[1.0, 2.0]], [[0.5, 0.5]])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 1.95])

    def test_momentum_accumulates(self):
        (p,) = params_with_grads([[0.0]], [[1.0]])
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()  # v=1, x=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, x=-2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_nesterov(self):
        (p,) = params_with_grads([[0.0]], [[1.0]])
        opt = SGD([p], lr=1.0, momentum=0.9, nesterov=True)
        opt.step()  # v=1; update = g + 0.9*v = 1.9
        np.testing.assert_allclose(p.data, [-1.9])

    def test_weight_decay(self):
        (p,) = params_with_grads([[2.0]], [[0.0]])
        SGD([p], lr=0.5, weight_decay=0.1).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.5 * 0.2])

    def test_invalid_lr(self):
        (p,) = params_with_grads([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)

    @pytest.mark.parametrize(
        "kwargs", [{"momentum": -0.9}, {"weight_decay": -1e-4}], ids=["momentum", "weight_decay"]
    )
    def test_negative_momentum_or_weight_decay_is_rejected(self, kwargs):
        (p,) = params_with_grads([[1.0]], [[1.0]])
        (value,) = kwargs.values()
        with pytest.raises(ValueError, match=str(value)):
            SGD([p], lr=0.1, **kwargs)

    def test_nesterov_requires_momentum(self):
        (p,) = params_with_grads([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, nesterov=True)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_state_dict_roundtrip(self):
        (p,) = params_with_grads([[0.0]], [[1.0]])
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()
        state = opt.state_dict()
        (q,) = params_with_grads([[0.0]], [[1.0]])
        opt2 = SGD([q], lr=1.0, momentum=0.9)
        opt2.load_state_dict(state)
        q.grad = np.array([1.0])
        opt2.step()
        np.testing.assert_allclose(q.data, [-1.9])

    def test_zero_grad(self):
        (p,) = params_with_grads([[1.0]], [[1.0]])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step is ~lr * sign(g).
        (p,) = params_with_grads([[0.0]], [[3.0]])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-8)

    def test_matches_reference_two_steps(self):
        (p,) = params_with_grads([[1.0]], [[0.5]])
        opt = Adam([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        # Reference computed with the textbook Adam recursion.
        x, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            g = 0.5
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            x -= 0.1 * mh / (np.sqrt(vh) + 1e-8)
            p.grad = np.array([g])
            opt.step()
        np.testing.assert_allclose(p.data, [x], atol=1e-12)

    def test_freeze_variance_keeps_v(self):
        (p,) = params_with_grads([[0.0]], [[1.0]])
        opt = Adam([p], lr=0.1)
        opt.step()
        v_before = opt._v[0].copy()
        opt.freeze_variance()
        p.grad = np.array([100.0])
        opt.step()
        np.testing.assert_allclose(opt._v[0], v_before)

    def test_state_dict_roundtrip(self):
        (p,) = params_with_grads([[0.0]], [[1.0]])
        opt = Adam([p], lr=0.1)
        opt.step()
        state = opt.state_dict()
        opt2 = Adam([Tensor(np.array([0.0]), requires_grad=True)], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2.t == 1
        np.testing.assert_allclose(opt2._m[0], opt._m[0])


class TestAdamW:
    def test_decoupled_decay(self):
        (p,) = params_with_grads([[1.0]], [[0.0]])
        AdamW([p], lr=0.1, weight_decay=0.5).step()
        # Pure decay (grad 0): x <- x - lr * wd * x = 0.95; Adam term ~0.
        np.testing.assert_allclose(p.data, [0.95], atol=1e-6)

    def test_decay_not_in_moments(self):
        (p,) = params_with_grads([[1.0]], [[0.0]])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.step()
        np.testing.assert_allclose(opt._m[0], [0.0])


class TestFlatViewStepping:
    def test_step_on_arrays_matches_step(self):
        (p1,) = params_with_grads([[1.0, 2.0]], [[0.1, 0.2]])
        (p2,) = params_with_grads([[1.0, 2.0]], [[0.1, 0.2]])
        opt1 = SGD([p1], lr=0.5, momentum=0.9)
        opt2 = SGD([p2], lr=0.5, momentum=0.9)
        opt1.step()
        opt2.step_on_arrays([p2.data], [p2.grad])
        np.testing.assert_allclose(p1.data, p2.data)

    def test_step_on_flat_buffer_updates_in_place(self):
        buffer = np.ones(4)
        grads = np.full(4, 0.5)
        opt = SGD([Tensor(np.zeros(1), requires_grad=True)], lr=0.1)
        opt.step_on_arrays([buffer], [grads])
        np.testing.assert_allclose(buffer, np.full(4, 0.95))

    def test_missing_grad_treated_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])


#: every update rule of SGD: plain, momentum, Nesterov, and weight decay on each
SGD_RULES = {
    "plain": {},
    "momentum": {"momentum": 0.9},
    "nesterov": {"momentum": 0.9, "nesterov": True},
    "plain+wd": {"weight_decay": 1e-3},
    "momentum+wd": {"momentum": 0.9, "weight_decay": 1e-3},
    "nesterov+wd": {"momentum": 0.9, "nesterov": True, "weight_decay": 1e-3},
}


def unblocked_sgd(x, v, g, lr, momentum=0.0, weight_decay=0.0, nesterov=False):
    """One step of the whole-array formula: ``v`` and ``x`` updated in place."""
    if weight_decay:
        g = g + weight_decay * x
    if momentum:
        v *= momentum
        v += g
        g = g + momentum * v if nesterov else v
    x -= lr * g


class TestBlockedSGD:
    """``SGD.step_on_slots`` walks each slot in blocks of ``SGD_BLOCK``
    elements; each element still sees the unblocked formula's operations."""

    @pytest.mark.parametrize("rule", sorted(SGD_RULES))
    @pytest.mark.parametrize(
        "size", [SGD_BLOCK - 1, SGD_BLOCK, SGD_BLOCK + 1, 3 * SGD_BLOCK + 7],
        ids=["block-1", "block", "block+1", "3block+7"],
    )  # fmt: skip
    def test_bitwise_equal_to_the_unblocked_formula(self, rule, size):
        kwargs = SGD_RULES[rule]
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size)
        x[:3] = -0.0
        expected, velocity = x.copy(), np.zeros(size)
        opt = SGD([Tensor(np.zeros(1))], lr=0.05, **kwargs)
        for _ in range(2):
            g = rng.standard_normal(size)
            unblocked_sgd(expected, velocity, g, 0.05, **kwargs)
            opt.step_on_slots([0], [x], [g])
            assert x.tobytes() == expected.tobytes()
        if kwargs.get("momentum"):
            assert opt._velocity[0].tobytes() == velocity.tobytes()

    def test_subnormal_velocity_is_flushed_within_one_sweep_of_the_blocks(self):
        size, blocks = 3 * SGD_BLOCK + 7, 4
        x, zero = np.ones(size, dtype=np.float32), np.zeros(size, dtype=np.float32)
        tiny = np.finfo(np.float32).tiny
        opt = SGD([Tensor(np.zeros(1))], lr=0.01, momentum=0.9)
        opt.step_on_slots([0], [x], [np.full(size, 1e-3, dtype=np.float32)])
        # A zero gradient from here on: the velocity decays towards the subnormals.
        while np.abs(opt._velocity[0]).min() >= tiny / 0.9:
            opt.step_on_slots([0], [x], [zero])
        for _ in range(blocks):
            opt.step_on_slots([0], [x], [zero])
        assert not opt._velocity[0].any()
        resumed = SGD([Tensor(np.zeros(1))], lr=0.01, momentum=0.9)
        resumed.load_state_dict(opt.state_dict())
        assert resumed.state_dict()["flush_turn"] == opt.state_dict()["flush_turn"]

    @pytest.mark.parametrize("rule", ["momentum", "nesterov+wd"])
    def test_two_dimensional_parameter_through_step(self, rule):
        kwargs = SGD_RULES[rule]
        rng = np.random.default_rng(1)
        shape = (3 * SGD_BLOCK // 1000 + 5, 1000)  # blocks of whole rows, a short last one
        p = Tensor(rng.standard_normal(shape), requires_grad=True)
        expected, velocity = p.data.copy(), np.zeros(shape)
        opt = SGD([p], lr=0.1, **kwargs)
        for _ in range(2):
            p.grad = rng.standard_normal(shape)
            unblocked_sgd(expected, velocity, p.grad, 0.1, **kwargs)
            opt.step()
            assert p.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rule", ["plain", "momentum+wd"])
    def test_non_contiguous_array_is_updated_in_place(self, rule):
        kwargs = SGD_RULES[rule]
        rng = np.random.default_rng(2)
        backing = rng.standard_normal((2 * SGD_BLOCK + 3, 4))
        before = backing.copy()
        x = backing[::2, 1]  # strided on both axes
        expected = x.copy()
        g = rng.standard_normal(x.shape)
        unblocked_sgd(expected, np.zeros(x.shape), g, 0.1, **kwargs)
        SGD([Tensor(np.zeros(1))], lr=0.1, **kwargs).step_on_slots([0], [x], [g])
        assert backing[::2, 1].tobytes() == expected.tobytes()
        untouched = np.ones(backing.shape, dtype=bool)
        untouched[::2, 1] = False
        assert np.array_equal(backing[untouched], before[untouched])

    @pytest.mark.parametrize("rule", ["plain", "momentum", "nesterov+wd"])
    def test_a_bucket_sized_step_allocates_no_bucket_sized_temporary(self, rule):
        size = 16 * SGD_BLOCK
        rng = np.random.default_rng(3)
        x, g = rng.standard_normal(size), rng.standard_normal(size)
        opt = SGD([Tensor(np.zeros(1))], lr=0.1, **SGD_RULES[rule])
        opt.step_on_slots([0], [x], [g])  # the first step allocates the velocity
        tracemalloc.start()
        try:
            opt.step_on_slots([0], [x], [g])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 4
