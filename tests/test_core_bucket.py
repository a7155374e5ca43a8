"""Tensor buckets: flattening, aliasing, gradient views, and the execution
optimizer's partitioning of parameters into them."""

import numpy as np
import pytest

from repro.core import BaguaConfig, ExecutionOptimizer, TensorBucket, profile_from_spec
from repro.models import vgg16_spec
from repro.tensor import DTYPE, Tensor

from .conftest import plan_buckets


def make_params(rng, shapes):
    return [Tensor(rng.standard_normal(s).astype(DTYPE), requires_grad=True) for s in shapes]


class TestFlattening:
    def test_flat_data_is_view_of_shared_buffer(self, rng):
        params = make_params(rng, [(2, 3), (4,)])
        bucket = TensorBucket(params)
        flat = bucket.flat_data()
        # Mutating the flat view mutates the parameters: zero-copy.
        flat[0] = 42.0
        assert params[0].data[0, 0] == 42.0

    def test_parameters_repointed_into_buffer(self, rng):
        params = make_params(rng, [(3,), (2, 2)])
        original = [p.data.copy() for p in params]
        bucket = TensorBucket(params)
        for p, orig in zip(params, original):
            np.testing.assert_array_equal(p.data, orig)
        # In-place update through a parameter reflects in the flat view.
        params[1].data[0, 0] = -7.0
        assert bucket.flat_data()[3] == -7.0

    def test_set_flat_data_shape_check(self, rng):
        bucket = TensorBucket(make_params(rng, [(2,)]))
        with pytest.raises(ValueError):
            bucket.set_flat_data(np.zeros(3))

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError):
            TensorBucket([])


class TestGradients:
    def test_flat_grad_concatenates(self, rng):
        params = make_params(rng, [(2,), (3,)])
        params[0].grad = np.array([1.0, 2.0])
        params[1].grad = np.array([3.0, 4.0, 5.0])
        bucket = TensorBucket(params)
        np.testing.assert_array_equal(bucket.flat_grad(), [1, 2, 3, 4, 5])

    def test_missing_grad_is_zero(self, rng):
        params = make_params(rng, [(2,), (2,)])
        params[0].grad = np.ones(2)
        bucket = TensorBucket(params)
        np.testing.assert_array_equal(bucket.flat_grad(), [1, 1, 0, 0])

    def test_set_flat_grad_scatters(self, rng):
        params = make_params(rng, [(2,), (1, 2)])
        bucket = TensorBucket(params)
        bucket.set_flat_grad(np.arange(4.0))
        np.testing.assert_array_equal(params[1].grad, [[2, 3]])

    def test_flat_grad_is_live_when_flattened(self, rng):
        """The contract since gradients are born in the bucket: a view, not a copy."""
        params = make_params(rng, [(2,), (3,)])
        bucket = TensorBucket(params)
        bucket.set_flat_grad(np.arange(5.0))
        flat = bucket.flat_grad()
        flat *= 2.0
        np.testing.assert_array_equal(params[1].grad, [4, 6, 8])
        params[0].grad[0] = -1.0
        assert bucket.flat_grad()[0] == -1.0

    def test_existing_grad_is_adopted_at_bind_time(self, rng):
        params = make_params(rng, [(2,), (2,)])
        early = np.array([1.0, 2.0])
        params[0].grad = early  # e.g. the profiling iteration's
        bucket = TensorBucket(params)
        assert np.shares_memory(params[0].grad, bucket.grad_buffer)
        assert not np.shares_memory(params[0].grad, early)
        assert params[1].grad is None
        np.testing.assert_array_equal(bucket.flat_grad(), [1, 2, 0, 0])

    @pytest.mark.parametrize("which", ["grad", "data"])
    def test_storing_a_view_of_the_buffer_stores_nothing(self, rng, which):
        """A re-sliced view of the buffer is the buffer: with the buffer
        read-only, any store into it would raise."""
        params = make_params(rng, [(2, 3), (4,)])
        bucket = TensorBucket(params)
        bucket.set_flat_grad(np.arange(10.0))
        buffer = bucket.grad_buffer if which == "grad" else bucket.buffer
        get, put = (
            (bucket.flat_grad, bucket.set_flat_grad)
            if which == "grad"
            else (bucket.flat_data, bucket.set_flat_data)
        )
        before = buffer.copy()
        buffer.flags.writeable = False
        try:
            put(get()[:])
            put(get())
            with pytest.raises(ValueError, match="read-only"):
                put(before)  # a different array does get stored
        finally:
            buffer.flags.writeable = True
        np.testing.assert_array_equal(buffer, before)
        assert all(np.shares_memory(p.grad, bucket.grad_buffer) for p in params)

    def test_external_grad_buffer_is_validated(self, rng):
        params = make_params(rng, [(2,), (2,)])
        with pytest.raises(ValueError):
            TensorBucket(params, grad_buffer=np.zeros(3))

    def test_grads_ready(self, rng):
        params = make_params(rng, [(2,), (2,)])
        bucket = TensorBucket(params)
        assert not bucket.grads_ready()
        for p in params:
            p.grad = np.zeros(2)
        assert bucket.grads_ready()

    def test_zero_grad(self, rng):
        params = make_params(rng, [(2,)])
        params[0].grad = np.ones(2)
        bucket = TensorBucket(params)
        bucket.zero_grad()
        assert params[0].grad is None


class TestPartitioning:
    def test_respects_byte_cap(self, rng):
        params = make_params(rng, [(100,)] * 10)
        buckets = plan_buckets(params, bucket_bytes=100 * 4 * 3)
        assert all(len(b) <= 3 for b in buckets)
        assert sum(len(b) for b in buckets) == 10

    def test_oversized_tensor_gets_own_bucket(self, rng):
        params = make_params(rng, [(10,), (1000,), (10,)])
        buckets = plan_buckets(params, bucket_bytes=200)
        assert [len(b) for b in buckets] == [1, 1, 1]

    def test_order_preserved(self, rng):
        params = make_params(rng, [(5,), (6,), (7,)])
        buckets = plan_buckets(params, bucket_bytes=1e9)
        assert buckets[0].params == params

    def test_invalid_cap(self):
        # VGG16: a cap of 0 or -1 would plan one bucket per tensor, and NaN
        # (no size comparison trips it) one bucket for the whole model.
        profile = profile_from_spec(vgg16_spec().layers)
        for cap in (0, -1, float("nan")):
            for flatten in (True, False):
                config = BaguaConfig(flatten=flatten, bucket_bytes=cap)
                with pytest.raises(ValueError, match="bucket_bytes must be positive"):
                    ExecutionOptimizer(config).plan(profile, per_bucket_updates=True)

    def test_total_elements(self, rng):
        params = make_params(rng, [(3,), (2, 2)])
        bucket = TensorBucket(params)
        assert bucket.total_elements == 7
        assert bucket.nbytes == 7 * DTYPE.itemsize
