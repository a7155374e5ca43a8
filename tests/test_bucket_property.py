"""Property tests: TensorBucket flattening is a bit-exact re-pointing.

The analyzer's buffer-aliasing rule assumes the fused buffer and the
per-parameter views are the *same* memory.  These Hypothesis tests pin that
contract for arbitrary shape partitions: flatten -> mutate the flat view ->
every parameter observes exactly its slice, bit for bit, and vice versa —
for the weights, and for the gradients backward accumulates into the
bucket's second buffer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import TensorBucket
from repro.tensor.tensor import DTYPE, Tensor

from .conftest import plan_buckets

shapes = st.lists(
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=6,
)


def make_params(shape_list, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=shape).astype(DTYPE), requires_grad=True) for shape in shape_list]


def backward_all(params, seed, skip=()):
    """One backward pass reaching every parameter not in ``skip``, each twice."""
    rng = np.random.default_rng(seed)
    loss = None
    for i, p in enumerate(params):
        if i not in skip:
            term = (p * Tensor(rng.normal(size=p.shape).astype(DTYPE)) + p * p).sum()
            loss = term if loss is None else loss + term
    if loss is not None:
        loss.backward()


@given(shape_list=shapes, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_flatten_mutate_roundtrip_bit_exact(shape_list, seed):
    params = make_params(shape_list, seed)
    before = [p.data.copy() for p in params]
    bucket = TensorBucket(params, name="b")

    # Flattening itself must not perturb a single bit.
    for p, ref in zip(params, before):
        assert np.array_equal(p.data, ref)
        assert np.shares_memory(p.data, bucket.buffer)

    # Mutating through the flat view is observed exactly by each param view.
    new = np.random.default_rng(seed + 1).normal(size=bucket.total_elements).astype(DTYPE)
    bucket.flat_data()[...] = new
    for p, lo, hi in zip(bucket.params, bucket._offsets, bucket._offsets[1:]):
        assert np.array_equal(p.data.reshape(-1), new[lo:hi])

    # ... and the other direction: writing a param shows up in the flat view.
    params[0].data[...] = 7.25  # exactly representable
    assert np.array_equal(
        bucket.flat_data()[: params[0].data.size],
        np.full(params[0].data.size, 7.25),
    )


@given(
    shape_list=shapes,
    seed=st.integers(0, 2**31 - 1),
    bucket_bytes=st.floats(min_value=8.0, max_value=2048.0),
)
@settings(max_examples=40, deadline=None)
def test_partition_covers_every_param_once_in_order(shape_list, seed, bucket_bytes):
    params = make_params(shape_list, seed)
    buckets = plan_buckets(params, bucket_bytes)
    flattened = [p for bucket in buckets for p in bucket.params]
    assert [id(p) for p in flattened] == [id(p) for p in params]
    assert sum(b.total_elements for b in buckets) == sum(p.data.size for p in params)


@given(
    shape_list=shapes,
    seed=st.integers(0, 2**31 - 1),
    bucket_bytes=st.floats(min_value=8.0, max_value=2048.0),
    skipped=st.sets(st.integers(0, 5)),
)
@settings(max_examples=60, deadline=None)
def test_flat_grad_is_the_concatenated_gradients(shape_list, seed, bucket_bytes, skipped):
    params, twins = make_params(shape_list, seed), make_params(shape_list, seed)
    buckets = plan_buckets(params, bucket_bytes)
    for _ in range(2):  # the second pass must not see the first one's values
        for p in params + twins:
            p.zero_grad()
        backward_all(params, seed + 1, skip=skipped)
        backward_all(twins, seed + 1, skip=skipped)
        expected = np.concatenate(
            [(np.zeros(t.shape) if t.grad is None else t.grad).reshape(-1) for t in twins]
        )
        flats = [bucket.flat_grad() for bucket in buckets]
        assert np.array_equal(np.concatenate(flats), expected)
        for bucket, flat in zip(buckets, flats):
            # Zero-copy: the buffer itself, which is where the gradients live.
            assert flat is bucket.grad_buffer
            assert all(p.grad is None or np.shares_memory(p.grad, flat) for p in bucket.params)
        # Parameters the pass skipped read zero in the flat view, None directly.
        assert [p.grad is None for p in params] == [i in skipped for i in range(len(params))]


@given(shape_list=shapes, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_out_of_band_grad_is_adopted(shape_list, seed):
    params = make_params(shape_list, seed)
    bucket = TensorBucket(params, name="b")
    backward_all(params, seed + 1)
    foreign = np.random.default_rng(seed + 2).normal(size=params[-1].shape).astype(DTYPE)
    params[-1].grad = foreign  # assigned from outside, not accumulated
    flat = bucket.flat_grad()
    assert flat is bucket.grad_buffer
    assert np.array_equal(flat[flat.size - foreign.size :], foreign.reshape(-1))
    # ... by moving it into the slot: the parameter's gradient is pool memory
    # again and the caller's array is left alone.
    assert np.shares_memory(params[-1].grad, flat)
    assert not np.shares_memory(params[-1].grad, foreign)
