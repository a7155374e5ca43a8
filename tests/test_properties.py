"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays as np_arrays

from repro.cluster import ClusterSpec, Transport
from repro.comm import CommGroup, chunk_bounds, ring_allreduce, scatter_reduce
from repro.compression import (
    ErrorFeedback,
    FP16Compressor,
    OneBitCompressor,
    QSGDCompressor,
    TopKCompressor,
)
from repro.core import RandomPeers, TensorBucket, d_fp_s
from repro.tensor import DTYPE, Tensor
from repro.tensor.tensor import _unbroadcast

from .conftest import exact_rows

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def float_vectors(min_size=1, max_size=64):
    return np_arrays(
        dtype=DTYPE,
        shape=st.integers(min_size, max_size),
        elements=finite_floats,
    )


class TestChunkBoundsProperties:
    @given(length=st.integers(0, 500), parts=st.integers(1, 32))
    def test_partition_is_exact_and_ordered(self, length, parts):
        bounds = chunk_bounds(length, parts)
        assert len(bounds) == parts
        assert bounds[0][0] == 0
        assert bounds[-1][1] == length
        for (lo1, hi1), (lo2, _hi2) in zip(bounds, bounds[1:]):
            assert hi1 == lo2
            assert lo1 <= hi1

    @given(length=st.integers(1, 500), parts=st.integers(1, 32))
    def test_chunk_sizes_balanced(self, length, parts):
        sizes = [hi - lo for lo, hi in chunk_bounds(length, parts)]
        assert max(sizes) - min(sizes) <= 1


class TestUnbroadcastProperties:
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        batch=st.integers(1, 4),
    )
    def test_sum_preserved(self, rows, cols, batch):
        grad = np.random.default_rng(0).standard_normal((batch, rows, cols))
        out = _unbroadcast(grad, (rows, cols))
        assert out.shape == (rows, cols)
        np.testing.assert_allclose(out, grad.sum(axis=0))


class TestCompressorProperties:
    @given(
        x=np_arrays(
            dtype=np.float64,
            shape=st.integers(1, 64),
            # Stay inside the representable fp16 range; overflow is clipped
            # by the codec (tested separately below).
            elements=st.floats(-6e4, 6e4, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=30)
    def test_fp16_shape_and_bounded_error(self, x):
        codec = FP16Compressor()
        out = codec.decompress(codec.compress(x))
        assert out.shape == x.shape
        scale = np.abs(x).max() + 1.0
        assert np.abs(out - x).max() <= 0.01 * scale

    def test_fp16_clips_instead_of_overflowing(self):
        codec = FP16Compressor()
        out = codec.decompress(codec.compress(np.array([1e9, -1e9])))
        assert np.all(np.isfinite(out))
        assert out[0] > 6e4 and out[1] < -6e4

    @given(x=float_vectors())
    @settings(max_examples=30)
    def test_onebit_wire_size_invariant(self, x):
        codec = OneBitCompressor()
        payload = codec.compress(x)
        assert payload.wire_bytes == codec.wire_bytes(x.size)
        assert payload.wire_bytes < x.size * 4 + 16

    @given(x=float_vectors(min_size=2))
    @settings(max_examples=30)
    def test_qsgd_decompressed_within_norm(self, x):
        codec = QSGDCompressor(bits=8, rng=np.random.default_rng(0))
        out = codec.decompress(codec.compress(x))
        norm = np.linalg.norm(x)
        assert np.abs(out).max() <= norm * (1 + 1e-9)

    @given(x=float_vectors(min_size=4), ratio=st.sampled_from([0.1, 0.25, 0.5]))
    @settings(max_examples=30)
    def test_topk_preserves_kept_and_zeroes_rest(self, x, ratio):
        codec = TopKCompressor(ratio=ratio)
        out = codec.decompress(codec.compress(x))
        kept = np.nonzero(out)[0]
        np.testing.assert_array_equal(out[kept], x[kept])
        assert len(kept) <= max(1, int(round(x.size * ratio)))

    @given(x=float_vectors())
    @settings(max_examples=30)
    def test_error_feedback_identity(self, x):
        """residual_after == (x + residual_before) - decompressed, bit for bit."""
        ef = ErrorFeedback(OneBitCompressor())
        before = ef.residual("k", x.size).copy()
        payload = ef.compress(x, key="k")
        after = ef.residual("k", x.size)
        assert after.tobytes() == ((x + before) - ef.decompress(payload)).tobytes()


class TestCollectiveProperties:
    @given(
        data=st.integers(0, 2**31 - 1),
        size=st.integers(1, 40),
        nodes=st.integers(1, 3),
        workers=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_ring_allreduce_equals_sum(self, data, size, nodes, workers):
        rng = np.random.default_rng(data)
        spec = ClusterSpec(num_nodes=nodes, workers_per_node=workers)
        group = CommGroup(Transport(spec), list(range(spec.world_size)))
        arrays = exact_rows(rng, group.size, size)
        expected = np.sum(arrays, axis=0)
        for out in ring_allreduce(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-9)

    @given(
        data=st.integers(0, 2**31 - 1),
        size=st.integers(1, 40),
        nodes=st.integers(1, 3),
        workers=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_scatter_reduce_equals_sum(self, data, size, nodes, workers):
        rng = np.random.default_rng(data)
        spec = ClusterSpec(num_nodes=nodes, workers_per_node=workers)
        group = CommGroup(Transport(spec), list(range(spec.world_size)))
        arrays = exact_rows(rng, group.size, size)
        expected = np.sum(arrays, axis=0)
        for out in scatter_reduce(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-9)

    @given(data=st.integers(0, 2**31 - 1), step=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_gossip_preserves_global_mean(self, data, step):
        rng = np.random.default_rng(data)
        spec = ClusterSpec(num_nodes=2, workers_per_node=2)
        group = CommGroup(Transport(spec), list(range(4)))
        arrays = exact_rows(rng, 4, 8)
        outs = d_fp_s(arrays, group, peers=RandomPeers(seed=1), step=step)
        np.testing.assert_allclose(
            np.mean(outs, axis=0), np.mean(arrays, axis=0), atol=1e-9
        )


class TestBucketProperties:
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=6
        )
    )
    @settings(max_examples=30)
    def test_flatten_roundtrip(self, shapes):
        rng = np.random.default_rng(0)
        params = [Tensor(rng.standard_normal(s).astype(DTYPE), requires_grad=True) for s in shapes]
        originals = [p.data.copy() for p in params]
        bucket = TensorBucket(params)
        # Values preserved by flattening.
        for p, orig in zip(params, originals):
            np.testing.assert_array_equal(p.data, orig)
        # Flat view is consistent with concatenation.
        np.testing.assert_array_equal(
            bucket.flat_data(), np.concatenate([o.reshape(-1) for o in originals])
        )

    @given(
        sizes=st.lists(st.integers(1, 200), min_size=1, max_size=20),
        cap_tensors=st.integers(1, 8),
    )
    @settings(max_examples=30)
    def test_partition_covers_each_param_once(self, sizes, cap_tensors):
        from .conftest import plan_buckets

        rng = np.random.default_rng(0)
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in sizes]
        buckets = plan_buckets(params, bucket_bytes=cap_tensors * 200 * 4)
        seen = [p for b in buckets for p in b.params]
        assert len(seen) == len(params)
        assert [id(p) for p in seen] == [id(p) for p in params]


class TestTransportProperties:
    @given(
        payload_bytes=st.lists(st.integers(1, 10_000), min_size=1, max_size=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_bytes_conserved(self, payload_bytes):
        from repro.cluster import Message

        spec = ClusterSpec(num_nodes=2, workers_per_node=2)
        transport = Transport(spec)
        messages = [
            Message(i % 3, (i % 3) + 1, None, nbytes=b)
            for i, b in enumerate(payload_bytes)
        ]
        transport.exchange(messages)
        assert transport.stats.total_bytes == sum(payload_bytes)
        assert transport.stats.messages == len(payload_bytes)

    @given(seconds=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_clocks_monotone_under_compute(self, seconds):
        spec = ClusterSpec(num_nodes=1, workers_per_node=2)
        transport = Transport(spec)
        last = 0.0
        for s in seconds:
            transport.compute(0, s)
            assert transport.now(0) >= last
            last = transport.now(0)
