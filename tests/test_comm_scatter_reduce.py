"""ScatterReduce: exact aggregation and compression hook plumbing."""

import numpy as np
import pytest

from repro.comm import CommGroup, scatter_reduce
from repro.compression import FP16Compressor, QSGDCompressor

from .conftest import exact_rows, make_group


@pytest.fixture
def arrays(rng, group):
    return exact_rows(rng, group.size, 41)


class TestExactness:
    def test_identity_equals_sum(self, group, arrays):
        expected = np.sum(arrays, axis=0)
        for out in scatter_reduce(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_single_member(self, transport, rng):
        g = CommGroup(transport, [2])
        x = rng.standard_normal(5)
        (out,) = scatter_reduce([x], g)
        np.testing.assert_allclose(out, x)

    def test_two_rounds_only(self, group, arrays):
        scatter_reduce(arrays, group)
        assert group.transport.stats.rounds == 2

    def test_all_members_agree(self, group, arrays):
        outs = scatter_reduce(arrays, group)
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    @pytest.mark.parametrize("size", [1, 7, 8, 65])
    def test_sizes_smaller_and_larger_than_group(self, rng, size):
        group = make_group(2, 4)
        arrays = exact_rows(rng, 8, size)
        expected = np.sum(arrays, axis=0)
        for out in scatter_reduce(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-10)


class TestCompressionHooks:
    def test_fp16_phase_hooks_approximate_sum(self, group, arrays):
        codec = FP16Compressor()
        outs = scatter_reduce(
            arrays,
            group,
            compress_phase1=lambda c, i, j: codec.compress(c),
            decompress_phase1=codec.decompress,
            compress_phase2=lambda c, i, j: codec.compress(c),
            decompress_phase2=codec.decompress,
        )
        expected = np.sum(arrays, axis=0)
        for out in outs:
            np.testing.assert_allclose(out, expected, atol=0.05)

    def test_hooks_receive_member_and_chunk_indices(self, group, arrays):
        seen = []

        def compress(chunk, member, chunk_id):
            seen.append((member, chunk_id))
            return chunk.copy()

        scatter_reduce(arrays, group, compress_phase1=compress)
        n = group.size
        assert set(seen) == {(i, j) for i in range(n) for j in range(n)}

    def test_compressed_traffic_smaller(self, rng):
        group_fp = make_group(2, 2)
        group_q = make_group(2, 2)
        arrays = [rng.standard_normal(1000) for _ in range(4)]
        scatter_reduce(arrays, group_fp)
        fp_bytes = group_fp.transport.stats.total_bytes

        codec = QSGDCompressor(bits=8)
        scatter_reduce(
            arrays,
            group_q,
            compress_phase1=lambda c, i, j: codec.compress(c),
            decompress_phase1=codec.decompress,
            compress_phase2=lambda c, i, j: codec.compress(c),
            decompress_phase2=codec.decompress,
        )
        q_bytes = group_q.transport.stats.total_bytes
        assert q_bytes < fp_bytes / 2

    def test_qsgd_aggregate_is_close(self, rng):
        group = make_group(2, 2)
        arrays = [rng.standard_normal(500) for _ in range(4)]
        codec = QSGDCompressor(bits=8, rng=np.random.default_rng(1))
        outs = scatter_reduce(
            arrays,
            group,
            compress_phase1=lambda c, i, j: codec.compress(c),
            decompress_phase1=codec.decompress,
            compress_phase2=lambda c, i, j: codec.compress(c),
            decompress_phase2=codec.decompress,
        )
        expected = np.sum(arrays, axis=0)
        err = np.linalg.norm(outs[0] - expected) / np.linalg.norm(expected)
        assert err < 0.1
