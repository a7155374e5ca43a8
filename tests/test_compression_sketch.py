"""Count-sketch codec: estimation quality, mergeability, wire size."""

import numpy as np
import pytest

from repro.compression import CountSketchCompressor, make_compressor

from .conftest import exact_rows


class TestCountSketch:
    def test_roundtrip_shape(self, rng):
        codec = CountSketchCompressor(compression=0.5, rows=3)
        x = rng.standard_normal(200)
        out = codec.decompress(codec.compress(x))
        assert out.shape == x.shape

    def test_recovers_sparse_heavy_hitters(self, rng):
        # A sketch excels at heavy hitters: plant a few large coordinates.
        x = np.zeros(1000)
        hot = rng.choice(1000, size=5, replace=False)
        x[hot] = rng.standard_normal(5) * 100
        codec = CountSketchCompressor(compression=0.3, rows=5)
        out = codec.decompress(codec.compress(x))
        np.testing.assert_allclose(out[hot], x[hot], atol=15.0)

    def test_wire_size_independent_of_content(self, rng):
        codec = CountSketchCompressor(compression=0.1, rows=3)
        dense = codec.compress(rng.standard_normal(1000))
        sparse = codec.compress(np.zeros(1000))
        assert dense.wire_bytes == sparse.wire_bytes == codec.wire_bytes(1000)

    def test_compression_ratio(self):
        codec = CountSketchCompressor(compression=0.1, rows=3)
        # ~10x fewer values, each fp32 vs fp32: ratio ~10.
        assert codec.compression_ratio(30_000) == pytest.approx(10.0, rel=0.05)

    def test_same_seed_parties_interoperate(self, rng):
        sender = CountSketchCompressor(compression=0.5, rows=3, seed=7)
        receiver = CountSketchCompressor(compression=0.5, rows=3, seed=7)
        x = rng.standard_normal(100)
        out = receiver.decompress(sender.compress(x))
        baseline = sender.decompress(sender.compress(x))
        np.testing.assert_array_equal(out, baseline)

    def test_different_seeds_do_not_interoperate(self, rng):
        sender = CountSketchCompressor(compression=0.5, rows=3, seed=1)
        receiver = CountSketchCompressor(compression=0.5, rows=3, seed=2)
        x = rng.standard_normal(100)
        mismatched = receiver.decompress(sender.compress(x))
        matched = sender.decompress(sender.compress(x))
        assert not np.allclose(mismatched, matched)

    def test_sketches_are_mergeable(self, rng):
        """sketch(a) + sketch(b) decodes like sketch(a + b) — the property
        that makes sketches usable inside aggregating primitives."""
        codec = CountSketchCompressor(compression=0.5, rows=3, seed=0)
        a, b = exact_rows(rng, 2, 64)
        pa = codec.compress(a)
        pb = codec.compress(b)
        merged = codec.compress(a + b)
        summed_tables = pa.fields["table"] + pb.fields["table"]
        np.testing.assert_allclose(summed_tables, merged.fields["table"], atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CountSketchCompressor(compression=0.0)
        with pytest.raises(ValueError):
            CountSketchCompressor(rows=0)

    def test_registry(self):
        codec = make_compressor("sketch", compression=0.2)
        assert codec.compression == 0.2

    def test_estimation_error_shrinks_with_budget(self, rng):
        x = rng.standard_normal(500)
        small = CountSketchCompressor(compression=0.05, rows=3)
        big = CountSketchCompressor(compression=0.5, rows=3)
        err_small = np.linalg.norm(small.decompress(small.compress(x)) - x)
        err_big = np.linalg.norm(big.decompress(big.compress(x)) - x)
        assert err_big < err_small
