"""Compression codecs: round-trip fidelity, wire sizes, error feedback."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.compression import qsgd as qsgd_module
from repro.tensor import DTYPE
from repro.compression import (
    COMPRESSOR_REGISTRY,
    CompressedPayload,
    Compressor,
    ErrorFeedback,
    FP16Compressor,
    IdentityCompressor,
    OneBitCompressor,
    QSGDCompressor,
    RandomKCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
    make_compressor,
)

ALL_CODECS = [
    IdentityCompressor(),
    FP16Compressor(),
    QSGDCompressor(bits=8),
    QSGDCompressor(bits=4),
    OneBitCompressor(),
    TopKCompressor(ratio=0.1),
    RandomKCompressor(ratio=0.1),
    TernGradCompressor(),
    SignSGDCompressor(),
]


@pytest.fixture
def x(rng) -> np.ndarray:
    return rng.standard_normal(500).astype(DTYPE)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_shape_preserved(self, codec, x):
        out = codec.decompress(codec.compress(x))
        assert out.shape == x.shape

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_payload_metadata(self, codec, x):
        payload = codec.compress(x)
        assert isinstance(payload, CompressedPayload)
        assert payload.n == 500
        assert payload.wire_bytes == codec.wire_bytes(500)

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_zero_vector(self, codec):
        out = codec.decompress(codec.compress(np.zeros(64)))
        np.testing.assert_allclose(out, np.zeros(64), atol=1e-12)

    def test_identity_is_lossless(self, x):
        codec = IdentityCompressor()
        np.testing.assert_array_equal(codec.decompress(codec.compress(x)), x)

    def test_fp16_small_error(self, x):
        codec = FP16Compressor()
        out = codec.decompress(codec.compress(x))
        assert np.abs(out - x).max() < 1e-2


class TestWireSizes:
    def test_ordering(self):
        n = 1 << 16
        fp32 = IdentityCompressor().wire_bytes(n)
        fp16 = FP16Compressor().wire_bytes(n)
        q8 = QSGDCompressor(bits=8).wire_bytes(n)
        onebit = OneBitCompressor().wire_bytes(n)
        assert fp32 > fp16 > q8 > onebit

    def test_compression_ratios(self):
        assert FP16Compressor().compression_ratio() == pytest.approx(2.0, rel=0.01)
        assert QSGDCompressor(bits=8).compression_ratio() == pytest.approx(4.0, rel=0.01)
        assert OneBitCompressor().compression_ratio() == pytest.approx(32.0, rel=0.01)

    def test_topk_wire_scales_with_ratio(self):
        n = 10_000
        assert TopKCompressor(0.01).wire_bytes(n) < TopKCompressor(0.1).wire_bytes(n)


class TestQSGD:
    def test_unbiased(self, rng):
        codec = QSGDCompressor(bits=4, rng=rng)
        x = rng.standard_normal(64)
        total = np.zeros_like(x)
        trials = 400
        for _ in range(trials):
            total += codec.decompress(codec.compress(x))
        np.testing.assert_allclose(total / trials, x, atol=0.08)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_unbiased_z_test_on_dtype_input(self, bits):
        """Every element's trial mean lies within 5.5 standard errors of the
        input, and the z-scores average out near zero."""
        n, trials = 4096, 2000
        x = np.random.default_rng(bits).standard_normal(n).astype(DTYPE)
        codec = QSGDCompressor(bits=bits, rng=np.random.default_rng(100 + bits))
        total = np.zeros(n)
        for _ in range(trials):
            total += codec.decompress(codec.compress(x))
        wide = x.astype(float)
        norm = np.sqrt(np.square(wide).sum())
        scaled = np.abs(wide) * codec.levels / norm
        frac = scaled - np.floor(scaled)
        stderr = norm / codec.levels * np.sqrt(frac * (1.0 - frac) / trials)
        z = (total / trials - wide)[stderr > 0] / stderr[stderr > 0]
        assert np.abs(z).max() < 5.5
        assert abs(z.mean()) < 0.1

    def test_more_bits_less_error(self, rng):
        x = rng.standard_normal(2000)
        err4 = np.linalg.norm(
            QSGDCompressor(bits=4).decompress(QSGDCompressor(bits=4).compress(x)) - x
        )
        err8 = np.linalg.norm(
            QSGDCompressor(bits=8).decompress(QSGDCompressor(bits=8).compress(x)) - x
        )
        assert err8 < err4

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            QSGDCompressor(bits=1)
        with pytest.raises(ValueError):
            QSGDCompressor(bits=20)

    def test_refuses_a_32_bit_raw_generator(self):
        """MT19937's raw word carries 32 bits: two of four lanes would be 0."""
        with pytest.raises(ValueError, match="MT19937"):
            QSGDCompressor(rng=np.random.Generator(np.random.MT19937(0)))

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
        ids=lambda b: b.__name__,
    )
    def test_accepted_generators_round_trip(self, bit_generator):
        bounds = ((0, 13), (13, 27), (27, 40))
        matrix = np.random.default_rng(3).standard_normal((2, 40)).astype(DTYPE)
        fast = QSGDCompressor(rng=np.random.Generator(bit_generator(5)))
        ref = QSGDCompressor(rng=np.random.Generator(bit_generator(5)))
        out = fast.batch_roundtrip(matrix, bounds)
        assert out.tobytes() == Compressor.batch_roundtrip(ref, matrix, bounds).tobytes()
        # Philox's state holds arrays, so compare the words that come next.
        assert (fast.rng.bit_generator.random_raw(4) == ref.rng.bit_generator.random_raw(4)).all()
        for row, got in zip(matrix, out):
            for lo, hi in bounds:  # within one step of the input
                step = np.linalg.norm(row[lo:hi].astype(np.float64)) / fast.levels
                assert np.abs(got[lo:hi] - row[lo:hi]).max() <= step * (1 + 1e-6)

    @pytest.mark.parametrize("bits", [2, 8, 16])
    @pytest.mark.parametrize("value", [0.3, -0.3])
    def test_dither_bias_is_at_most_one_lane(self, bits, value):
        """Every one of the 65 536 lanes once, on a constant run of 65 536
        elements: the mean of its ``q`` is within ``2**-16`` of ``t``, plus the
        float32 rounding of ``t + u``.  Four larger elements after the run
        (one raw word) set the norm, so ``t`` is not a multiple of ``2**-16``."""
        n = 1 << 16
        lanes = np.random.default_rng(bits).permutation(n).astype(np.uint16)
        lanes = np.concatenate([lanes, np.full(4, 0x8000, np.uint16)])
        stub = SimpleNamespace(random_raw=lambda size: lanes.view(np.uint64)[:size])
        stub.bit_generator = stub
        codec = QSGDCompressor(bits=bits)
        codec.rng = stub
        segment = np.full(n + 4, value, DTYPE)
        segment[n:] *= 50
        q = codec.compress(segment).fields["q"][:n]
        norm = np.sqrt(np.square(segment, dtype=np.float64).sum())
        t = float(segment[0] * DTYPE.type(codec.levels / norm))
        assert t * 2**16 != round(t * 2**16)
        rounding = float(np.spacing(DTYPE.type(abs(t) + 1))) / 2
        assert abs(q.mean(dtype=np.float64) - t) <= 2.0**-16 + rounding


class TestQSGDBatchRoundtrip:
    """The blocked in-place kernel against the base class's per-cell loop."""

    SPECIALS = (0.0, -0.0, -1e-300, 1e-300, 5e-324, -5e-324, 2.5e-310, -1e-162)

    @staticmethod
    def _both(bits, matrix, bounds):
        """(kernel output, reference output), asserting equal final RNG state."""
        fast = QSGDCompressor(bits=bits, rng=np.random.default_rng(7))
        ref = QSGDCompressor(bits=bits, rng=np.random.default_rng(7))
        with np.errstate(all="ignore"):
            out = fast.batch_roundtrip(matrix, bounds)
            expected = Compressor.batch_roundtrip(ref, matrix, bounds)
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        return out, expected, fast, ref

    @staticmethod
    def _bounds(widths):
        edges = np.concatenate([[0], np.cumsum(widths)])
        return tuple((int(lo), int(hi)) for lo, hi in zip(edges, edges[1:]))

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    @pytest.mark.parametrize("rows", [1, 2, 3, 16])
    def test_bitwise_equal_to_per_cell_reference(self, rows, bits):
        block = qsgd_module._BLOCK_ELEMENTS // rows
        widths = [block - 1, block, block + 1, 2 * block + 3]
        if rows == 16:
            widths += [64] * 5
        bounds = self._bounds(widths)
        rng = np.random.default_rng(rows * 100 + bits)
        matrix = rng.standard_normal((rows, bounds[-1][1])) * 10.0 ** rng.integers(-3, 4)
        salted = rng.random(matrix.shape) < 0.05
        matrix[salted] = rng.choice(self.SPECIALS, size=int(salted.sum()))
        pristine = matrix.copy()
        out, expected, _, _ = self._both(bits, matrix, bounds)
        assert out.dtype == DTYPE and out.shape == matrix.shape
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(matrix.view(np.uint64), pristine.view(np.uint64))
        # The salt reaches a negative input quantized to zero: it comes back
        # as +0.0, never -0.0.
        zeroed = (out == 0.0) & (matrix < 0.0)
        assert zeroed.any() and not np.signbit(out[zeroed]).any()

    @pytest.mark.parametrize("rows", [1, 2, 3, 16])
    def test_blocks_draw_the_row_major_stream(self, rows):
        """Odd widths straddling ``_BLOCK_ELEMENTS`` split the draws unevenly;
        the kernel still consumes exactly the per-cell stream."""
        block = qsgd_module._BLOCK_ELEMENTS
        bounds = self._bounds([5, 7, block - 1, block + 1, 2 * block + 3])
        n = bounds[-1][1]
        matrix = np.random.default_rng(rows).standard_normal((rows, n)).astype(DTYPE)
        out, expected, fast, _ = self._both(8, matrix, bounds)
        assert out.tobytes() == expected.tobytes()
        reference = np.random.default_rng(7)
        for _ in range(rows):
            for lo, hi in bounds:  # ceil(w / 4) raw words per cell
                reference.bit_generator.random_raw(-(-(hi - lo) // 4))
        assert fast.rng.bit_generator.state == reference.bit_generator.state

    class _ConstantDraws:
        """A generator stand-in whose every raw word is four ``lane`` lanes."""

        def __init__(self, lane):
            self.bit_generator = self
            self.word = np.uint64(lane * 0x0001_0001_0001_0001)

        def random_raw(self, size=None):
            return np.full(size, self.word, np.uint64)

    @pytest.mark.parametrize("bits", [2, 8, 16])
    @pytest.mark.parametrize(
        "value, draw",
        [
            # t = levels exactly; the largest dither, 1 - 2**-16, rounds
            # t + u to levels + 1 (at 16 bits; at 2 and 8 bits it is exact).
            (1.0, 0xFFFF),
            # The scale rounds up, so t lies just below -levels and floors
            # to -(levels + 1) (at 8 and 16 bits; at 2 bits t = -1 exactly).
            (-0.09497874, 0),
        ],
        ids=["above", "below"],
    )
    def test_quantized_magnitude_never_exceeds_levels(self, bits, value, draw):
        """Segments of one nonzero element, at the draw that pushes ``t + u``
        furthest out on its side: ``|q|`` stays at ``levels``."""
        codec = QSGDCompressor(bits=bits)
        codec.rng = self._ConstantDraws(draw)
        bounds = self._bounds([9, 9])
        matrix = np.zeros((2, 18), DTYPE)
        matrix[0, 4] = matrix[0, 13] = matrix[1, 2] = matrix[1, 11] = value
        signed_levels = np.copysign(codec.levels, value)
        for row in matrix:
            for lo, hi in bounds:
                q = codec.compress(row[lo:hi]).fields["q"]
                assert q.tolist() == np.where(row[lo:hi] != 0, signed_levels, 0).tolist()
        out = codec.batch_roundtrip(matrix, bounds)
        assert out.tobytes() == Compressor.batch_roundtrip(codec, matrix, bounds).tobytes()
        step = DTYPE.type(abs(float(DTYPE.type(value))) / codec.levels)
        assert (out[matrix != 0] == DTYPE.type(signed_levels) * step).all()

    @pytest.mark.parametrize("bits", [4, 8])
    def test_lane_layout_is_fixed_per_segment(self, bits, monkeypatch):
        """A segment of ``w`` columns reads ``ceil(w / 4)`` raw words, lane for
        lane the same whatever ``_BLOCK_ELEMENTS`` is."""
        widths = [1, 5, 7, 63, 130, 40_001]
        bounds = self._bounds(widths)
        matrix = np.random.default_rng(bits).standard_normal((3, sum(widths))).astype(DTYPE)
        outs = []
        for block in (4, 64, 16384):
            monkeypatch.setattr(qsgd_module, "_BLOCK_ELEMENTS", block)
            codec = QSGDCompressor(bits=bits, rng=np.random.default_rng(11))
            outs.append(codec.batch_roundtrip(matrix, bounds).tobytes())
            reference = np.random.default_rng(11)
            for _ in range(3):
                for w in widths:
                    reference.bit_generator.random_raw(-(-w // 4))
            assert codec.rng.bit_generator.state == reference.bit_generator.state
        assert outs[0] == outs[1] == outs[2]
        scalar = QSGDCompressor(bits=bits, rng=np.random.default_rng(11))
        assert outs[0] == Compressor.batch_roundtrip(scalar, matrix, bounds).tobytes()

    @pytest.mark.parametrize("poison", [0.0, np.inf, -np.inf, np.nan, 1e200])
    def test_zero_and_non_finite_norms_take_the_reference(self, poison, monkeypatch):
        rows, bounds = 3, self._bounds([40, 40, 40])
        matrix = np.random.default_rng(1).standard_normal((rows, 120))
        if poison == 0.0:
            matrix[1, 40:80] = 0.0  # zero norm: the scalar path draws nothing
        else:
            matrix[1, 57] = poison
        calls = []
        reference = Compressor.batch_roundtrip
        monkeypatch.setattr(
            Compressor, "batch_roundtrip",
            lambda self, m, b: calls.append(self) or reference(self, m, b),
        )
        out, expected, fast, ref = self._both(8, matrix, bounds)
        assert calls == [fast, ref]  # the kernel handed the whole call over
        assert out.tobytes() == expected.tobytes()


class TestOneBit:
    def test_preserves_signs(self, x):
        codec = OneBitCompressor()
        out = codec.decompress(codec.compress(x))
        positive = x > 0
        assert np.all((out > 0) == positive)

    def test_preserves_mean_magnitudes(self, x):
        codec = OneBitCompressor()
        out = codec.decompress(codec.compress(x))
        pos = x > 0
        assert out[pos].max() == pytest.approx(x[pos].mean())
        assert (-out[~pos]).max() == pytest.approx((-x[~pos]).mean())

    def test_all_positive_input(self):
        codec = OneBitCompressor()
        x = np.abs(np.random.default_rng(0).standard_normal(32)) + 0.1
        out = codec.decompress(codec.compress(x))
        assert np.all(out > 0)


class TestSparsifiers:
    def test_topk_keeps_largest(self, rng):
        x = rng.standard_normal(100)
        codec = TopKCompressor(ratio=0.05)
        out = codec.decompress(codec.compress(x))
        kept = np.nonzero(out)[0]
        assert len(kept) == 5
        threshold = np.sort(np.abs(x))[-5]
        assert np.all(np.abs(x[kept]) >= threshold - 1e-12)

    def test_topk_exact_on_kept(self, rng):
        x = rng.standard_normal(50).astype(DTYPE)
        codec = TopKCompressor(ratio=0.2)
        out = codec.decompress(codec.compress(x))
        kept = np.nonzero(out)[0]
        np.testing.assert_array_equal(out[kept], x[kept])

    def test_topk_full_ratio_lossless(self, x):
        codec = TopKCompressor(ratio=1.0)
        np.testing.assert_allclose(codec.decompress(codec.compress(x)), x)

    def test_randomk_unbiased(self, rng):
        codec = RandomKCompressor(ratio=0.25, rng=rng)
        x = rng.standard_normal(40)
        total = np.zeros_like(x)
        trials = 600
        for _ in range(trials):
            total += codec.decompress(codec.compress(x))
        np.testing.assert_allclose(total / trials, x, atol=0.3)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)
        with pytest.raises(ValueError):
            RandomKCompressor(ratio=1.5)


class TestTernAndSign:
    def test_terngrad_values_ternary(self, rng):
        codec = TernGradCompressor(rng=rng)
        x = rng.standard_normal(128).astype(DTYPE)
        out = codec.decompress(codec.compress(x))
        scale = np.abs(x).max()
        unique = set(np.round(np.unique(out / scale), 9))
        assert unique <= {-1.0, 0.0, 1.0}

    def test_terngrad_unbiased(self, rng):
        codec = TernGradCompressor(rng=rng)
        x = rng.standard_normal(32)
        total = np.zeros_like(x)
        trials = 800
        for _ in range(trials):
            total += codec.decompress(codec.compress(x))
        np.testing.assert_allclose(total / trials, x, atol=0.15)

    def test_signsgd_scale(self, x):
        codec = SignSGDCompressor()
        out = codec.decompress(codec.compress(x))
        np.testing.assert_allclose(np.abs(out), np.abs(x).mean())


class TestErrorFeedback:
    def test_residual_invariant(self, rng):
        """residual' = compensated - Q(compensated), bit for bit."""
        ef = ErrorFeedback(OneBitCompressor())
        x = rng.standard_normal(64).astype(DTYPE)
        payload = ef.compress(x, key="k")
        decompressed = ef.decompress(payload)
        residual = ef.residual("k", 64)
        assert residual.tobytes() == (x - decompressed).tobytes()

    def test_accumulates_over_steps(self, rng):
        """Sum of transmitted values approaches sum of true values: every step
        keeps exactly what it did not send, so sent + residual telescopes to
        the true sum, and the residual stays bounded."""
        ef = ErrorFeedback(OneBitCompressor())
        residual = np.zeros(32, DTYPE)
        for _ in range(50):
            g = rng.standard_normal(32).astype(DTYPE)
            compensated = g + residual
            sent = ef.decompress(ef.compress(g, key="g"))
            residual = ef.residual("g", 32)
            assert residual.tobytes() == (compensated - sent).tobytes()
        assert ef.total_residual_norm() < 10.0

    def test_separate_keys_independent(self, rng):
        ef = ErrorFeedback(OneBitCompressor())
        ef.compress(rng.standard_normal(8), key="a")
        assert np.all(ef.residual("b", 8) == 0)

    def test_size_mismatch_raises(self, rng):
        ef = ErrorFeedback(OneBitCompressor())
        ef.compress(rng.standard_normal(8), key="a")
        with pytest.raises(ValueError):
            ef.residual("a", 16)

    def test_reset(self, rng):
        ef = ErrorFeedback(OneBitCompressor())
        ef.compress(rng.standard_normal(8), key="a")
        ef.reset()
        assert ef.total_residual_norm() == 0.0


class TestRegistry:
    def test_all_names_constructible(self):
        for name in COMPRESSOR_REGISTRY:
            codec = make_compressor(name)
            assert codec.wire_bytes(100) > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_compressor("zip9000")

    def test_kwargs_passthrough(self):
        codec = make_compressor("qsgd8", bits=4)
        assert codec.bits == 4
