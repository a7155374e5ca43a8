"""QSGD stochastic quantization (Alistarh et al., 2017; paper ref [4]).

Each value is mapped to one of ``s`` levels of its magnitude relative to the
tensor norm, with stochastic rounding so the codec is unbiased:
``E[decompress(compress(x))] = x`` (to within a 2**-16 dither; see
:class:`QSGDCompressor`).  The paper's QSGD algorithm uses the 8-bit variant
(s = 255, one byte per element plus the norm).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor

#: Columns of one row ``QSGDCompressor.batch_roundtrip`` works on at a time.
#: A block's chain reads the input and its dither lanes, works in one
#: ``DTYPE`` scratch and one ``DTYPE`` dither buffer and writes the output:
#: ~4 x 64 KiB live at 16384 columns, inside a 1 MiB L2 with room to spare,
#: while each of the seven numpy calls per block (the raw draw included)
#: still runs over enough elements to bury its ~1 us dispatch cost.  A
#: multiple of 4, so every block but a segment's last starts on a raw word.
_BLOCK_ELEMENTS = 16384
assert _BLOCK_ELEMENTS % 4 == 0

#: Bit generators whose ``random_raw`` word carries 64 random bits.  MT19937's
#: carries 32, which would leave two of a word's four lanes always zero.
_RAW64_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)

#: One dither lane's weight: ``u = lane * 2**-16`` is exact in ``DTYPE`` and
#: at most ``1 - 2**-16 < 1``.
_LANE = DTYPE.type(2.0**-16)


def _dither(
    bit_generator: np.random.BitGenerator, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``n`` ``DTYPE`` dithers from ``ceil(n / 4)`` raw words, into ``out``.

    Each 64-bit word is four ``uint16`` lanes in memory order; the lanes past
    ``n`` in the last word are drawn and dropped.
    """
    lanes = bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return np.multiply(lanes, _LANE, out=out)


class QSGDCompressor(Compressor):
    """Stochastic uniform quantization against the L2 norm.

    ``q = clip(floor(t + u), -levels, levels)`` with ``t = x * scale`` and a
    16-bit dither ``u = lane * 2**-16``: four ``uint16`` lanes per 64-bit word
    of ``rng.bit_generator.random_raw``, a segment of ``n`` elements taking
    exactly ``ceil(n / 4)`` words.  With ``u`` uniform on the 65 536 lanes,
    ``E[q]`` is ``floor(t) + floor(2**16 * frac(t)) / 2**16`` in exact
    arithmetic, so the bias ``|E[q] - t|`` is at most ``2**-16`` of a level,
    plus the float32 rounding of ``t + u`` (half an ulp of ``|t| + 1``),
    which the float32 chain pays whatever the dither.

    Args:
        bits: bits per element (levels = 2**(bits-1) - 1 magnitude steps,
            sign folded into the stored integer).  8 by default, as in the
            paper's QSGD configuration.
        rng: randomness for stochastic rounding; a fixed generator makes a
            worker's compression stream reproducible.  Its bit generator must
            produce 64 random bits per raw word: ``PCG64`` (what
            ``np.random.default_rng`` builds), ``PCG64DXSM``, ``Philox`` or
            ``SFC64``; any other raises ``ValueError``.
    """

    def __init__(self, bits: int = 8, rng: np.random.Generator | None = None) -> None:
        if not 2 <= bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {bits}")
        self.rng = rng or np.random.default_rng(0)
        bit_generator = type(self.rng.bit_generator)
        if bit_generator not in _RAW64_BIT_GENERATORS:
            raise ValueError(
                f"QSGD draws four 16-bit dithers per 64-bit raw word; "
                f"{bit_generator.__name__} does not produce 64 random bits per "
                f"word (use PCG64, PCG64DXSM, Philox or SFC64)"
            )
        self.bits = bits
        self.levels = (1 << (bits - 1)) - 1
        self.name = f"qsgd{bits}"

    def compress(self, array: np.ndarray) -> CompressedPayload:
        # Only the norm is float64: sqrt(sum(x^2)) with numpy's pairwise
        # reduction, not the BLAS dot behind np.linalg.norm, whose order
        # differs — ``batch_roundtrip``'s per-row axis reduction sums in this
        # order.  The rest is ``DTYPE``: ``t = x * scale`` with
        # ``scale = DTYPE(levels / norm)``, then stochastic rounding
        # ``floor(t + u)`` with the 16-bit dither ``u``.  It rounds the
        # signed ``t``, not ``|t|``, yet the law is QSGD's on either side of
        # zero: ``|q|`` is ``ceil(|t|)`` with probability ``frac(|t|)`` and
        # ``floor(|t|)`` otherwise (up to the half-ulp rounding of the sum).
        # The clip to ``+-levels`` catches a rounded-up scale and, from 10
        # bits on, where half an ulp of ``levels`` reaches ``2**-16``,
        # ``levels + u`` rounding to ``levels + 1``.  ``floor`` never returns
        # ``-0.0`` here.
        array = np.asarray(array, dtype=DTYPE).reshape(-1)
        norm = float(np.sqrt(np.square(array, dtype=np.float64).sum()))
        with np.errstate(divide="ignore", over="ignore"):
            scale = DTYPE.type(np.divide(self.levels, norm))
        if not np.isfinite(scale):
            # A zero norm, or one too small for a finite ``DTYPE`` scale (every
            # element below ~1e-36): the segment quantizes to zero, no draw.
            quantized = np.zeros(array.size, dtype=np.int32)
        else:
            scaled = array * scale
            scaled += _dither(self.rng.bit_generator, array.size)
            np.floor(scaled, out=scaled)
            quantized = np.clip(scaled, -self.levels, self.levels).astype(np.int32)
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"q": quantized, "norm": norm},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        step = DTYPE.type(float(payload.fields["norm"]) / self.levels)
        return np.asarray(payload.fields["q"]).astype(DTYPE) * step

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Vectorized roundtrip over a ``(rows, n)`` matrix of column segments.

        The scalar path's formula on column blocks of at most
        ``_BLOCK_ELEMENTS`` of one row at a time, in one ``DTYPE`` scratch and
        one ``DTYPE`` dither buffer reused by every block.  Rows outer,
        segments inner, blocks innermost is the scalar path's row-major draw
        order.  Raw words, unlike float32 draws, depend on how the stream is
        split, so the lane layout is fixed per segment: a block of ``w``
        columns reads ``ceil(w / 4)`` words, and since ``_BLOCK_ELEMENTS`` is a
        multiple of 4 only a segment's last block can leave lanes unused.  A
        segment of ``n`` columns thus takes exactly the scalar path's
        ``ceil(n / 4)`` words, lane for lane, whatever the block size.  A
        segment whose scale is not finite would *skip* its draw in the scalar
        path, and a non-finite norm sends ``nan`` through the scalar path's
        ``int32`` cast, so both cases fall back to the per-cell reference loop
        before any state is consumed.

        With a finite scale the clipped ``floor(t + u)`` is an exact integer
        far inside ``int32`` and never ``-0.0``, so the scalar path's
        ``.astype(int32)`` round trip leaves it as it is.
        """
        matrix = np.asarray(matrix, dtype=DTYPE)
        rows = matrix.shape[0]
        norms = np.empty((rows, len(bounds)), np.float64)
        for j, (lo, hi) in enumerate(bounds):
            norms[:, j] = np.sqrt(np.square(matrix[:, lo:hi], dtype=np.float64).sum(axis=1))
        with np.errstate(divide="ignore", over="ignore"):
            scales = (self.levels / norms).astype(DTYPE)
        if not (np.isfinite(norms).all() and np.isfinite(scales).all()):
            return super().batch_roundtrip(matrix, bounds)
        steps = (norms / self.levels).astype(DTYPE)
        out = np.empty_like(matrix)
        work, dither = np.empty(_BLOCK_ELEMENTS, DTYPE), np.empty(_BLOCK_ELEMENTS, DTYPE)
        bit_generator = self.rng.bit_generator
        for i in range(rows):
            for j, (lo, hi) in enumerate(bounds):
                for start in range(lo, hi, _BLOCK_ELEMENTS):
                    stop = min(start + _BLOCK_ELEMENTS, hi)
                    s = work[: stop - start]
                    u = _dither(bit_generator, stop - start, dither[: stop - start])
                    np.multiply(matrix[i, start:stop], scales[i, j], out=s)
                    s += u
                    np.floor(s, out=s)
                    np.clip(s, -self.levels, self.levels, out=s)
                    np.multiply(s, steps[i, j], out=out[i, start:stop])
        return out

    def wire_bytes(self, n_elements: int) -> float:
        # bits per element packed, plus the fp32 norm.
        return n_elements * self.bits / 8.0 + 4.0
