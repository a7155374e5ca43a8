"""QSGD stochastic quantization (Alistarh et al., 2017; paper ref [4]).

Each value is mapped to one of ``s`` levels of its magnitude relative to the
tensor norm, with stochastic rounding so the codec is unbiased:
``E[decompress(compress(x))] = x``.  The paper's QSGD algorithm uses the
8-bit variant (s = 255, one byte per element plus the norm).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor

#: Columns of one row ``QSGDCompressor.batch_roundtrip`` works on at a time.
#: A block's chain reads the input and one draw buffer, works in one
#: ``DTYPE`` scratch and writes the output: ~4 x 64 KiB live at 16384
#: columns, inside a 1 MiB L2 with room to spare, while each of the six
#: numpy calls per block (the draw included) still runs over enough
#: elements to bury its ~1 us dispatch cost.
_BLOCK_ELEMENTS = 16384


class QSGDCompressor(Compressor):
    """Stochastic uniform quantization against the L2 norm.

    Args:
        bits: bits per element (levels = 2**(bits-1) - 1 magnitude steps,
            sign folded into the stored integer).  8 by default, as in the
            paper's QSGD configuration.
        rng: randomness for stochastic rounding; a fixed generator makes a
            worker's compression stream reproducible.
    """

    def __init__(self, bits: int = 8, rng: np.random.Generator | None = None) -> None:
        if not 2 <= bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {bits}")
        self.bits = bits
        self.levels = (1 << (bits - 1)) - 1
        self.rng = rng or np.random.default_rng(0)
        self.name = f"qsgd{bits}"

    def compress(self, array: np.ndarray) -> CompressedPayload:
        # Only the norm is float64: sqrt(sum(x^2)) with numpy's pairwise
        # reduction, not the BLAS dot behind np.linalg.norm, whose order
        # differs — ``batch_roundtrip``'s per-row axis reduction sums in this
        # order.  The rest is ``DTYPE``: ``t = x * scale`` with
        # ``scale = DTYPE(levels / norm)``, then stochastic rounding
        # ``floor(t + u)`` with a ``DTYPE`` uniform ``u``.  It rounds the
        # signed ``t``, not ``|t|``, yet the law is QSGD's on either side of
        # zero: ``|q|`` is ``ceil(|t|)`` with probability ``frac(|t|)`` and
        # ``floor(|t|)`` otherwise (up to the half-ulp rounding of the sum).  The clip to
        # ``+-levels`` catches a rounded-up scale and ``levels + u`` rounding
        # to ``levels + 1``.  ``floor`` never returns ``-0.0`` here.
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
            scaled += self.rng.random(array.size, dtype=DTYPE)
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
        one ``DTYPE`` draw buffer reused by every block.  Rows outer, segments
        inner, blocks innermost is the scalar path's row-major draw order, and
        a float32 PCG64 stream does not depend on how it is split, so the
        blocks consume the generator exactly as the per-cell draws do.  A
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
        work, draws = np.empty(_BLOCK_ELEMENTS, DTYPE), np.empty(_BLOCK_ELEMENTS, DTYPE)
        for i in range(rows):
            for j, (lo, hi) in enumerate(bounds):
                for start in range(lo, hi, _BLOCK_ELEMENTS):
                    stop = min(start + _BLOCK_ELEMENTS, hi)
                    s, u = work[: stop - start], draws[: stop - start]
                    self.rng.random(dtype=DTYPE, out=u)
                    np.multiply(matrix[i, start:stop], scales[i, j], out=s)
                    s += u
                    np.floor(s, out=s)
                    np.clip(s, -self.levels, self.levels, out=s)
                    np.multiply(s, steps[i, j], out=out[i, start:stop])
        return out

    def wire_bytes(self, n_elements: int) -> float:
        # bits per element packed, plus the fp32 norm.
        return n_elements * self.bits / 8.0 + 4.0
