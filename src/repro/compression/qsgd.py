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

#: Cells (rows x columns) ``QSGDCompressor.batch_roundtrip`` works on at a
#: time.  The chain reads the input and the draws, works in two float64
#: scratch arrays and a mask, and writes the output: ~5 x 128 KiB live per
#: block at 16384 cells, inside a 1 MiB L2 with room to spare, while each
#: of the eleven numpy calls per block still runs over enough cells to bury
#: its ~1 us dispatch cost.
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
        # Numerics: the norm, the levels and the comparison with the float64
        # draws run in float64 on the ``DTYPE`` values, here and in
        # ``batch_roundtrip``; only the result is ``DTYPE``.  A seed's draw
        # stream is therefore the same at any training precision.
        array = np.asarray(array, dtype=DTYPE).astype(np.float64)
        # sqrt(sum(x^2)) rather than np.linalg.norm: the BLAS dot behind
        # linalg.norm sums in a different order than numpy's pairwise
        # reduction, and the batched kernel computes per-row norms with the
        # pairwise axis reduction — both paths must share one formulation to
        # stay bitwise identical.
        norm = float(np.sqrt(np.square(array).sum()))
        if norm == 0.0:
            quantized = np.zeros(array.size, dtype=np.int32)
        else:
            scaled = np.abs(array) / norm * self.levels
            floor = np.floor(scaled)
            prob = scaled - floor
            bump = (self.rng.random(array.shape) < prob).astype(np.float64)
            quantized = (np.sign(array) * (floor + bump)).astype(np.int32).reshape(-1)
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"q": quantized, "norm": norm},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        norm = float(payload.fields["norm"])
        q = np.asarray(payload.fields["q"], dtype=np.float64)
        if norm == 0.0:
            return np.zeros(payload.n, DTYPE)
        return (q * (norm / self.levels)).astype(DTYPE)

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Vectorized roundtrip over a ``(rows, n)`` matrix of column segments.

        One RNG draw over the whole matrix replaces the per-cell draws; the
        draw order matches the scalar path's row-major call sequence exactly.
        A zero-norm segment would *skip* its draw in the scalar path, and a
        non-finite norm sends ``nan`` through the scalar path's ``int32``
        cast, so both cases fall back to the per-cell reference loop before
        any state is consumed.

        The elementwise chain runs in place on one scratch triple reused by
        every block — a column block of at most ``_BLOCK_ELEMENTS`` cells
        (all rows) at a time — so its intermediates stay cache-resident
        instead of streaming a dozen segment-sized temporaries through memory.
        Once the norm is finite and non-zero, ``sign * (floor + bump)`` is an
        exact integer far inside ``int32`` (``|x| / norm`` cannot exceed
        ~1.5 even where ``x * x`` loses its bits to underflow), so the
        scalar path's ``.astype(int32)`` round trip changes one thing only:
        ``sign(-tiny) * 0 = -0.0`` comes back as ``+0.0``, which is what
        ``+= 0.0`` does.  The chain reads the ``DTYPE`` rows into float64
        scratch and its last product rounds once into the ``DTYPE`` output,
        as the scalar path's ``.astype(DTYPE)`` does.
        """
        matrix = np.asarray(matrix, dtype=DTYPE)
        rows = matrix.shape[0]
        norms = np.empty((rows, len(bounds)), np.float64)
        for j, (lo, hi) in enumerate(bounds):
            norms[:, j] = np.sqrt(np.square(matrix[:, lo:hi], dtype=np.float64).sum(axis=1))
        if not (norms.all() and np.isfinite(norms).all()):
            return super().batch_roundtrip(matrix, bounds)
        draws = self.rng.random(matrix.shape)
        out = np.empty_like(matrix)
        levels = self.levels
        # A block is at least one column of every row.
        cells = max(_BLOCK_ELEMENTS, rows)
        block = cells // max(1, rows)
        scratch = (np.empty(cells, np.float64), np.empty(cells, np.float64), np.empty(cells, bool))
        steps = norms / levels
        for j, (lo, hi) in enumerate(bounds):
            norm = norms[:, j, None]
            step = steps[:, j, None]
            for start in range(lo, hi, block):
                stop = min(start + block, hi)
                seg = matrix[:, start:stop]
                work, floor, bump = (flat[: seg.size].reshape(seg.shape) for flat in scratch)
                np.abs(seg, out=work)
                work /= norm
                work *= levels
                np.floor(work, out=floor)
                work -= floor
                np.less(draws[:, start:stop], work, out=bump)
                floor += bump
                np.sign(seg, out=work)
                work *= floor
                work += 0.0
                np.multiply(work, step, out=out[:, start:stop])
        return out

    def wire_bytes(self, n_elements: int) -> float:
        # bits per element packed, plus the fp32 norm.
        return n_elements * self.bits / 8.0 + 4.0
