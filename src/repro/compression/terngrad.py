"""TernGrad ternary quantization (Wen et al., 2017; paper ref [7]).

Values become {-1, 0, +1} * max|x| with stochastic rounding proportional to
|x| / max|x| — unbiased, two bits per element on the wire.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor


class TernGradCompressor(Compressor):
    name = "terngrad"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.rng = rng or np.random.default_rng(0)

    def compress(self, array: np.ndarray) -> CompressedPayload:
        array = np.asarray(array, dtype=DTYPE).reshape(-1)
        scale = float(np.abs(array).max()) if array.size else 0.0
        if scale == 0.0:
            ternary = np.zeros(array.size, dtype=np.int8)
        else:
            prob = np.abs(array) / scale
            keep = self.rng.random(array.size, dtype=DTYPE) < prob
            ternary = (np.sign(array) * keep).astype(np.int8)
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"t": ternary, "scale": scale},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        return np.asarray(payload.fields["t"], dtype=DTYPE) * DTYPE.type(payload.fields["scale"])

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Vectorized roundtrip; one row-major RNG draw replaces per-cell draws.

        The draws are ``DTYPE``, as in the scalar path: a float32 stream does
        not depend on how it is split, so one ``(rows, n)`` draw consumes the
        generator exactly as the per-cell draws do.

        A zero-scale segment skips its draw in the scalar path, so that case
        falls back to the per-cell reference loop before consuming any RNG
        state.
        """
        matrix = np.asarray(matrix, dtype=DTYPE)
        scales = np.empty((matrix.shape[0], len(bounds)), DTYPE)
        for j, (lo, hi) in enumerate(bounds):
            # initial=0.0 only matters for zero-width segments (which then
            # hit the fallback); abs values are >= 0 so it never changes max.
            scales[:, j] = np.abs(matrix[:, lo:hi]).max(axis=1, initial=0.0)
        if not scales.all():
            return super().batch_roundtrip(matrix, bounds)
        draws = self.rng.random(matrix.shape, dtype=DTYPE)
        out = np.empty_like(matrix)
        for j, (lo, hi) in enumerate(bounds):
            seg = matrix[:, lo:hi]
            scale = scales[:, j]
            keep = draws[:, lo:hi] < np.abs(seg) / scale[:, None]
            ternary = (np.sign(seg) * keep).astype(np.int8)
            out[:, lo:hi] = ternary.astype(DTYPE) * scale[:, None]
        return out

    def wire_bytes(self, n_elements: int) -> float:
        return n_elements / 4.0 + 4.0  # 2 bits/element + fp32 scale
