"""signSGD compression (Bernstein et al., 2018; paper ref [6]).

Pure sign with a single global L1 scale; one bit per element.  Unlike the
1-bit codec, the scale is the mean absolute value of the whole tensor, which
matches the signSGD-with-majority-vote formulation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor


class SignSGDCompressor(Compressor):
    name = "signsgd"
    biased = True

    def compress(self, array: np.ndarray) -> CompressedPayload:
        array = np.asarray(array, dtype=DTYPE).reshape(-1)
        scale = float(np.abs(array).mean()) if array.size else 0.0
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"signs": np.packbits(array > 0), "scale": scale},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        signs = np.unpackbits(
            np.asarray(payload.fields["signs"], dtype=np.uint8), count=payload.n
        ).astype(DTYPE)
        return (2.0 * signs - 1.0) * DTYPE.type(payload.fields["scale"])

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Vectorized roundtrip: per-(row, segment) L1 scale via axis mean."""
        if any(hi - lo == 0 for lo, hi in bounds):
            # mean of an empty axis warns; the reference loop guards size==0.
            return super().batch_roundtrip(matrix, bounds)
        matrix = np.asarray(matrix, dtype=DTYPE)
        out = np.empty_like(matrix)
        for lo, hi in bounds:
            seg = matrix[:, lo:hi]
            scale = np.abs(seg).mean(axis=1)
            signs = (seg > 0).astype(DTYPE)
            out[:, lo:hi] = (2.0 * signs - 1.0) * scale[:, None]
        return out

    def wire_bytes(self, n_elements: int) -> float:
        return np.ceil(n_elements / 8.0) + 4.0
