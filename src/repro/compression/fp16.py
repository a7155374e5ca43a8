"""fp16 truncation — the gradient compression Horovod/DDP expose via NCCL.

The paper compares against "Horovod 16bits"; this codec halves wire size and
is nearly lossless for gradient magnitudes encountered in training.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor


#: largest finite half-precision value; inputs are clipped to avoid inf on
#: the wire (the standard guard in fp16 gradient-compression hooks)
FP16_MAX = 65504.0


class FP16Compressor(Compressor):
    name = "fp16"

    def compress(self, array: np.ndarray) -> CompressedPayload:
        array = np.asarray(array, dtype=DTYPE)
        clipped = np.clip(array, -FP16_MAX, FP16_MAX)
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"values": clipped.astype(np.float16)},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        return np.asarray(payload.fields["values"], dtype=DTYPE)

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        # Elementwise codec: segment boundaries don't matter.
        matrix = np.asarray(matrix, dtype=DTYPE)
        clipped = np.clip(matrix, -FP16_MAX, FP16_MAX)
        return clipped.astype(np.float16).astype(DTYPE)

    def wire_bytes(self, n_elements: int) -> float:
        return float(n_elements * 2)
