"""Error compensation (error feedback) state for biased compressors.

Implements the residual-accumulation scheme of the C_LP_S primitive
(paper §3.2): before compressing, the previous step's compression error is
added back; after compressing, the new error is stored:

    y        = x - delta          # delta is the stored error (paper notation)
    payload  = Q(y)
    delta'   = y - Q(y)

A single :class:`ErrorFeedback` instance holds one residual per *key*, so the
same object can serve the worker side (one residual per bucket) and the
server side (one residual per owned partition) of ScatterReduce.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor


class ErrorFeedback:
    """Residual store wrapping a compressor into an error-compensated codec."""

    def __init__(self, compressor: Compressor) -> None:
        self.compressor = compressor
        self._residuals: dict[Hashable, np.ndarray] = {}

    def residual(self, key: Hashable, n: int) -> np.ndarray:
        """Current residual for ``key`` (zeros before first use)."""
        if key not in self._residuals:
            self._residuals[key] = np.zeros(n, DTYPE)
        stored = self._residuals[key]
        if stored.shape[0] != n:
            raise ValueError(
                f"residual size mismatch for key {key!r}: have {stored.shape[0]}, need {n}"
            )
        return stored

    def store(self, key: Hashable, value: np.ndarray) -> None:
        """Overwrite the residual for ``key`` (used by the batched kernels,
        which compute ``compensated - decompressed`` outside this class)."""
        self._residuals[key] = np.asarray(value, dtype=DTYPE).reshape(-1)

    def compress(self, array: np.ndarray, key: Hashable) -> CompressedPayload:
        """Compress ``array`` with compensation; updates the stored residual."""
        array = np.asarray(array, dtype=DTYPE).reshape(-1)
        compensated = array + self.residual(key, array.size)
        payload = self.compressor.compress(compensated)
        self._residuals[key] = compensated - self.compressor.decompress(payload)
        return payload

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        return self.compressor.decompress(payload)

    def reset(self) -> None:
        self._residuals.clear()

    def total_residual_norm(self) -> float:
        """L2 norm of all stored residuals (diagnostic; bounded for EF-SGD)."""
        if not self._residuals:
            return 0.0
        return float(np.sqrt(sum(np.sum(r ** 2) for r in self._residuals.values())))
