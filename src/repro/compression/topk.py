"""Top-K magnitude sparsification (refs [9, 38]).

Keeps the ``k`` largest-magnitude entries (indices + values); everything else
is dropped.  Biased — the paper notes error compensation is "especially
helpful when the compression function is relatively aggressive (e.g., top-K)".
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor


class TopKCompressor(Compressor):
    """Keep a ``ratio`` fraction (at least one) of entries by magnitude."""

    biased = True

    def __init__(self, ratio: float = 0.01) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.name = f"topk{ratio:g}"

    def _k(self, n: int) -> int:
        return max(1, int(round(n * self.ratio)))

    def compress(self, array: np.ndarray) -> CompressedPayload:
        array = np.asarray(array, dtype=DTYPE).reshape(-1)
        k = self._k(array.size)
        if k >= array.size:
            indices = np.arange(array.size)
        else:
            indices = np.argpartition(np.abs(array), -k)[-k:]
        indices = np.sort(indices)
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"indices": indices.astype(np.int64), "values": array[indices].copy()},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        out = np.zeros(payload.n, DTYPE)
        out[np.asarray(payload.fields["indices"])] = payload.fields["values"]
        return out

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Vectorized roundtrip: 2-D argpartition per segment, scatter back.

        ``np.argpartition(..., axis=1)`` partitions each row independently,
        so selected index sets match the per-row reference exactly; the
        scattered values are copies of the originals either way.
        """
        matrix = np.asarray(matrix, dtype=DTYPE)
        out = np.empty_like(matrix)
        row_idx = np.arange(matrix.shape[0])[:, None]
        for lo, hi in bounds:
            seg = matrix[:, lo:hi]
            k = self._k(hi - lo)
            if k >= hi - lo:
                out[:, lo:hi] = seg
                continue
            keep = np.argpartition(np.abs(seg), -k, axis=1)[:, -k:]
            res = np.zeros_like(seg)
            res[row_idx, keep] = seg[row_idx, keep]
            out[:, lo:hi] = res
        return out

    def wire_bytes(self, n_elements: int) -> float:
        # 4-byte index + 4-byte value per kept entry.
        return self._k(n_elements) * 8.0


class RandomKCompressor(Compressor):
    """Keep a uniformly random ``ratio`` fraction, rescaled to stay unbiased."""

    def __init__(self, ratio: float = 0.01, rng: np.random.Generator | None = None) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.rng = rng or np.random.default_rng(0)
        self.name = f"randk{ratio:g}"

    def _k(self, n: int) -> int:
        return max(1, int(round(n * self.ratio)))

    def compress(self, array: np.ndarray) -> CompressedPayload:
        array = np.asarray(array, dtype=DTYPE).reshape(-1)
        k = self._k(array.size)
        indices = np.sort(self.rng.choice(array.size, size=k, replace=False))
        # Rescale by n/k so the expected decompressed value equals the input.
        values = array[indices] * (array.size / k)
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"indices": indices.astype(np.int64), "values": values},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        out = np.zeros(payload.n, DTYPE)
        out[np.asarray(payload.fields["indices"])] = payload.fields["values"]
        return out

    def wire_bytes(self, n_elements: int) -> float:
        return self._k(n_elements) * 8.0
