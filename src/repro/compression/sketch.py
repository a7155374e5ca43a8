"""Count-sketch gradient compression (SketchML / SketchSGD; paper ref [74]).

The tensor is hashed into a small ``rows x cols`` sketch: each element is
added (with a random sign) to one bucket per row.  Decompression reads each
element's median estimate across rows — an unbiased, mergeable summary whose
wire size is independent of which coordinates are large (unlike top-K).
Hash seeds derive from the instance seed, so any two parties constructed
with the same seed can exchange sketches.
"""

from __future__ import annotations

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor


class CountSketchCompressor(Compressor):
    """Sketch with ``rows`` independent hash rows of ``compression * n`` buckets."""

    def __init__(self, compression: float = 0.1, rows: int = 3, seed: int = 0) -> None:
        if not 0.0 < compression <= 1.0:
            raise ValueError(f"compression must be in (0, 1], got {compression}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.compression = compression
        self.rows = rows
        self.seed = seed
        self.name = f"sketch{compression:g}x{rows}"
        self._hash_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _cols(self, n: int) -> int:
        return max(1, int(round(n * self.compression / self.rows)))

    def _hashes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(bucket indices [rows, n], signs [rows, n]) — cached per size."""
        if n not in self._hash_cache:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, n]))
            cols = self._cols(n)
            buckets = rng.integers(0, cols, size=(self.rows, n))
            signs = rng.choice(np.array([-1.0, 1.0]), size=(self.rows, n)).astype(DTYPE)
            self._hash_cache[n] = (buckets, signs)
        return self._hash_cache[n]

    def compress(self, array: np.ndarray) -> CompressedPayload:
        array = np.asarray(array, dtype=DTYPE).reshape(-1)
        n = array.size
        buckets, signs = self._hashes(n)
        cols = self._cols(n)
        table = np.zeros((self.rows, cols), DTYPE)
        for r in range(self.rows):
            np.add.at(table[r], buckets[r], signs[r] * array)
        return CompressedPayload(
            codec=self.name,
            n=n,
            wire_bytes=self.wire_bytes(n),
            fields={"table": table},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        table = np.asarray(payload.fields["table"])
        n = payload.n
        buckets, signs = self._hashes(n)
        estimates = np.empty((self.rows, n), DTYPE)
        for r in range(self.rows):
            estimates[r] = signs[r] * table[r, buckets[r]]
        return np.median(estimates, axis=0)

    def wire_bytes(self, n_elements: int) -> float:
        return self.rows * self._cols(n_elements) * 4.0
