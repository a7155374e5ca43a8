"""Compressor interface and payload wire-size accounting.

A compressor is the lossy function ``Q`` in the paper's low-precision
primitives.  ``compress`` produces a :class:`CompressedPayload` that knows
its own wire size in bytes — the transport charges that size, so compressed
communication is cheaper on the simulated network exactly as it is on a real
one.  ``decompress`` reconstructs a (lossy) ``DTYPE`` array: codecs read and
return the training dtype, whatever precision they compute in inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE

#: Wire bytes per element of an uncompressed tensor: the training dtype's.
FULL_PRECISION_BYTES = DTYPE.itemsize


@dataclass
class CompressedPayload:
    """Opaque compressed tensor plus its wire size.

    ``fields`` holds whatever the codec needs to reconstruct the array;
    ``wire_bytes`` is what the network is charged.
    """

    codec: str
    n: int
    wire_bytes: float
    fields: dict[str, np.ndarray | float]


class Compressor:
    """Base class for lossy tensor codecs."""

    #: short identifier used in registries and reports
    name: str = "identity"

    #: True when ``E[decompress(compress(x))] != x``.  Biased codecs need
    #: error-feedback residual state to converge (paper §2.2); the analyzer's
    #: ``ef-invariant`` rule enforces exactly this flag.
    biased: bool = False

    def compress(self, array: np.ndarray) -> CompressedPayload:
        raise NotImplementedError

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        raise NotImplementedError

    def wire_bytes(self, n_elements: int) -> float:
        """Wire size for an ``n_elements`` tensor (used by the cost model)."""
        raise NotImplementedError

    def compression_ratio(self, n_elements: int = 1 << 20) -> float:
        """Full-precision bytes divided by compressed bytes."""
        full = n_elements * FULL_PRECISION_BYTES
        return full / self.wire_bytes(n_elements)

    # ------------------------------------------------------------------
    # World-batched kernel interface
    # ------------------------------------------------------------------
    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """``decompress(compress(cell))`` for every (row, column-segment) cell.

        ``matrix`` is a ``(rows, n)`` ``DTYPE`` array — one row per group
        member — and ``bounds`` are ``(lo, hi)`` column segments shared by
        all rows (the chunk partition of a collective).  Returns an array of
        the same shape holding the roundtripped values, **bitwise equal** to
        calling :meth:`compress` / :meth:`decompress` on each cell in
        row-major order (row 0's segments left to right, then row 1, ...).
        Row-major order is the contract that keeps stochastic codecs' RNG
        streams unchanged: one batched draw over the full matrix consumes the
        generator exactly as the sequence of per-cell draws does.

        This base implementation *is* the per-cell loop, so it is bit-exact
        by construction; vectorized overrides in subclasses must preserve it
        (the fast-path property tests compare both).
        """
        matrix = np.asarray(matrix, dtype=DTYPE)
        out = np.empty_like(matrix)
        for i in range(matrix.shape[0]):
            for lo, hi in bounds:
                out[i, lo:hi] = self.decompress(self.compress(matrix[i, lo:hi]))
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class IdentityCompressor(Compressor):
    """No-op codec: full-precision (fp32-equivalent) wire size."""

    name = "fp32"

    def compress(self, array: np.ndarray) -> CompressedPayload:
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={"values": array.astype(DTYPE, copy=True)},
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        return np.asarray(payload.fields["values"]).copy()

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        return np.array(matrix, dtype=DTYPE)

    def wire_bytes(self, n_elements: int) -> float:
        return float(n_elements * FULL_PRECISION_BYTES)
