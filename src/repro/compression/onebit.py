"""1-bit compression with magnitude rescaling (used by 1-bit Adam, ref [79]).

Each element is reduced to its sign; magnitudes are preserved in aggregate by
two scalars — the mean absolute value of the positive and negative parts —
so decompression returns ``scale_pos`` for positive entries and
``-scale_neg`` for negative ones.  This codec is biased (hence the paper
pairs it with error compensation via C_LP_S).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..tensor.tensor import DTYPE
from .base import CompressedPayload, Compressor


class OneBitCompressor(Compressor):
    name = "1bit"
    biased = True

    def compress(self, array: np.ndarray) -> CompressedPayload:
        array = np.asarray(array, dtype=DTYPE)
        positive = array > 0
        # Masked sums over the full-length array rather than compacted
        # ``array[positive].mean()``: numpy's pairwise summation depends on
        # operand length, and the batched kernel reduces full-width rows —
        # both paths must share one formulation to stay bitwise identical.
        pos_count = int(np.count_nonzero(positive))
        neg_count = array.size - pos_count
        pos_sum = float(np.where(positive, array, 0.0).sum())
        neg_sum = float(np.where(positive, 0.0, array).sum())
        scale_pos = pos_sum / pos_count if pos_count else 0.0
        scale_neg = -(neg_sum / neg_count) if neg_count else 0.0
        return CompressedPayload(
            codec=self.name,
            n=array.size,
            wire_bytes=self.wire_bytes(array.size),
            fields={
                "signs": np.packbits(positive.reshape(-1)),
                "scale_pos": scale_pos,
                "scale_neg": scale_neg,
            },
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        signs = np.unpackbits(
            np.asarray(payload.fields["signs"], dtype=np.uint8), count=payload.n
        ).astype(bool)
        out = np.where(signs, payload.fields["scale_pos"], -payload.fields["scale_neg"])
        return out.astype(DTYPE)

    def batch_roundtrip(
        self, matrix: np.ndarray, bounds: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Vectorized roundtrip: per-(row, segment) sign scales via axis sums."""
        matrix = np.asarray(matrix, dtype=DTYPE)
        out = np.empty_like(matrix)
        for lo, hi in bounds:
            seg = matrix[:, lo:hi]
            positive = seg > 0
            pos_count = np.count_nonzero(positive, axis=1)
            neg_count = (hi - lo) - pos_count
            pos_sum = np.where(positive, seg, 0.0).sum(axis=1)
            neg_sum = np.where(positive, 0.0, seg).sum(axis=1)
            scale_pos = np.divide(
                pos_sum, pos_count, out=np.zeros_like(pos_sum), where=pos_count > 0
            )
            scale_neg = -np.divide(
                neg_sum, neg_count, out=np.zeros_like(neg_sum), where=neg_count > 0
            )
            out[:, lo:hi] = np.where(positive, scale_pos[:, None], -scale_neg[:, None])
        return out

    def wire_bytes(self, n_elements: int) -> float:
        return np.ceil(n_elements / 8.0) + 8.0  # sign bits + two fp32 scales
