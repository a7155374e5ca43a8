"""Multi-head attention and transformer encoder blocks (BERT/Transformer proxies)."""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from .layers import Dropout, LayerNorm, Linear
from .module import Module
from .tensor import Tensor


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(f"embed_dim {embed_dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.k_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.v_proj = Linear(embed_dim, embed_dim, rng=rng)
        self.out_proj = Linear(embed_dim, embed_dim, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x))  # [B, H, T, d]
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))
        # a Python float scale keeps float32 scores float32
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.head_dim))
        attn = F.softmax(scores, axis=-1)
        context = attn @ v  # [B, H, T, d]
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.embed_dim)
        return self.out_proj(merged)


class TransformerEncoderLayer(Module):
    """Pre-LN transformer encoder block: MHA + 2-layer feed-forward."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        ff_dim: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.attn = MultiHeadAttention(embed_dim, num_heads, rng=rng)
        self.norm1 = LayerNorm(embed_dim)
        self.norm2 = LayerNorm(embed_dim)
        self.ff1 = Linear(embed_dim, ff_dim, rng=rng)
        self.ff2 = Linear(ff_dim, embed_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        ff = self.ff2(F.gelu(self.ff1(self.norm2(x))))
        return x + self.dropout(ff)
