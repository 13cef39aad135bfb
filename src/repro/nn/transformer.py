"""Transformer encoder (Vaswani et al., 2017) for event sequences.

Used as the third sequence-encoder option in Table 3 of the paper.  The
implementation is a standard pre-norm encoder stack with sinusoidal
positional encodings and key-padding masks.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Dropout, LayerNorm, Linear
from .module import Module, ModuleList
from .tensor import Tensor

__all__ = [
    "sinusoidal_positions",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
]


def sinusoidal_positions(length, dim):
    """The fixed sin/cos positional table of the original Transformer."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    half = (dim + 1) // 2
    freqs = np.exp(-np.log(10000.0)
                   * (np.arange(half, dtype=np.float64) / half))[None, :]
    angles = positions * freqs
    table = np.zeros((length, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)[:, : table[:, 0::2].shape[1]]
    table[:, 1::2] = np.cos(angles)[:, : table[:, 1::2].shape[1]]
    return table


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` parallel heads."""

    def __init__(self, dim, num_heads, dropout=0.0, rng=None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError("dim %d not divisible by num_heads %d" % (dim, num_heads))
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x, batch, steps):
        # (B, T, D) -> (B, heads, T, head_dim)
        return x.reshape(batch, steps, self.num_heads, self.head_dim).transpose(1, 2)

    def forward(self, x, key_padding_mask=None):
        """``x``: (B, T, D); mask: (B, T) True for real positions."""
        batch, steps, _ = x.shape
        q = self._split_heads(self.query(x), batch, steps)
        k = self._split_heads(self.key(x), batch, steps)
        v = self._split_heads(self.value(x), batch, steps)
        scores = (q @ k.transpose(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if key_padding_mask is not None:
            pad = ~np.asarray(key_padding_mask, dtype=bool)
            # Broadcast over heads and query positions.
            scores = scores.masked_fill(pad[:, None, None, :], -1e9)
        attn = F.softmax(scores, axis=-1)
        attn = self.dropout(attn)
        mixed = attn @ v  # (B, heads, T, head_dim)
        merged = mixed.transpose(1, 2).reshape(batch, steps, self.dim)
        return self.out(merged)


class TransformerEncoderLayer(Module):
    """Pre-norm encoder block: MHA + position-wise feed-forward."""

    def __init__(self, dim, num_heads, ff_dim=None, dropout=0.0, rng=None):
        super().__init__()
        ff_dim = ff_dim or 4 * dim
        self.attention = MultiHeadAttention(dim, num_heads, dropout, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng=rng)
        self.ff2 = Linear(ff_dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x, key_padding_mask=None):
        attended = self.attention(self.norm1(x), key_padding_mask)
        x = x + self.dropout(attended)
        hidden = self.ff2(F.gelu(self.ff1(self.norm2(x))))
        return x + self.dropout(hidden)


class TransformerEncoder(Module):
    """Stack of encoder layers with sinusoidal positions and mean pooling.

    ``forward`` returns per-position states and a pooled sequence embedding
    (masked mean over real positions) — the transformer analogue of the
    GRU's final hidden state.
    """

    def __init__(self, dim, num_heads=4, num_layers=2, ff_dim=None, dropout=0.0,
                 max_len=4096, rng=None):
        super().__init__()
        self.dim = dim
        self.layers = ModuleList(
            TransformerEncoderLayer(dim, num_heads, ff_dim, dropout, rng=rng)
            for _ in range(num_layers)
        )
        self.final_norm = LayerNorm(dim)
        self.max_len = max_len
        self._pos_table = sinusoidal_positions(max_len, dim)
        self._pos_cache = {}

    def positional_slice(self, steps, dtype=np.float64):
        """The ``(1, steps, dim)`` positional slice, cached per (dtype, length).

        The autograd forward and the fused runtime both read positions
        through this cache: the Tensor path requests float64 (its compute
        dtype), the fused runtime the dtype of its precision policy — so
        neither re-slices (or re-casts) the table per forward.  Raises ``ValueError`` when
        ``steps`` exceeds ``max_len``.
        """
        if steps > self.max_len:
            raise ValueError(
                "sequence length %d exceeds max_len %d" % (steps, self.max_len))
        key = (np.dtype(dtype).str, steps)
        cached = self._pos_cache.get(key)
        if cached is None:
            cached = np.ascontiguousarray(self._pos_table[None, :steps, :],
                                          dtype=dtype)
            self._pos_cache[key] = cached
        return cached

    def forward(self, x, mask=None):
        batch, steps, _ = x.shape
        x = x + Tensor(self.positional_slice(steps))
        for layer in self.layers:
            x = layer(x, key_padding_mask=mask)
        x = self.final_norm(x)
        if mask is None:
            pooled = x.mean(axis=1)
        else:
            mask_arr = np.asarray(mask, dtype=np.float64)
            weights = mask_arr / np.maximum(mask_arr.sum(axis=1, keepdims=True), 1.0)
            pooled = (x * Tensor(weights[:, :, None])).sum(axis=1)
        return x, pooled
