"""Sequence-level encoders phi_seq (Section 3.4).

The composite encoder is ``M({x_t}) = phi_seq({phi_evt(x_t)})``.  Three
phi_seq variants reproduce Table 3: GRU (the paper default), LSTM and a
Transformer.  All expose the same interface:

- ``forward(batch)`` -> ``(states, embedding)`` where states is the
  per-step representation ``(B, T, H)`` (needed by CPC/RTD) and embedding
  is the whole-sequence vector ``(B, H)``;
- ``embed(batch)`` -> embedding only, unit-normalised when the encoder was
  built with ``normalize=True`` (the paper restricts M to unit vectors,
  Section 3.3).
"""

from __future__ import annotations

import numpy as np

from ..nn import GRU, LSTM, Linear, Module, TransformerEncoder
from ..nn import functional as F
from .trx_encoder import TrxEncoder

__all__ = ["SeqEncoder", "RnnSeqEncoder", "TransformerSeqEncoder", "build_encoder"]


class SeqEncoder(Module):
    """Base class fixing the encoder interface."""

    def __init__(self, trx_encoder, hidden_size, normalize):
        super().__init__()
        self.trx_encoder = trx_encoder
        self.hidden_size = hidden_size
        self.normalize = normalize

    @property
    def output_dim(self):
        return self.hidden_size

    def forward(self, batch):
        raise NotImplementedError

    def embed(self, batch):
        """Whole-sequence embedding ``c_e = M({x_e})``."""
        _, embedding = self.forward(batch)
        return embedding

    def _head(self, embedding):
        return F.l2_normalize(embedding) if self.normalize else embedding

    def fused_runtime(self, precision=None, workers=None):
        """Graph-free serving runtime sharing this encoder's weights.

        The returned :class:`~repro.runtime.FusedEncoderRuntime` reads the
        parameters live, so it keeps serving the current weights after
        further training.  Works for every repro encoder family (the
        runtime picks the RNN or attention kernels); ``precision``/
        ``workers`` configure the runtime's dtype policy and
        bucket-parallel worker count (None: the runtime defaults).
        """
        from ..runtime import FusedEncoderRuntime

        return FusedEncoderRuntime.of(self, precision, workers)


class RnnSeqEncoder(SeqEncoder):
    """GRU/LSTM sequence encoder with a learnt initial state (paper default)."""

    def __init__(self, trx_encoder, hidden_size, cell="gru", normalize=True,
                 rng=None):
        super().__init__(trx_encoder, hidden_size, normalize)
        rng = rng or np.random.default_rng()
        if cell == "gru":
            self.rnn = GRU(trx_encoder.output_dim, hidden_size, rng=rng)
        elif cell == "lstm":
            self.rnn = LSTM(trx_encoder.output_dim, hidden_size, rng=rng)
        else:
            raise ValueError("unknown cell %r (use 'gru' or 'lstm')" % cell)
        self.cell = cell

    def forward(self, batch):
        events = self.trx_encoder(batch)
        states, last = self.rnn(events, mask=batch.mask)
        return states, self._head(last)


class TransformerSeqEncoder(SeqEncoder):
    """Transformer sequence encoder (Table 3's third option)."""

    def __init__(self, trx_encoder, hidden_size, num_heads=4, num_layers=2,
                 normalize=True, dropout=0.0, rng=None):
        super().__init__(trx_encoder, hidden_size, normalize)
        rng = rng or np.random.default_rng()
        self.input_proj = Linear(trx_encoder.output_dim, hidden_size, rng=rng)
        self.transformer = TransformerEncoder(
            hidden_size, num_heads=num_heads, num_layers=num_layers,
            dropout=dropout, rng=rng,
        )

    def forward(self, batch):
        events = self.input_proj(self.trx_encoder(batch))
        states, pooled = self.transformer(events, mask=batch.mask)
        return states, self._head(pooled)


def build_encoder(schema, hidden_size, encoder_type="gru", normalize=True,
                  embedding_dims=None, rng=None, **kwargs):
    """Factory covering the Table-3 encoder grid.

    ``encoder_type`` is one of ``gru``, ``lstm`` or ``transformer``.
    """
    rng = rng or np.random.default_rng()
    trx = TrxEncoder(schema, embedding_dims=embedding_dims, rng=rng)
    if encoder_type in ("gru", "lstm"):
        return RnnSeqEncoder(trx, hidden_size, cell=encoder_type,
                             normalize=normalize, rng=rng, **kwargs)
    if encoder_type == "transformer":
        return TransformerSeqEncoder(trx, hidden_size, normalize=normalize,
                                     rng=rng, **kwargs)
    raise ValueError("unknown encoder_type %r" % encoder_type)
