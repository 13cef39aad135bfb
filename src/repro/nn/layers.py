"""Core layers: Linear, Embedding, normalisation, dropout, activations."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Embedding",
    "BatchNorm1d",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Tanh",
    "GELU",
    "L2Normalize",
]


class Linear(Module):
    """Affine map ``y = x W^T + b``; weights are Glorot-uniform."""

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = (Parameter(np.zeros(out_features, dtype=np.float64))
                     if bias else None)

    def forward(self, x):
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    ``padding_idx`` rows are initialised to zero; their gradient updates are
    masked by the caller passing masked batches (padding positions do not
    contribute to the loss in our pipelines).
    """

    def __init__(self, num_embeddings, embedding_dim, padding_idx=None, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), rng, std=0.05)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, ids):
        # reprolint: disable=RP001 -- ids keep their integer dtype.
        ids = np.asarray(ids)
        if ids.min() < 0 or ids.max() >= self.num_embeddings:
            raise IndexError(
                "embedding ids out of range [0, %d): min=%d max=%d"
                % (self.num_embeddings, ids.min(), ids.max())
            )
        return self.weight.take_rows(ids)


class BatchNorm1d(Module):
    """Batch normalisation over the last axis for 2-D or masked 3-D input.

    The CoLES event encoder applies batch norm to numerical transaction
    attributes (Section 3.4).  For 3-D ``(B, T, C)`` input a boolean mask of
    shape ``(B, T)`` restricts statistics to real (non-padded) events.
    """

    def __init__(self, num_features, momentum=0.1, eps=1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=np.float64))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float64))
        self.register_buffer("running_mean",
                             np.zeros(num_features, dtype=np.float64))
        self.register_buffer("running_var",
                             np.ones(num_features, dtype=np.float64))

    def forward(self, x, mask=None):
        if self.training:
            if mask is not None:
                mask_arr = np.asarray(mask, dtype=bool)
                flat = x.data[mask_arr]
            else:
                flat = x.data.reshape(-1, self.num_features)
            if len(flat) == 0:
                raise ValueError("batch norm received an empty batch")
            mean = flat.mean(axis=0)
            var = flat.var(axis=0)
            self._set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mean,
            )
            self._set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * var,
            )
        else:
            mean = self.running_mean
            var = self.running_var
        centered = x - Tensor(mean)
        scaled = centered / Tensor(np.sqrt(var + self.eps))
        return scaled * self.weight + self.bias


class LayerNorm(Module):
    """Layer normalisation over the last axis (used by the Transformer)."""

    def __init__(self, num_features, eps=1e-5):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=np.float64))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float64))

    def forward(self, x):
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p=0.1, rng=None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x):
        return F.dropout(x, self.p, self.training, rng=self.rng)


class ReLU(Module):
    def forward(self, x):
        return x.relu()


class Tanh(Module):
    def forward(self, x):
        return x.tanh()


class GELU(Module):
    def forward(self, x):
        return F.gelu(x)


class L2Normalize(Module):
    """Unit-norm projection head (Section 3.3: encoder outputs unit vectors)."""

    def forward(self, x):
        return F.l2_normalize(x, axis=-1)
