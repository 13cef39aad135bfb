"""Pure-numpy neural-network substrate for the CoLES reproduction.

Replaces PyTorch: reverse-mode autograd (:mod:`repro.nn.tensor`), a module
system, the layers used by the paper's encoders (linear, embedding, batch
norm, layer norm, dropout), GRU/LSTM/Transformer sequence encoders,
SGD/Adam optimizers and state-dict serialization.
"""

from . import functional
from .layers import (
    BatchNorm1d,
    Dropout,
    Embedding,
    GELU,
    L2Normalize,
    LayerNorm,
    Linear,
    ReLU,
    Tanh,
)
from .module import Module, ModuleDict, ModuleList, Parameter, Sequential
from .optim import SGD, Adam, StepLR, clip_grad_norm
from .rnn import GRU, LSTM, CellWeights
from .serialization import load_arrays, load_state, save_arrays, save_state
from .tensor import Tensor, concat, no_grad, stack, where
from .transformer import (
    MultiHeadAttention,
    TransformerEncoder,
    TransformerEncoderLayer,
    sinusoidal_positions,
)

__all__ = [
    "Tensor",
    "no_grad",
    "concat",
    "stack",
    "where",
    "functional",
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "ModuleDict",
    "Linear",
    "Embedding",
    "BatchNorm1d",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Tanh",
    "GELU",
    "L2Normalize",
    "GRU",
    "LSTM",
    "CellWeights",
    "MultiHeadAttention",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "sinusoidal_positions",
    "SGD",
    "Adam",
    "StepLR",
    "clip_grad_norm",
    "save_state",
    "load_state",
    "save_arrays",
    "load_arrays",
]
