"""CoLES core: the paper's primary contribution."""

from .batching import augment_batch, coles_batches
from .coles import CoLES
from .inference import embed_dataset, serve
from .quantization import (
    QuantizedEmbeddings,
    pack_uint4,
    quantize_embeddings,
    unpack_uint4,
)
from .trainer import ContrastiveTrainer, TrainConfig

__all__ = [
    "CoLES",
    "coles_batches",
    "augment_batch",
    "ContrastiveTrainer",
    "TrainConfig",
    "embed_dataset",
    "serve",
    "quantize_embeddings",
    "QuantizedEmbeddings",
    "pack_uint4",
    "unpack_uint4",
]
