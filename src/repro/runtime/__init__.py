"""Fused runtime: graph-free kernels for training *and* serving hot paths.

This package is the one execution engine for every repro encoder.  The
split of the codebase:

- **autograd** (:mod:`repro.nn`) — the differentiable Tensor substrate,
  one graph node per op; used by the losses (small graphs over
  embeddings, per-step states or event representations wrapped as leaf
  tensors, via :func:`loss_gradient`) and, in the tests, as the parity
  oracle for every fused kernel and training loop;
- **fused training** (:mod:`~repro.runtime.training`) — a
  :class:`FusedTrainStep` runs the encoder forward and hand-derived
  backward — BPTT (:func:`~repro.runtime.kernels.rnn_backward`) for
  recurrent encoders, the attention reverse pass
  (:func:`~repro.runtime.attention.transformer_backward`) for
  transformers — as raw numpy.  Every training loop steps through it:
  final-embedding objectives (CoLES losses, NSP/SOP), per-step
  objectives (CPC, RTD) through the ``d_states``/``d_events`` gradient
  interface, and supervised fine-tuning through the hand-derived
  :func:`softmax_head_gradient`.  Encoders outside the two repro
  families get a ``TypeError``;
- **serving** — the same forward kernels driven by a
  :class:`FusedEncoderRuntime`, with per-entity state owned by an
  :class:`EmbeddingStore` over a :class:`StateBackend` (row shards in
  RAM, or out-of-core in memory-mapped files) and an at-rest
  :class:`StateCodec` (identity / float16 / int8 / uint4).

All paths share one weight layout per encoder family
(:class:`repro.nn.CellWeights` for RNN cells, the
:func:`~repro.runtime.attention.transformer_parameters` walk for
transformers): fused-trained weights drop directly into the serving
stack.  Forward equivalence to the autograd modules is < 1e-10 and
gradient equivalence < 1e-8, asserted property-style by
``tests/runtime/``.
"""

from . import attention, kernels
from .attention import TransformerPlan, build_transformer_plan
from .backends import (Float16Codec, IdentityCodec, QuantizedCodec,
                       StateBackend, StateCodec, resolve_codec)
from .engine import FusedEncoderRuntime
from .store import (AdvanceResult, EmbeddingStore, advance_entities,
                    bulk_load_states)
from .training import (FusedForwardCache, FusedTrainStep, loss_gradient,
                       softmax_head_gradient, softmax_head_probabilities)

__all__ = ["kernels", "attention", "TransformerPlan",
           "build_transformer_plan", "FusedEncoderRuntime", "EmbeddingStore", "AdvanceResult",
           "advance_entities", "bulk_load_states", "FusedTrainStep",
           "FusedForwardCache", "loss_gradient", "softmax_head_gradient",
           "softmax_head_probabilities", "StateBackend", "StateCodec",
           "IdentityCodec", "Float16Codec", "QuantizedCodec", "resolve_codec"]
