"""Supervised sequence classification and fine-tuning (Figure 1, Phase 2b).

A :class:`SequenceClassifier` is a sequence encoder with a softmax head
``h`` trained jointly on labeled data.  Two uses map onto the paper:

- *supervised-only baseline* (Table 7): fresh encoder, no pre-training;
- *fine-tuning* (Table 7, Figure 4): the encoder comes pre-trained by
  CoLES/CPC/RTD and continues training with the head.

Like every other training loop, fine-tuning runs on the fused graph-free
runtime for recurrent *and* transformer encoders: the encoder
forward+backward is hand-derived (BPTT for GRU/LSTM, the attention
reverse pass for transformers) and the cross-entropy + linear-head
backward is closed-form (:func:`repro.runtime.softmax_head_gradient`),
so no autograd graph is built at all.  Gradients match autograd to
< 1e-8, including distinct per-group learning rates for the encoder and
the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..core.trainer import LoopConfig, apply_update, build_step, run_epochs
from ..data.batches import iterate_batches
from ..nn import Adam, Linear
from ..runtime.training import softmax_head_probabilities

__all__ = ["FineTuneConfig", "SequenceClassifier"]


@dataclass
class FineTuneConfig(LoopConfig):
    """Hyper-parameters of the supervised phase."""

    batch_size: int = 32
    # Separate (usually gentler) rate for the pre-trained encoder's
    # parameters; the head always trains at learning_rate.
    encoder_learning_rate: float | None = None  # defaults to learning_rate

    #: Cross-entropy needs no negatives: one sequence is a batch.
    min_batch_size: ClassVar[int] = 1

    def __post_init__(self):
        super().__post_init__()
        if self.encoder_learning_rate is None:
            self.encoder_learning_rate = self.learning_rate


class SequenceClassifier:
    """Encoder + single-layer softmax head (the paper's fine-tuning setup)."""

    def __init__(self, encoder, num_classes, seed=0):
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        self.encoder = encoder
        self.num_classes = num_classes
        rng = np.random.default_rng(seed)
        self.head = Linear(encoder.output_dim, num_classes, rng=rng)
        self.history = []

    def fit(self, dataset, config=None):
        """Train on the labeled part of ``dataset`` (unlabeled are ignored).

        Each step is fully hand-derived: fused encoder forward,
        closed-form cross-entropy + linear-head backward, fused BPTT (or
        the attention backward).  The encoder's parameter group trains
        at ``config.encoder_learning_rate`` and the head at
        ``config.learning_rate``.
        """
        config = config or FineTuneConfig()
        labeled = dataset.labeled()
        if len(labeled) == 0:
            raise ValueError("no labeled sequences to fit on")
        rng = np.random.default_rng(config.seed)
        fused_step = build_step(self.encoder, config.precision)
        optimizer = Adam(
            [{"params": self.encoder.parameters(),
              "lr": config.encoder_learning_rate},
             {"params": self.head.parameters(), "lr": config.learning_rate}],
            lr=config.learning_rate,
        )

        def step(batch):
            targets = batch.label_array()
            optimizer.zero_grad()
            cache = fused_step.forward(batch)
            loss = fused_step.backward_classification(cache, self.head,
                                                      targets)
            apply_update(optimizer, config.clip_norm)
            return loss

        run_epochs(
            self, config,
            lambda: iterate_batches(labeled, config.batch_size, rng=rng,
                                    bucket_window=config.bucket_window),
            step)
        return self

    def predict_proba(self, dataset, batch_size=64, precision="float64"):
        """Class probabilities ``(N, C)`` for every sequence.

        The encoder (recurrent or transformer) runs through the fused
        inference runtime (:class:`~repro.runtime.FusedEncoderRuntime`,
        length-sorted batch plan).  Under the default
        ``precision="float64"`` the result matches the autograd modules
        to < 1e-10; ``"float32"`` serves faster at a property-bounded
        drift.
        """
        from ..core.inference import embed_dataset

        self.encoder.eval()
        embeddings = embed_dataset(self.encoder, dataset,
                                   batch_size=batch_size, precision=precision)
        return softmax_head_probabilities(self.head, embeddings)

    def predict(self, dataset, batch_size=64, precision="float64"):
        return self.predict_proba(dataset, batch_size,
                                  precision=precision).argmax(axis=1)
