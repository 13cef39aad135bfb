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

import numpy as np

from ..data.batches import iterate_batches
from ..nn import Adam, Linear, clip_grad_norm
from ..runtime.training import FusedTrainStep, softmax_head_probabilities

__all__ = ["FineTuneConfig", "SequenceClassifier"]


@dataclass
class FineTuneConfig:
    """Hyper-parameters of the supervised phase."""

    num_epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.002
    # Separate (usually gentler) rate for the pre-trained encoder's
    # parameters; the head always trains at learning_rate.
    encoder_learning_rate: float | None = None  # defaults to learning_rate
    clip_norm: float = 5.0
    seed: int = 0
    verbose: bool = False
    # Length-bucketing shuffle window (in batches) for the batch planner;
    # None keeps the fully random order.
    bucket_window: int | None = None
    # Compute dtype of the fused training step (repro.runtime.training):
    # "float64" (default, the parity reference) or "float32" (mixed
    # precision).
    precision: str = "float64"

    def __post_init__(self):
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.encoder_learning_rate is None:
            self.encoder_learning_rate = self.learning_rate
        elif self.encoder_learning_rate <= 0:
            raise ValueError("encoder_learning_rate must be positive")
        if self.precision not in ("float32", "float64"):
            raise ValueError(
                "unknown precision %r (use 'float32' or 'float64')"
                % self.precision
            )


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
        fused_step = FusedTrainStep(self.encoder, precision=config.precision)
        encoder_params = list(self.encoder.parameters())
        head_params = list(self.head.parameters())
        parameters = encoder_params + head_params
        optimizer = Adam(
            [{"params": encoder_params, "lr": config.encoder_learning_rate},
             {"params": head_params, "lr": config.learning_rate}],
            lr=config.learning_rate,
        )
        self.encoder.train()
        for epoch in range(config.num_epochs):
            losses = []
            for batch in iterate_batches(labeled.sequences, labeled.schema,
                                         config.batch_size, rng=rng,
                                         bucket_window=config.bucket_window):
                targets = batch.label_array()
                optimizer.zero_grad()
                cache = fused_step.forward(batch)
                value = fused_step.backward_classification(cache, self.head,
                                                           targets)
                if config.clip_norm:
                    clip_grad_norm(parameters, config.clip_norm)
                optimizer.step()
                losses.append(value)
            mean_loss = float(np.mean(losses))
            self.history.append(mean_loss)
            if config.verbose:
                print("epoch %3d  loss %.4f" % (epoch, mean_loss))
        self.encoder.eval()
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
