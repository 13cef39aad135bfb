"""CoLES: the public facade of the method (Sections 3.2–3.4).

Wires together the three ingredients named at the end of Section 3.4 — the
event-sequence encoder, the positive/negative pair generation strategy and
the contrastive loss — behind a small fit/embed API:

    >>> model = CoLES(schema, hidden_size=64)
    >>> model.fit(train_dataset)
    >>> embeddings = model.embed(test_dataset)   # (N, 64) unit vectors
"""

from __future__ import annotations

import numpy as np

from ..augmentations import STRATEGIES
from ..encoders import build_encoder
from ..losses import LOSSES, SAMPLERS, ContrastiveLoss
from ..nn import load_state, save_state
from .inference import embed_dataset
from .trainer import ContrastiveTrainer, TrainConfig

__all__ = ["CoLES"]


class CoLES:
    """Contrastive Learning for Event Sequences.

    Parameters
    ----------
    schema:
        The dataset's :class:`~repro.data.EventSchema`.
    hidden_size:
        Embedding dimensionality d (Table 1 uses 100–1024; scaled here).
    encoder_type:
        ``gru`` (paper default), ``lstm`` or ``transformer`` (Table 3).
    loss:
        Loss name from :data:`repro.losses.LOSSES` or a loss instance
        (Table 4; default contrastive with margin 0.5).
    sampler:
        Negative sampler name from :data:`repro.losses.SAMPLERS` or an
        instance (Table 5; default hard negative mining).
    strategy:
        Augmentation strategy name from
        :data:`repro.augmentations.STRATEGIES` or an instance (Table 2;
        default random slices, Algorithm 1).
    min_length / max_length / num_samples:
        Algorithm 1 hyper-parameters (m, M, k); Table 1 uses k=5.
    """

    def __init__(self, schema, hidden_size=64, encoder_type="gru",
                 loss="contrastive", sampler="hard", strategy="random_slices",
                 min_length=10, max_length=100, num_samples=5, margin=0.5,
                 neg_per_anchor=5, seed=0):
        self.schema = schema
        self.hidden_size = hidden_size
        self.encoder_type = encoder_type
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.encoder = build_encoder(schema, hidden_size, encoder_type,
                                     normalize=True, rng=rng)

        if isinstance(sampler, str):
            sampler = SAMPLERS[sampler](neg_per_anchor=neg_per_anchor)
        if isinstance(loss, str):
            if loss == "contrastive":
                loss = ContrastiveLoss(margin=margin, sampler=sampler)
            else:
                loss = LOSSES[loss](sampler=sampler) if "sampler" in _init_args(
                    LOSSES[loss]
                ) else LOSSES[loss]()
        self.loss_fn = loss

        if isinstance(strategy, str):
            strategy = STRATEGIES[strategy](min_length, max_length, num_samples)
        self.strategy = strategy
        self.trainer = None

    # ------------------------------------------------------------------
    def fit(self, dataset, num_epochs=10, batch_size=16, learning_rate=0.002,
            verbose=False):
        """Phase 1: self-supervised training on (possibly unlabeled) data.

        Every encoder type trains through the graph-free fused runtime
        (:mod:`repro.runtime.training`): hand-derived BPTT for GRU/LSTM,
        the attention reverse pass for transformers — gradient-equivalent
        to autograd to < 1e-8.
        """
        config = TrainConfig(
            num_epochs=num_epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            seed=self.seed,
            verbose=verbose,
        )
        self.trainer = ContrastiveTrainer(self.encoder, self.loss_fn,
                                          self.strategy, config)
        self.trainer.fit(dataset)
        return self

    @property
    def history(self):
        return [] if self.trainer is None else self.trainer.history

    # ------------------------------------------------------------------
    def embed(self, dataset, batch_size=64):
        """Phase 2a input: embeddings as features for a downstream model."""
        return embed_dataset(self.encoder, dataset, batch_size=batch_size)

    # ------------------------------------------------------------------
    def fine_tune(self, dataset, num_classes=None, num_epochs=10,
                  batch_size=32, learning_rate=0.002,
                  encoder_learning_rate=None):
        """Phase 2b: attach a softmax head and train jointly on labels.

        Returns the fitted
        :class:`~repro.baselines.supervised.SequenceClassifier`; the
        encoder weights are updated in place (the classifier shares them).
        Like :meth:`fit`, every encoder type runs through the fused
        graph-free runtime (the cross-entropy + head backward is
        hand-derived too); ``encoder_learning_rate`` trains the
        pre-trained encoder more gently than the fresh head when set.
        """
        from ..baselines.supervised import FineTuneConfig, SequenceClassifier

        labeled = dataset.labeled()
        if num_classes is None:
            num_classes = int(np.max(labeled.label_array())) + 1
        classifier = SequenceClassifier(self.encoder,
                                        num_classes=max(num_classes, 2),
                                        seed=self.seed)
        classifier.fit(
            labeled,
            FineTuneConfig(num_epochs=num_epochs, batch_size=batch_size,
                           learning_rate=learning_rate,
                           encoder_learning_rate=encoder_learning_rate,
                           seed=self.seed),
        )
        return classifier

    # ------------------------------------------------------------------
    def save(self, path):
        """Persist encoder weights to an npz file."""
        save_state(self.encoder, path)

    def load(self, path):
        """Restore encoder weights saved by :meth:`save`."""
        load_state(self.encoder, path)
        return self


def _init_args(cls):
    import inspect

    return inspect.signature(cls.__init__).parameters
