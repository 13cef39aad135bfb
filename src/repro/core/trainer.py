"""The one training loop: every ``fit`` in the package runs through here.

CoLES (Figure 1, Phase 1), the CPC/NSP/SOP/RTD baselines (Section
4.1.3) and supervised fine-tuning (Phase 2b) share

- :class:`LoopConfig`, the settings every loop has, validated once at
  construction;
- :func:`build_step`, the one place a fused train step is built;
- :func:`apply_update`, the update every step ends with (clip, then
  ``optimizer.step()``);
- :func:`run_epochs`, the epoch driver (train/eval mode, the epoch loop,
  the :class:`EpochStats` history and the ``verbose`` line).

A method supplies only its per-batch step and its batch source; the
batch sources plan their epochs with
:func:`repro.data.bucketing.epoch_plan`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..nn import Adam, clip_grad_norm
from ..runtime import training
from .batching import coles_batches

__all__ = ["LoopConfig", "TrainConfig", "EpochStats", "ContrastiveTrainer",
           "build_step", "apply_update", "run_epochs"]

#: Field name -> (legal-value test, what a legal value is).  One table
#: for every config: a subclass's own fields validate through it too.
_FIELD_RULES = {
    "num_epochs": (lambda value: value >= 1, ">= 1"),
    "learning_rate": (lambda value: value > 0, "> 0"),
    "encoder_learning_rate": (lambda value: value is None or value > 0,
                              "> 0 or None"),
    "clip_norm": (lambda value: value >= 0, ">= 0 (0 turns clipping off)"),
    "weight_decay": (lambda value: value >= 0, ">= 0"),
    "bucket_window": (lambda value: value is None or value >= 1,
                      ">= 1 or None"),
    "max_seq_length": (lambda value: value >= 1, ">= 1"),
    "precision": (lambda value: value in ("float32", "float64"),
                  "'float32' or 'float64'"),
    "engine": (lambda value: value == "fused",
               "'fused' (training runs on the fused runtime only)"),
}


@dataclass
class LoopConfig:
    """The hyper-parameters every training loop shares (Table 1)."""

    num_epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.002
    # Global gradient-norm bound applied before every update; 0 turns
    # clipping off.
    clip_norm: float = 5.0
    seed: int = 0
    verbose: bool = False
    # Length-bucketing shuffle window (in batches) for the epoch plan;
    # None keeps the fully random order.
    bucket_window: int | None = None
    # Compute dtype of the fused step (repro.runtime.training):
    # "float64" (default — the parity reference, the autograd trajectory
    # to rounding) or "float32" (mixed precision: float32
    # compute/gradients, float64 master weights).
    precision: str = "float64"

    #: Smallest legal ``batch_size``: contrastive and pair objectives
    #: need a second entity for their negatives.
    min_batch_size: ClassVar[int] = 2

    def __post_init__(self):
        if self.batch_size < self.min_batch_size:
            raise ValueError("batch_size must be >= %d (got %r)"
                             % (self.min_batch_size, self.batch_size))
        for name, value in vars(self).items():
            rule = _FIELD_RULES.get(name)
            if rule is not None and not rule[0](value):
                raise ValueError("%s must be %s (got %r)"
                                 % (name, rule[1], value))


@dataclass
class TrainConfig(LoopConfig):
    """Hyper-parameters of the self-supervised CoLES phase."""

    weight_decay: float = 0.0
    # Training always runs on the fused runtime (repro.runtime.training),
    # so "fused" is the only legal value.  The field stays because
    # callers that pinned the engine explicitly (the perfbench harness
    # among them) keep constructing TrainConfig(engine="fused").
    engine: str = "fused"


@dataclass
class EpochStats:
    """Per-epoch training telemetry."""

    epoch: int
    mean_loss: float
    num_batches: int
    seconds: float


def build_step(encoder, precision):
    """The fused train step of ``encoder`` — the one place one is built.

    ``FusedTrainStep`` is looked up in :mod:`repro.runtime.training` on
    every call, so a test can swap in an oracle step for every loop at
    once.  Building a step builds no plan and touches no weight.
    """
    return training.FusedTrainStep(encoder, precision=precision)


def apply_update(optimizer, clip_norm):
    """End a step: clip the gradients' global norm, then step.

    Clips over the optimizer's own parameters, in its order, to
    ``clip_norm`` (0 turns clipping off), then calls
    ``optimizer.step()``.
    """
    if clip_norm:
        clip_grad_norm(optimizer.parameters, clip_norm)
    optimizer.step()


def run_epochs(model, config, epoch_batches, step):
    """The epoch driver: ``config.num_epochs`` epochs of ``step`` calls.

    ``model`` is the trainer or baseline being fit (it has ``encoder``
    and ``history``); ``epoch_batches()`` returns one epoch's batches and
    ``step(batch)`` runs one optimisation step and returns its loss.
    Batches are drawn one at a time, each stepped before the next is
    made, so random draws keep the order shuffle, then each batch's own.
    Appends one :class:`EpochStats` per epoch to ``model.history`` and
    returns it; the encoder trains in train mode and ends in eval mode.
    """
    model.encoder.train()
    for epoch in range(config.num_epochs):
        started = time.perf_counter()
        losses = [step(batch) for batch in epoch_batches()]
        stats = EpochStats(
            epoch=epoch,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            num_batches=len(losses),
            seconds=time.perf_counter() - started,
        )
        model.history.append(stats)
        if config.verbose:
            print("%s epoch %3d  loss %.4f  (%d batches, %.1fs)"
                  % (type(model).__name__, epoch, stats.mean_loss,
                     stats.num_batches, stats.seconds))
    model.encoder.eval()
    return model.history


class ContrastiveTrainer:
    """Optimises an encoder under a metric-learning loss on augmented views.

    Parameters
    ----------
    encoder:
        An :class:`~repro.encoders.RnnSeqEncoder` or
        :class:`~repro.encoders.TransformerSeqEncoder` (anything else
        raises ``TypeError``); its embeddings feed the loss.
    loss_fn:
        Callable ``(embeddings, groups, rng) -> scalar Tensor``.
    strategy:
        Sub-sequence augmentation strategy (Algorithm 1 by default, set by
        the caller).
    """

    def __init__(self, encoder, loss_fn, strategy, config=None):
        self.encoder = encoder
        self.loss_fn = loss_fn
        self.strategy = strategy
        self.config = config or TrainConfig()
        self.history = []
        self._fused_step = build_step(encoder, self.config.precision)

    def fit(self, dataset):
        """Run the self-supervised phase; returns the epoch history."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(self.encoder.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        return run_epochs(
            self, config,
            lambda: coles_batches(dataset, self.strategy, config.batch_size,
                                  rng, bucket_window=config.bucket_window),
            lambda batch: self.train_step(batch, optimizer, rng))

    def train_step(self, batch, optimizer, rng):
        """One optimisation step on a pre-built batch; returns the loss.

        The encoder's forward+backward runs through
        :class:`~repro.runtime.FusedTrainStep` (hand-derived BPTT or
        attention backward, no Tensor graph); only the loss itself — a
        function of the small ``(B, H)`` embedding matrix — goes through
        autograd via :func:`~repro.runtime.loss_gradient`.
        """
        cache = self._fused_step.forward(batch)
        value, d_embeddings = training.loss_gradient(
            self.loss_fn, cache.embeddings, batch.seq_ids, rng=rng)
        optimizer.zero_grad()
        self._fused_step.backward(cache, d_embeddings)
        apply_update(optimizer, self.config.clip_norm)
        return value
