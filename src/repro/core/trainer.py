"""Generic contrastive training loop used by CoLES (Figure 1, Phase 1)."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..nn import Adam, clip_grad_norm
from ..runtime import training
from .batching import coles_batches

__all__ = ["TrainConfig", "ContrastiveTrainer"]


@dataclass
class TrainConfig:
    """Hyper-parameters of the self-supervised training phase (Table 1)."""

    num_epochs: int = 10
    batch_size: int = 16  # entities per batch (N)
    learning_rate: float = 0.002
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    seed: int = 0
    verbose: bool = False
    # Length-bucketing shuffle window (in batches) for the batch planner;
    # None keeps the fully random order.
    bucket_window: int | None = None
    # Training always runs on the fused runtime (repro.runtime.training),
    # so "fused" is the only legal value.  The field stays because
    # callers that pinned the engine explicitly (the perfbench harness
    # among them) keep constructing TrainConfig(engine="fused").
    engine: str = "fused"
    # Compute dtype of the fused step: "float64" (default — the parity
    # reference, the autograd trajectory to rounding) or "float32"
    # (mixed precision: float32 compute/gradients, float64 master
    # weights).
    precision: str = "float64"

    def __post_init__(self):
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (negatives needed)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.engine != "fused":
            raise ValueError(
                "unknown engine %r: training runs on the fused runtime "
                "only (engine='fused')" % self.engine
            )
        if self.precision not in ("float32", "float64"):
            raise ValueError(
                "unknown precision %r (use 'float32' or 'float64')"
                % self.precision
            )


@dataclass
class EpochStats:
    """Per-epoch training telemetry."""

    epoch: int
    mean_loss: float
    num_batches: int
    seconds: float


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
        self._fused_step = training.FusedTrainStep(
            encoder, precision=self.config.precision)

    def fit(self, dataset):
        """Run the self-supervised phase; returns the epoch history."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(self.encoder.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        self.encoder.train()
        for epoch in range(config.num_epochs):
            losses = []
            started = time.perf_counter()
            for batch in coles_batches(dataset, self.strategy,
                                       config.batch_size, rng,
                                       bucket_window=config.bucket_window):
                loss = self.train_step(batch, optimizer, rng)
                losses.append(loss)
            stats = EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(losses)) if losses else float("nan"),
                num_batches=len(losses),
                seconds=time.perf_counter() - started,
            )
            self.history.append(stats)
            if config.verbose:
                print(
                    "epoch %3d  loss %.4f  (%d batches, %.1fs)"
                    % (epoch, stats.mean_loss, stats.num_batches, stats.seconds)
                )
        self.encoder.eval()
        return self.history

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
        if self.config.clip_norm:
            clip_grad_norm(self.encoder.parameters(), self.config.clip_norm)
        optimizer.step()
        return value
