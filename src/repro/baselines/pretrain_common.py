"""Shared configuration and helpers for the self-supervised baselines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.batches import iterate_batches

__all__ = ["PretrainConfig", "pretrain_batches", "leaf_grad",
           "truncate_tail", "random_slice_pair"]


@dataclass
class PretrainConfig:
    """Hyper-parameters shared by CPC/NSP/SOP/RTD pre-training."""

    num_epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.002
    clip_norm: float = 5.0
    max_seq_length: int = 150  # truncate long sequences for speed
    seed: int = 0
    verbose: bool = False
    # Shuffle window (in batches) for the length-bucketed batch planner;
    # None disables bucketing.
    bucket_window: int | None = None
    # Compute dtype of the fused training step (repro.runtime.training),
    # which every baseline runs on: "float64" (default, the parity
    # reference) or "float32" (mixed precision).
    precision: str = "float64"

    def __post_init__(self):
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (negatives needed)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.precision not in ("float32", "float64"):
            raise ValueError(
                "unknown precision %r (use 'float32' or 'float64')"
                % self.precision
            )


def leaf_grad(leaf):
    """A leaf tensor's accumulated gradient (zeros if it never got one).

    The baseline loops wrap fused-forward outputs (embeddings,
    per-step states, event representations) in leaf tensors, run the
    objective through autograd, and feed the leaf gradients back into
    :meth:`~repro.runtime.FusedTrainStep.backward`.  An objective may
    legitimately never touch a leaf (e.g. a batch too short for any CPC
    horizon to read a given input) — that is a zero gradient, not an
    error.
    """
    return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)


def pretrain_batches(dataset, config, rng, drop_last=False):
    """One epoch of padded batches under the config's batch plan.

    All baselines draw their epochs through this helper so the bucketed
    planner (``config.bucket_window``) applies uniformly.
    """
    return iterate_batches(dataset.sequences, dataset.schema,
                           config.batch_size, rng=rng, drop_last=drop_last,
                           bucket_window=config.bucket_window)


def truncate_tail(sequence, max_length):
    """Keep the most recent ``max_length`` events (the informative tail)."""
    if len(sequence) <= max_length:
        return sequence
    return sequence.slice(len(sequence) - max_length, len(sequence))


def random_slice_pair(sequence, rng, min_length=5):
    """Two consecutive slices (A, B) from one sequence, or None if too short.

    Used by NSP (B follows A 50% of the time) and SOP (order prediction).
    """
    total = len(sequence)
    if total < 2 * min_length + 1:
        return None
    split = int(rng.integers(min_length, total - min_length))
    a_start = int(rng.integers(0, max(split - 3 * min_length, 0) + 1))
    b_stop = int(rng.integers(min(split + 3 * min_length, total), total + 1))
    first = sequence.slice(a_start, split)
    second = sequence.slice(split, b_stop)
    if len(first) < 1 or len(second) < 1:
        return None
    return first, second
