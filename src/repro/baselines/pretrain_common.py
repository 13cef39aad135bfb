"""Shared configuration, fit loop and helpers of the self-supervised
baselines (CPC, NSP, SOP, RTD)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.trainer import LoopConfig, apply_update, build_step, run_epochs
from ..data.batches import iterate_batches
from ..data.sequences import SequenceDataset
from ..nn import Adam

__all__ = ["PretrainConfig", "Pretrainer", "leaf_grad", "truncate_tail",
           "random_slice_pair"]


@dataclass
class PretrainConfig(LoopConfig):
    """Hyper-parameters shared by CPC/NSP/SOP/RTD pre-training."""

    max_seq_length: int = 150  # truncate long sequences for speed


class Pretrainer:
    """The fit loop and ``embed`` the pre-training baselines share.

    A subclass sets ``encoder``, ``schema`` and ``history = []`` and
    implements ``_backward(fused_step, batch, rng)``: its objective's
    forward and backward on one batch (gradients accumulated, no update),
    returning the loss.  ``_batches`` is its batch source; the default
    yields padded batches of at least two sequences.  ``_parameters()``
    lists what the optimizer trains (encoder plus ``head`` by default).
    """

    def _parameters(self):
        return list(self.encoder.parameters()) + list(self.head.parameters())

    def _batches(self, dataset, config, rng):
        """One epoch of padded batches under the config's epoch plan."""
        for batch in iterate_batches(dataset, config.batch_size, rng=rng,
                                     bucket_window=config.bucket_window):
            if batch.batch_size >= 2:
                yield batch

    def fit(self, dataset, config=None):
        """Pre-train on all sequences (labels unused), each truncated to
        its last ``config.max_seq_length`` events."""
        config = config or PretrainConfig()
        fused_step = build_step(self.encoder, config.precision)
        rng = np.random.default_rng(config.seed)
        truncated = SequenceDataset(
            [truncate_tail(seq, config.max_seq_length) for seq in dataset],
            dataset.schema,
        )
        optimizer = Adam(self._parameters(), lr=config.learning_rate)

        def step(batch):
            optimizer.zero_grad()
            loss = self._backward(fused_step, batch, rng)
            apply_update(optimizer, config.clip_norm)
            return loss

        run_epochs(self, config,
                   lambda: self._batches(truncated, config, rng), step)
        return self

    def embed(self, dataset, batch_size=64):
        from ..core.inference import embed_dataset

        return embed_dataset(self.encoder, dataset, batch_size=batch_size)


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


def truncate_tail(sequence, max_length):
    """Keep the most recent ``max_length`` events (the informative tail)."""
    if len(sequence) <= max_length:
        return sequence
    return sequence.slice(len(sequence) - max_length, len(sequence))


def random_slice_pair(length, rng, min_length=5):
    """Two consecutive slices (A, B) of a sequence of ``length`` events, as
    position arrays, or None if it is too short.

    Used by NSP (B follows A 50% of the time) and SOP (order prediction).
    """
    if length < 2 * min_length + 1:
        return None
    split = int(rng.integers(min_length, length - min_length))
    a_start = int(rng.integers(0, max(split - 3 * min_length, 0) + 1))
    b_stop = int(rng.integers(min(split + 3 * min_length, length), length + 1))
    if a_start == split or b_stop == split:
        return None
    return np.arange(a_start, split), np.arange(split, b_stop)
