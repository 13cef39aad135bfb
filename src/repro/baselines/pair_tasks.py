"""NSP and SOP pre-training baselines (Section 4.1.3).

Both train the encoder through a binary classification over a *pair* of
sub-sequence embeddings:

- **NSP** (next sequence prediction, after BERT): B truly follows A in the
  same sequence (positive) or is a random fragment of another sequence
  (negative, 50%).
- **SOP** (sequence order prediction, after ALBERT): the pair is always
  two consecutive slices of one sequence; the label says whether their
  order was swapped.

The pair head consumes ``[u, v, u*v, u-v]``: the elementwise product lets
a linear head express similarity (needed by NSP) and the signed difference
keeps order information (needed by SOP).
"""

from __future__ import annotations

import numpy as np

from ..data.batches import collate
from ..nn import Adam, Linear, Tensor, clip_grad_norm, concat
from ..nn import functional as F
from ..runtime.training import FusedTrainStep
from .pretrain_common import (PretrainConfig, leaf_grad, random_slice_pair,
                              truncate_tail)

__all__ = ["NSP", "SOP"]


class _PairPretrainer:
    """Shared machinery: build (A, B, label) batches and train the head."""

    def __init__(self, encoder, schema, seed=0):
        self.encoder = encoder
        self.schema = schema
        rng = np.random.default_rng(seed)
        self.head = Linear(4 * encoder.output_dim, 1, rng=rng)
        self.history = []

    def _pair_features(self, emb_a, emb_b):
        return concat([emb_a, emb_b, emb_a * emb_b, emb_a - emb_b], axis=1)

    def _make_pairs(self, sequences, rng):
        """Return (first_views, second_views, labels) for one batch."""
        raise NotImplementedError

    def _parameters(self):
        return list(self.encoder.parameters()) + list(self.head.parameters())

    def fit(self, dataset, config=None):
        """Pre-train the encoder through the pair objective."""
        config = config or PretrainConfig()
        fused_step = FusedTrainStep(self.encoder, precision=config.precision)
        rng = np.random.default_rng(config.seed)
        sequences = [truncate_tail(seq, config.max_seq_length) for seq in dataset]
        optimizer = Adam(self._parameters(), lr=config.learning_rate)
        self.encoder.train()
        for epoch in range(config.num_epochs):
            losses = []
            order = np.arange(len(sequences))
            rng.shuffle(order)
            for start in range(0, len(order), config.batch_size):
                chunk = [sequences[i] for i in order[start:start + config.batch_size]]
                made = self._make_pairs(chunk, rng)
                if made is None:
                    continue
                first, second, labels = made
                batch_a = collate(first, self.schema)
                batch_b = collate(second, self.schema)
                cache_a = fused_step.forward(batch_a)
                cache_b = fused_step.forward(batch_b)
                emb_a = Tensor(cache_a.embeddings, requires_grad=True)
                emb_b = Tensor(cache_b.embeddings, requires_grad=True)
                logits = self.head(self._pair_features(emb_a, emb_b)).reshape(-1)
                loss = F.binary_cross_entropy_with_logits(logits, labels)
                optimizer.zero_grad()
                # This graph stops at the two embedding leaves: the head
                # gets its gradients here and the encoder gets them from
                # the fused backward below.
                loss.backward()
                fused_step.backward(cache_a, leaf_grad(emb_a))
                fused_step.backward(cache_b, leaf_grad(emb_b))
                if config.clip_norm:
                    clip_grad_norm(self._parameters(), config.clip_norm)
                optimizer.step()
                losses.append(loss.item())
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            self.history.append(mean_loss)
            if config.verbose:
                print("%s epoch %3d  loss %.4f"
                      % (type(self).__name__.lower(), epoch, mean_loss))
        self.encoder.eval()
        return self

    def embed(self, dataset, batch_size=64):
        from ..core.inference import embed_dataset

        return embed_dataset(self.encoder, dataset, batch_size=batch_size)


class NSP(_PairPretrainer):
    """Next-sequence-prediction pre-training."""

    def _make_pairs(self, sequences, rng):
        first, second, labels = [], [], []
        for index, seq in enumerate(sequences):
            pair = random_slice_pair(seq, rng)
            if pair is None:
                continue
            a, b = pair
            if rng.random() < 0.5 or len(sequences) < 2:
                first.append(a)
                second.append(b)
                labels.append(1.0)
            else:
                # Random fragment of a *different* sequence.
                other_index = index
                while other_index == index:
                    other_index = int(rng.integers(0, len(sequences)))
                other_pair = random_slice_pair(sequences[other_index], rng)
                if other_pair is None:
                    continue
                first.append(a)
                second.append(other_pair[1])
                labels.append(0.0)
        if not first:
            return None
        return first, second, np.array(labels)


class SOP(_PairPretrainer):
    """Sequence-order-prediction pre-training."""

    def _make_pairs(self, sequences, rng):
        first, second, labels = [], [], []
        for seq in sequences:
            pair = random_slice_pair(seq, rng)
            if pair is None:
                continue
            a, b = pair
            if rng.random() < 0.5:
                first.append(a)
                second.append(b)
                labels.append(1.0)  # correct order
            else:
                first.append(b)
                second.append(a)
                labels.append(0.0)  # swapped
        if not first:
            return None
        return first, second, np.array(labels)
