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
from ..data.bucketing import epoch_plan
from ..nn import Linear, Tensor, concat
from ..nn import functional as F
from .pretrain_common import Pretrainer, leaf_grad, random_slice_pair

__all__ = ["NSP", "SOP"]


class _PairPretrainer(Pretrainer):
    """Shared machinery: build (A, B, label) batches and train the head."""

    def __init__(self, encoder, schema, seed=0):
        self.encoder = encoder
        self.schema = schema
        rng = np.random.default_rng(seed)
        self.head = Linear(4 * encoder.output_dim, 1, rng=rng)
        self.history = []

    def _pair_features(self, emb_a, emb_b):
        return concat([emb_a, emb_b, emb_a * emb_b, emb_a - emb_b], axis=1)

    def _make_pairs(self, lengths, rng):
        """Pair views over sequences of ``lengths``: ``(first, second,
        labels)``, each view an ``(index into lengths, positions)`` pair."""
        raise NotImplementedError

    def _batches(self, dataset, config, rng):
        """One epoch of collated ``(A, B, labels)`` pair batches."""
        lengths = dataset.lengths()
        for chunk in epoch_plan(lengths, config.batch_size,
                                rng=rng, bucket_window=config.bucket_window):
            made = self._make_pairs(lengths[chunk].tolist(), rng)
            if made is not None:
                first, second, labels = made
                yield (_gather(dataset, chunk, first),
                       _gather(dataset, chunk, second), labels)

    def _backward(self, fused_step, batch, rng):
        """Pair loss on one batch: the head gets its gradients from the
        autograd graph, which stops at the two embedding leaves, and the
        encoder gets them from the fused backward."""
        batch_a, batch_b, labels = batch
        cache_a = fused_step.forward(batch_a)
        cache_b = fused_step.forward(batch_b)
        emb_a = Tensor(cache_a.embeddings, requires_grad=True)
        emb_b = Tensor(cache_b.embeddings, requires_grad=True)
        logits = self.head(self._pair_features(emb_a, emb_b)).reshape(-1)
        loss = F.binary_cross_entropy_with_logits(logits, labels)
        loss.backward()
        fused_step.backward(cache_a, leaf_grad(emb_a))
        fused_step.backward(cache_b, leaf_grad(emb_b))
        return loss.item()


def _gather(dataset, chunk, views):
    """Collate ``(index into chunk, positions)`` views from the dataset."""
    indices, positions = zip(*views)
    return collate(dataset, rows=chunk[list(indices)], positions=positions)


class NSP(_PairPretrainer):
    """Next-sequence-prediction pre-training."""

    def _make_pairs(self, lengths, rng):
        first, second, labels = [], [], []
        for index, length in enumerate(lengths):
            pair = random_slice_pair(length, rng)
            if pair is None:
                continue
            a, b = pair
            if rng.random() < 0.5 or len(lengths) < 2:
                first.append((index, a))
                second.append((index, b))
                labels.append(1.0)
            else:
                # Random fragment of a *different* sequence.
                other_index = index
                while other_index == index:
                    other_index = int(rng.integers(0, len(lengths)))
                other_pair = random_slice_pair(lengths[other_index], rng)
                if other_pair is None:
                    continue
                first.append((index, a))
                second.append((other_index, other_pair[1]))
                labels.append(0.0)
        if not first:
            return None
        return first, second, np.array(labels)


class SOP(_PairPretrainer):
    """Sequence-order-prediction pre-training."""

    def _make_pairs(self, lengths, rng):
        first, second, labels = [], [], []
        for index, length in enumerate(lengths):
            pair = random_slice_pair(length, rng)
            if pair is None:
                continue
            a, b = pair
            if rng.random() < 0.5:
                first.append((index, a))
                second.append((index, b))
                labels.append(1.0)  # correct order
            else:
                first.append((index, b))
                second.append((index, a))
                labels.append(0.0)  # swapped
        if not first:
            return None
        return first, second, np.array(labels)
