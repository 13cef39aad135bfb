"""Negative sampling strategies (Table 5).

Positive pairs are scarce while negative pairs are abundant, and far-away
negatives contribute no learning signal (Section 3.3).  Each sampler picks,
for every anchor, ``neg_per_anchor`` cross-group partners using a different
criterion:

- :class:`RandomNegativeSampler` — uniform over cross-group partners;
- :class:`HardNegativeMiner` — the closest (hardest) partners, as in
  FaceNet (Schroff et al., 2015);
- :class:`DistanceWeightedSampler` — inverse-density weights of
  Wu et al. (2017), which avoid both trivial and noisy-hard negatives.

Samplers see only the *detached* distance matrix; gradient flows through
the loss evaluated on the selected pairs, not through the selection.
"""

from __future__ import annotations

import numpy as np

from .pairs import negative_candidates

__all__ = [
    "NegativeSampler",
    "RandomNegativeSampler",
    "HardNegativeMiner",
    "DistanceWeightedSampler",
]


class NegativeSampler:
    """Interface: ``select(distances, groups, rng) -> (anchors, negatives)``."""

    def __init__(self, neg_per_anchor=5):
        if neg_per_anchor < 1:
            raise ValueError("neg_per_anchor must be >= 1")
        self.neg_per_anchor = neg_per_anchor

    def select(self, distances, groups, rng):
        raise NotImplementedError

    def _candidate_rows(self, groups):
        candidates = negative_candidates(groups)
        if not candidates.any():
            raise ValueError("batch has a single group: no negatives available")
        return candidates


class RandomNegativeSampler(NegativeSampler):
    """Uniform sampling over cross-group partners."""

    def select(self, distances, groups, rng):
        candidates = self._candidate_rows(groups)
        anchors, negatives = [], []
        for anchor in range(len(groups)):
            partners = np.flatnonzero(candidates[anchor])
            if len(partners) == 0:
                continue
            take = min(self.neg_per_anchor, len(partners))
            chosen = rng.choice(partners, size=take, replace=False)
            anchors.extend([anchor] * take)
            negatives.extend(chosen.tolist())
        return np.array(anchors), np.array(negatives)


class HardNegativeMiner(NegativeSampler):
    """Closest cross-group partners per anchor (hard negative mining).

    Each anchor takes its ``min(neg_per_anchor, partners)`` nearest
    cross-group partners with a finite distance, nearest first; among
    equal distances the lower partner index comes first.  One stable
    argsort over the candidate-masked matrix picks every anchor's
    partners at once.
    """

    def select(self, distances, groups, rng):
        candidates = self._candidate_rows(groups)
        masked = np.where(candidates, distances, np.inf)
        # Stable: ties keep index order, and inf (non-candidates) and NaN
        # sort after every finite distance.
        order = np.argsort(masked, axis=1, kind="stable")
        take = np.minimum(self.neg_per_anchor,
                          np.isfinite(masked).sum(axis=1))
        chosen = np.arange(order.shape[1]) < take[:, None]
        return np.repeat(np.arange(len(groups)), take), order[chosen]


class DistanceWeightedSampler(NegativeSampler):
    """Inverse-density sampling of Wu et al. (2017).

    On the unit sphere in R^n, pairwise distances concentrate around
    sqrt(2); weighting candidates by the inverse of the distance density
    ``q(d) ∝ d^{n-2} (1 - d²/4)^{(n-3)/2}`` yields negatives spread evenly
    over distances.  ``cutoff`` floors the distance to avoid infinite
    weights on coincident points.
    """

    def __init__(self, neg_per_anchor=5, embedding_dim=None, cutoff=0.5):
        super().__init__(neg_per_anchor)
        self.embedding_dim = embedding_dim
        self.cutoff = cutoff

    def _log_weights(self, distances, dim):
        d = np.maximum(distances, self.cutoff)
        log_q = (dim - 2.0) * np.log(d) + ((dim - 3.0) / 2.0) * np.log(
            np.maximum(1.0 - 0.25 * d * d, 1e-8)
        )
        return -log_q

    def select(self, distances, groups, rng):
        candidates = self._candidate_rows(groups)
        dim = self.embedding_dim or max(distances.shape[0], 3)
        anchors, negatives = [], []
        for anchor in range(len(groups)):
            partners = np.flatnonzero(candidates[anchor])
            if len(partners) == 0:
                continue
            log_w = self._log_weights(distances[anchor][partners], dim)
            log_w -= log_w.max()
            weights = np.exp(log_w)
            weights /= weights.sum()
            take = min(self.neg_per_anchor, len(partners))
            chosen = rng.choice(partners, size=take, replace=False, p=weights)
            anchors.extend([anchor] * take)
            negatives.extend(chosen.tolist())
        return np.array(anchors), np.array(negatives)


SAMPLERS = {
    "random": RandomNegativeSampler,
    "hard": HardNegativeMiner,
    "distance_weighted": DistanceWeightedSampler,
}
