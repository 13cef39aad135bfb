"""Augmentation strategies: surrogate sub-sequence generators (Section 3.2).

A strategy turns one observed sequence into ``k`` sub-sequences that act as
different "views" of the same latent entity for contrastive learning.  The
three strategies below are exactly the ones compared in Table 2 of the
paper.
"""

from __future__ import annotations

__all__ = ["AugmentationStrategy"]


class AugmentationStrategy:
    """Interface: ``sample(length, rng) -> list[np.ndarray]``.

    Each view is a sorted, non-empty int64 array of positions into a
    sequence of ``length`` events (``collate`` gathers them from the
    dataset).  Implementations may return fewer than ``num_samples`` views
    when the input is too short for the configured length bounds
    (Algorithm 1 discards out-of-range draws).
    """

    def __init__(self, min_length, max_length, num_samples):
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        if max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.min_length = min_length
        self.max_length = max_length
        self.num_samples = num_samples

    def sample(self, length, rng):
        raise NotImplementedError

    def __repr__(self):
        return "%s(min=%d, max=%d, k=%d)" % (
            type(self).__name__, self.min_length, self.max_length, self.num_samples,
        )
