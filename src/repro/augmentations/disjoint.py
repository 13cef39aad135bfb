"""Random disjoint slices — Table 2 baseline (2).

Splits the sequence into ``k`` non-overlapping contiguous segments at
random boundaries (the generation of Ma et al., 2020).  Motivated by the
concern that overlapping slices could be "memoised" by the encoder; the
paper finds the concern unfounded — overlap helps.
"""

from __future__ import annotations

import numpy as np

from .base import AugmentationStrategy

__all__ = ["DisjointSlices"]


class DisjointSlices(AugmentationStrategy):
    """Random partition of the sequence into contiguous segments."""

    def sample(self, length, rng):
        if length < self.num_samples:
            # Cannot cut k non-empty segments; fall back to single segments.
            return [np.arange(length)] if length >= 1 else []
        cuts = np.sort(
            rng.choice(np.arange(1, length), size=self.num_samples - 1, replace=False)
        )
        bounds = np.concatenate([[0], cuts, [length]])
        return [np.arange(start, stop)
                for start, stop in zip(bounds[:-1], bounds[1:])
                if self.min_length <= stop - start <= self.max_length]
