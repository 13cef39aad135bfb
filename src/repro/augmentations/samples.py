"""Random sampling without replacement — Table 2 baseline (1).

Generates a *non-contiguous* sub-sequence by drawing random events without
replacement while preserving their in-sequence order (the strategy of
Yao et al., 2020 adapted to event sequences).  Scrambles local structure,
which is the hypothesised reason it loses to random slices.
"""

from __future__ import annotations

import numpy as np

from .base import AugmentationStrategy

__all__ = ["RandomSamples"]


class RandomSamples(AugmentationStrategy):
    """Order-preserving random subsets of events."""

    def sample(self, length, rng):
        if length < 1:
            return []
        views = []
        for _ in range(self.num_samples):
            candidate = int(rng.integers(1, length + 1))
            if not self.min_length <= candidate <= self.max_length:
                continue
            views.append(np.sort(rng.choice(length, size=candidate,
                                            replace=False)))
        return views
