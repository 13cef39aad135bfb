"""Random slices — Algorithm 1 of the paper (the CoLES strategy).

For each of ``k`` attempts: draw a candidate length ``T_i`` uniformly from
``[1, T]``; keep it only if ``m <= T_i <= M``; then draw the start position
uniformly and emit the contiguous slice.  Contiguity preserves the local
burst structure of the event stream, which is why this strategy wins
Table 2.
"""

from __future__ import annotations

import numpy as np

from .base import AugmentationStrategy

__all__ = ["RandomSlices"]


class RandomSlices(AugmentationStrategy):
    """Algorithm 1: random contiguous slices with rejection on length."""

    def sample(self, length, rng):
        if length < 1:
            return []
        views = []
        for _ in range(self.num_samples):
            candidate = int(rng.integers(1, length + 1))  # uniform on [1, T]
            if not self.min_length <= candidate <= self.max_length:
                continue
            start = int(rng.integers(0, length - candidate + 1))
            views.append(np.arange(start, start + candidate))
        return views

    def sample_guaranteed(self, length, rng):
        """Like :meth:`sample` but clamps lengths so short sequences still
        yield ``num_samples`` views (used when every entity must appear).
        """
        if length < 1:
            return []
        low = min(self.min_length, length)
        high = min(self.max_length, length)
        views = []
        for _ in range(self.num_samples):
            candidate = int(rng.integers(low, high + 1))
            start = int(rng.integers(0, length - candidate + 1))
            views.append(np.arange(start, start + candidate))
        return views
