"""CoLES batch generation (Section 3.3).

``N`` entities are drawn per batch and ``K`` sub-sequences generated for
each via the augmentation strategy; sub-sequences of the same entity form
positive pairs, cross-entity ones negatives.  The collated
:class:`~repro.data.PaddedBatch` carries the entity id of every view in
``seq_ids``, which the losses use as group labels.
"""

from __future__ import annotations

import numpy as np

from ..data.batches import collate
from ..data.bucketing import epoch_plan

__all__ = ["coles_batches", "augment_batch"]


def augment_batch(dataset, rows, strategy, rng, min_views=2):
    """Generate views of a dataset's ``rows`` and collate them.

    Each view is a sorted position array into its row, drawn by
    ``strategy.sample(length, rng)``; the batch is one gather of every
    view from the dataset's event table (:func:`~repro.data.collate`).
    Entities yielding fewer than ``min_views`` views (possible under
    Algorithm 1's rejection step) are topped up with clamped slices when
    the strategy supports it, otherwise dropped.  Returns None when fewer
    than two entities survive (no negative pairs possible).
    """
    rows = np.asarray(rows, dtype=np.int64)
    view_rows, positions = [], []
    for row, length in zip(rows.tolist(), dataset.lengths()[rows].tolist()):
        views = strategy.sample(length, rng)
        if len(views) < min_views and hasattr(strategy, "sample_guaranteed"):
            views = strategy.sample_guaranteed(length, rng)
        if len(views) >= min_views:
            view_rows += [row] * len(views)
            positions += views
    if len(np.unique(dataset.ids[view_rows])) < 2:
        return None
    return collate(dataset, rows=view_rows, positions=positions)


def coles_batches(dataset, strategy, batch_size, rng, drop_last=False,
                  bucket_window=None):
    """Yield one epoch of CoLES training batches.

    Parameters
    ----------
    dataset:
        :class:`~repro.data.SequenceDataset` (labels are ignored — the
        method is self-supervised).
    strategy:
        An :class:`~repro.augmentations.AugmentationStrategy`.
    batch_size:
        Number of *entities* per batch (sub-sequence count is
        ``batch_size * K`` as in Section 4.0.4).
    bucket_window:
        When set (in batches), entities are length-bucketed within shuffle
        windows by the planner in :mod:`repro.data.bucketing`, so the K
        views of batch-mates pad far less.  Positive-pair semantics are
        unchanged: each batch still holds all views of its N entities, and
        negatives still come from the other entities in the batch.
    """
    for chunk in epoch_plan(dataset.lengths(), batch_size, rng=rng,
                            bucket_window=bucket_window,
                            drop_last=drop_last):
        if len(chunk) < 2:
            continue
        batch = augment_batch(dataset, chunk, strategy, rng)
        if batch is not None:
            yield batch
