"""Dataset splitting: held-out test sets and stratified k-fold CV.

The paper's protocol (Section 4.0.3): 10% of labeled entities form the test
set; the remaining labeled + all unlabeled entities form the training set;
hyper-parameters are selected by 5-fold CV on the training set.
"""

from __future__ import annotations

import numpy as np

from .sequences import SequenceDataset, _known

__all__ = ["train_test_split", "stratified_kfold", "subsample_labels"]


def train_test_split(dataset, test_fraction=0.1, seed=0):
    """Split per the paper: test drawn only from *labeled* entities.

    Returns ``(train, test)`` where ``train`` keeps all unlabeled sequences.
    """
    rng = np.random.default_rng(seed)
    known = _known(dataset.labels)
    labeled_idx = np.flatnonzero(known)
    rng.shuffle(labeled_idx)
    n_test = max(1, int(round(test_fraction * len(labeled_idx))))
    test_idx = labeled_idx[:n_test]
    train_idx = np.concatenate([labeled_idx[n_test:], np.flatnonzero(~known)])
    train = dataset[np.sort(train_idx)]
    test = dataset[np.sort(test_idx)]
    train.name = dataset.name + ":train"
    test.name = dataset.name + ":test"
    return train, test


def stratified_kfold(labels, n_folds=5, seed=0):
    """Yield ``(train_idx, valid_idx)`` pairs with per-class balance.

    ``labels`` must be an integer array; each class's indices are shuffled
    and dealt round-robin into folds.
    """
    labels = np.asarray(labels)
    if len(labels) < n_folds:
        raise ValueError("need at least n_folds=%d samples" % n_folds)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for value in np.unique(labels):
        members = np.flatnonzero(labels == value)
        rng.shuffle(members)
        for position, index in enumerate(members):
            folds[position % n_folds].append(index)
    folds = [np.sort(np.array(fold, dtype=int)) for fold in folds]
    all_idx = np.arange(len(labels))
    for fold in folds:
        valid_mask = np.zeros(len(labels), dtype=bool)
        valid_mask[fold] = True
        yield all_idx[~valid_mask], fold


def subsample_labels(dataset, n_labeled, seed=0):
    """Keep labels on a random subset of entities, hide the rest.

    Used by the semi-supervised experiments (Figure 4): the sequences stay
    available for self-supervised pre-training, but only ``n_labeled`` keep
    their targets.
    """
    rng = np.random.default_rng(seed)
    labeled_idx = np.flatnonzero(_known(dataset.labels))
    if n_labeled > len(labeled_idx):
        raise ValueError(
            "requested %d labels but only %d available" % (n_labeled, len(labeled_idx))
        )
    keep = rng.choice(labeled_idx, size=n_labeled, replace=False)
    labels = np.full(len(dataset), None, dtype=object)
    labels[keep] = dataset.labels[keep]
    return SequenceDataset.from_columns(
        dataset.schema, dataset.offsets, dataset.columns, dataset.ids, labels,
        dataset.name + ":subsampled")
