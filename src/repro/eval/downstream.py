"""Downstream evaluation harnesses (Figure 1, Phases 2a and 2b).

- :func:`evaluate_features` — Phase 2a: features (embeddings, hand-crafted
  aggregates, or their concatenation) -> GBM -> test metric.
- :func:`cross_val_features` — the "5-fold CV metric" protocol of
  Tables 2–5.
- :func:`fine_tune_and_evaluate` — Phase 2b: (pre-trained) encoder + head
  trained on labels, scored on the test set.
"""

from __future__ import annotations

import numpy as np

from ..baselines.supervised import FineTuneConfig, SequenceClassifier
from ..data.split import stratified_kfold
from ..gbm import GBMConfig, GradientBoostingClassifier
from .metrics import evaluate_predictions, task_metric

__all__ = [
    "evaluate_features",
    "cross_val_features",
    "fine_tune_and_evaluate",
]


def _as_values(features):
    return features.values if hasattr(features, "values") else np.asarray(features)


def evaluate_features(train_features, train_labels, test_features, test_labels,
                      gbm_config=None, metric=None):
    """Fit a GBM on training features, return the test metric."""
    model = GradientBoostingClassifier(gbm_config or GBMConfig())
    model.fit(_as_values(train_features), np.asarray(train_labels))
    probabilities = model.predict_proba(_as_values(test_features))
    return evaluate_predictions(test_labels, probabilities, metric=metric)


def cross_val_features(features, labels, n_folds=5, gbm_config=None,
                       metric=None, seed=0):
    """K-fold CV of a GBM on fixed features; returns per-fold metrics."""
    features = _as_values(features)
    labels = np.asarray(labels)
    metric = metric or task_metric(labels)
    scores = []
    for train_idx, valid_idx in stratified_kfold(labels, n_folds, seed=seed):
        scores.append(
            evaluate_features(
                features[train_idx], labels[train_idx],
                features[valid_idx], labels[valid_idx],
                gbm_config=gbm_config, metric=metric,
            )
        )
    return np.array(scores)


def fine_tune_and_evaluate(encoder, train_dataset, test_dataset,
                           config=None, metric=None, seed=0):
    """Phase 2b: attach a softmax head, train jointly, score on test.

    ``encoder`` may be freshly initialised (supervised baseline) or carry
    pre-trained weights (CoLES/CPC/RTD fine-tuning).  The per-group
    learning rates, precision and batch plan come from ``config`` — see
    :class:`~repro.baselines.supervised.FineTuneConfig`.
    """
    train_labeled = train_dataset.labeled()
    labels = train_labeled.label_array()
    num_classes = int(np.max(labels)) + 1
    classifier = SequenceClassifier(encoder, num_classes=max(num_classes, 2),
                                    seed=seed)
    classifier.fit(train_labeled, config or FineTuneConfig())
    probabilities = classifier.predict_proba(test_dataset)
    test_labels = test_dataset.label_array()
    return evaluate_predictions(test_labels, probabilities, metric=metric)
