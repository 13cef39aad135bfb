"""Shared experiment machinery: train a CoLES variant, score it downstream.

Every table/figure runner composes these three steps:

1. build + pre-train an embedding method on the training split
   (self-supervised, labels never used),
2. embed the labeled sequences,
3. score features with the GBM (Phase 2a) or fine-tune (Phase 2b).
"""

from __future__ import annotations

import numpy as np

from ..baselines import (
    CPC,
    NSP,
    RTD,
    SOP,
    FineTuneConfig,
    PretrainConfig,
    handcrafted_features,
)
from ..core import CoLES
from ..encoders import build_encoder
from ..eval import (
    cross_val_features,
    evaluate_features,
    fine_tune_and_evaluate,
    task_metric,
)
from ..gbm import GBMConfig

__all__ = [
    "train_coles",
    "cv_embedding_metric",
    "pretrain_method",
    "phase2a_test_metric",
    "phase2b_test_metric",
    "gbm_config_for",
]


def gbm_config_for(profile):
    return GBMConfig(num_rounds=profile.gbm_rounds, max_depth=3,
                     learning_rate=0.1, seed=0)


def train_coles(profile, dataset, seed=0, **overrides):
    """Build and fit a CoLES model per the profile, with overrides.

    Overrides accept the CoLES constructor arguments (``strategy``,
    ``encoder_type``, ``loss``, ``sampler``, ``hidden_size`` ...).
    """
    kwargs = {
        "hidden_size": profile.hidden_size,
        "encoder_type": profile.encoder,
        "min_length": profile.slice_min,
        "max_length": profile.slice_max,
        "num_samples": profile.num_slices,
        "seed": seed,
    }
    kwargs.update(overrides)
    model = CoLES(dataset.schema, **kwargs)
    model.fit(
        dataset,
        num_epochs=profile.num_epochs,
        batch_size=profile.batch_size,
        learning_rate=profile.learning_rate,
    )
    return model


def cv_embedding_metric(profile, dataset, model, n_folds=3, seed=0):
    """The Tables 2–5 protocol: embeddings -> GBM, k-fold CV metric."""
    labeled = dataset.labeled()
    embeddings = model.embed(labeled)
    labels = labeled.label_array()
    scores = cross_val_features(embeddings, labels, n_folds=n_folds,
                                gbm_config=gbm_config_for(profile), seed=seed)
    return float(scores.mean())


def pretrain_method(method, profile, dataset, seed=0):
    """Pre-train one of the Table 6/7 methods; returns (embed_fn, encoder).

    ``method`` is one of coles/cpc/nsp/sop/rtd.  ``embed_fn(ds)`` maps a
    dataset to an embedding matrix; ``encoder`` is the trained encoder
    usable for fine-tuning.
    """
    pre_config = PretrainConfig(
        num_epochs=profile.num_epochs,
        batch_size=profile.batch_size,
        learning_rate=profile.learning_rate,
        max_seq_length=profile.max_length,
        seed=seed,
    )
    if method == "coles":
        model = train_coles(profile, dataset, seed=seed)
        return model.embed, model.encoder
    if method == "cpc":
        model = CPC(dataset.schema, hidden_size=profile.hidden_size, seed=seed)
        model.fit(dataset, pre_config)
        return model.embed, model.encoder
    if method == "rtd":
        model = RTD(dataset.schema, hidden_size=profile.hidden_size, seed=seed)
        model.fit(dataset, pre_config)
        return model.embed, model.encoder
    if method in ("nsp", "sop"):
        encoder = build_encoder(dataset.schema, profile.hidden_size,
                                profile.encoder,
                                rng=np.random.default_rng(seed))
        cls = NSP if method == "nsp" else SOP
        model = cls(encoder, dataset.schema, seed=seed)
        model.fit(dataset, pre_config)
        return model.embed, model.encoder
    raise ValueError("unknown method %r" % method)


def phase2a_test_metric(profile, method, train, test, seed=0):
    """Table 6 protocol: pre-train on train split, embeddings -> GBM -> test."""
    test_labels = test.label_array()
    metric = task_metric(test_labels)
    if method == "designed":
        train_feats = handcrafted_features(train.labeled())
        test_feats = handcrafted_features(test)
        return evaluate_features(
            train_feats, train.labeled().label_array(),
            test_feats, test_labels,
            gbm_config=gbm_config_for(profile), metric=metric,
        )
    embed_fn, _ = pretrain_method(method, profile, train, seed=seed)
    train_labeled = train.labeled()
    return evaluate_features(
        embed_fn(train_labeled), train_labeled.label_array(),
        embed_fn(test), test_labels,
        gbm_config=gbm_config_for(profile), metric=metric,
    )


def phase2b_test_metric(profile, method, train, test, seed=0):
    """Table 7 protocol: (pre-trained) encoder + head fine-tuned on labels."""
    test_labels = test.label_array()
    metric = task_metric(test_labels)
    config = FineTuneConfig(
        num_epochs=profile.fine_tune_epochs,
        batch_size=profile.batch_size,
        learning_rate=profile.learning_rate,
        seed=seed,
    )
    if method == "designed":
        return phase2a_test_metric(profile, "designed", train, test, seed=seed)
    if method == "supervised":
        encoder = build_encoder(train.schema, profile.hidden_size,
                                profile.encoder,
                                rng=np.random.default_rng(seed))
    else:
        _, encoder = pretrain_method(method, profile, train, seed=seed)
    return fine_tune_and_evaluate(encoder, train, test, config=config,
                                  metric=metric, seed=seed)
