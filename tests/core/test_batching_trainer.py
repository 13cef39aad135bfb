"""Tests for CoLES batch generation and the contrastive trainer."""

import numpy as np
import pytest

from repro.augmentations import RandomSlices
from repro.core import ContrastiveTrainer, TrainConfig, augment_batch, coles_batches
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.losses import ContrastiveLoss


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=30, mean_length=40, min_length=15,
                              max_length=60, seed=0)


STRATEGY = RandomSlices(5, 30, 4)


class TestAugmentBatch:
    def test_groups_have_multiple_views(self, dataset):
        rng = np.random.default_rng(0)
        batch = augment_batch(dataset, np.arange(6), STRATEGY, rng)
        assert batch is not None
        ids, counts = np.unique(batch.seq_ids, return_counts=True)
        assert (counts >= 2).all()
        assert len(ids) >= 2

    def test_single_entity_returns_none(self, dataset):
        rng = np.random.default_rng(0)
        batch = augment_batch(dataset, [0], STRATEGY, rng)
        assert batch is None

    def test_views_inherit_entity_id(self, dataset):
        rng = np.random.default_rng(1)
        batch = augment_batch(dataset, np.arange(4), STRATEGY, rng)
        assert set(batch.seq_ids) <= set(dataset.ids[:4])


class TestColesBatches:
    def test_epoch_covers_dataset(self, dataset):
        rng = np.random.default_rng(0)
        seen = set()
        for batch in coles_batches(dataset, STRATEGY, batch_size=8, rng=rng):
            seen.update(batch.seq_ids.tolist())
        # Nearly all entities appear (a few may be dropped by rejection).
        assert len(seen) >= 0.8 * len(dataset)

    def test_batch_entity_count(self, dataset):
        rng = np.random.default_rng(0)
        for batch in coles_batches(dataset, STRATEGY, batch_size=8, rng=rng,
                                   drop_last=True):
            assert len(np.unique(batch.seq_ids)) <= 8


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(num_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_loss_decreases(self, dataset):
        encoder = build_encoder(dataset.schema, 16, "gru",
                                rng=np.random.default_rng(0))
        trainer = ContrastiveTrainer(
            encoder, ContrastiveLoss(margin=0.5), STRATEGY,
            TrainConfig(num_epochs=6, batch_size=10, learning_rate=0.01, seed=0),
        )
        history = trainer.fit(dataset)
        assert len(history) == 6
        assert history[-1].mean_loss < history[0].mean_loss

    def test_history_records_batches_and_time(self, dataset):
        encoder = build_encoder(dataset.schema, 8, "gru",
                                rng=np.random.default_rng(0))
        trainer = ContrastiveTrainer(
            encoder, ContrastiveLoss(), STRATEGY,
            TrainConfig(num_epochs=1, batch_size=10, seed=0),
        )
        history = trainer.fit(dataset)
        assert history[0].num_batches >= 1
        assert history[0].seconds > 0

    def test_encoder_left_in_eval_mode(self, dataset):
        encoder = build_encoder(dataset.schema, 8, "gru",
                                rng=np.random.default_rng(0))
        trainer = ContrastiveTrainer(
            encoder, ContrastiveLoss(), STRATEGY,
            TrainConfig(num_epochs=1, batch_size=10, seed=0),
        )
        trainer.fit(dataset)
        assert not encoder.training
