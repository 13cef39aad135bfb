"""Cross-module integration tests: the full Figure-1 pipeline end-to-end."""

import numpy as np
import pytest

from repro import CoLES
from repro.baselines import FineTuneConfig, SequenceClassifier, handcrafted_features
from repro.core import embed_dataset, quantize_embeddings
from repro.data import train_test_split
from repro.data.synthetic import make_age_dataset, make_churn_dataset
from repro.eval import cross_val_features, evaluate_predictions
from repro.gbm import GBMConfig, GradientBoostingClassifier
from repro.runtime import EmbeddingStore


@pytest.fixture(scope="module")
def age_world():
    dataset = make_age_dataset(num_clients=120, mean_length=70, min_length=30,
                               max_length=110, labeled_fraction=0.7, seed=4)
    train, test = train_test_split(dataset, 0.2, seed=0)
    return dataset, train, test


@pytest.fixture(scope="module")
def trained_coles(age_world):
    dataset, train, _ = age_world
    model = CoLES(dataset.schema, hidden_size=24, min_length=5,
                  max_length=100, seed=0)
    model.fit(train, num_epochs=4, batch_size=16, learning_rate=0.01)
    return model


class TestPhase1(object):
    def test_pretraining_ignores_labels(self, age_world, trained_coles):
        """Unlabeled sequences participate in training (no crash, loss falls)."""
        assert trained_coles.history[-1].mean_loss < trained_coles.history[0].mean_loss

    def test_embeddings_cover_whole_dataset(self, age_world, trained_coles):
        dataset, train, test = age_world
        emb = trained_coles.embed(dataset)
        assert emb.shape == (len(dataset), 24)
        assert np.isfinite(emb).all()


class TestPhase2a(object):
    def test_embeddings_beat_chance_downstream(self, age_world, trained_coles):
        dataset, train, test = age_world
        train_labeled = train.labeled()
        gbm = GradientBoostingClassifier(GBMConfig(num_rounds=40))
        gbm.fit(trained_coles.embed(train_labeled),
                train_labeled.label_array())
        probs = gbm.predict_proba(trained_coles.embed(test))
        accuracy = evaluate_predictions(test.label_array(), probs, "accuracy")
        assert accuracy > 0.4  # 4 classes, chance 0.25

    def test_hybrid_features_concatenate(self, age_world, trained_coles):
        dataset, train, test = age_world
        labeled = train.labeled()
        designed = handcrafted_features(labeled)
        hybrid = designed.concat(trained_coles.embed(labeled))
        assert hybrid.shape == (len(labeled),
                                designed.shape[1] + 24)
        scores = cross_val_features(hybrid, labeled.label_array(), n_folds=3)
        assert scores.mean() > 0.4


class TestPhase2b(object):
    def test_fine_tuning_from_pretrained_weights(self, age_world, trained_coles):
        dataset, train, test = age_world
        clf = SequenceClassifier(trained_coles.encoder, num_classes=4, seed=0)
        clf.fit(train.labeled(),
                FineTuneConfig(num_epochs=6, batch_size=16,
                               learning_rate=0.01, seed=0))
        probs = clf.predict_proba(test)
        accuracy = evaluate_predictions(test.label_array(), probs, "accuracy")
        assert accuracy > 0.4


class TestDeploymentChain(object):
    def test_embed_quantize_downstream_chain(self, age_world, trained_coles):
        """Full production chain: embed -> quantize -> dequantize -> GBM."""
        dataset, train, test = age_world
        labeled = train.labeled()
        emb_train = trained_coles.embed(labeled)
        emb_test = trained_coles.embed(test)
        recovered_train = quantize_embeddings(emb_train).dequantize()
        recovered_test = quantize_embeddings(emb_test).dequantize()
        gbm = GradientBoostingClassifier(GBMConfig(num_rounds=40))
        gbm.fit(recovered_train, labeled.label_array())
        probs = gbm.predict_proba(recovered_test)
        accuracy = evaluate_predictions(test.label_array(), probs, "accuracy")
        assert accuracy > 0.35

    def test_incremental_streaming_matches_batch(self, age_world, trained_coles):
        dataset, _, test = age_world
        store = EmbeddingStore(trained_coles.encoder, precision="float64")
        batch_embeddings = embed_dataset(trained_coles.encoder, test,
                                         precision="float64")
        for row, seq in enumerate(test):
            mid = len(seq) // 2
            store.update(seq.seq_id, seq.slice(0, mid), test.schema)
            store.update(seq.seq_id, seq.slice(mid, len(seq)), test.schema)
            np.testing.assert_allclose(store.embedding(seq.seq_id),
                                       batch_embeddings[row], rtol=1e-8)


class TestSchemaSafety(object):
    def test_embedding_foreign_schema_fails_loudly(self, trained_coles):
        """An encoder trained on one world must reject another's batches."""
        churn = make_churn_dataset(num_clients=5, seed=0)
        with pytest.raises(ValueError, match="different schema"):
            trained_coles.embed(churn)
