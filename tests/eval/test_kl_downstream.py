"""Tests for the KL experiment (Figure 2) and downstream harnesses."""

import numpy as np
import pytest

from repro.baselines import handcrafted_features
from repro.data.synthetic import make_age_dataset, make_texts_dataset
from repro.encoders import build_encoder
from repro.eval import (
    ComparisonTable,
    cross_val_features,
    evaluate_features,
    fine_tune_and_evaluate,
    slice_kl_experiment,
)
from tests.oracles import autograd_steps


@pytest.fixture(scope="module")
def age():
    return make_age_dataset(num_clients=120, mean_length=90, min_length=40,
                            max_length=150, labeled_fraction=1.0, seed=0)


class TestKLExperiment:
    def test_transactions_separate(self, age):
        result = slice_kl_experiment(age, "trx_type", num_pairs=150, seed=0)
        summary = result.summary()
        assert summary["separation_ratio"] > 1.5
        assert summary["same_median"] < summary["different_median"]

    def test_texts_control_overlaps(self):
        texts = make_texts_dataset(num_posts=120, seed=0)
        result = slice_kl_experiment(texts, "token", num_pairs=150, seed=0)
        assert result.summary()["separation_ratio"] < 1.6

    def test_result_sizes(self, age):
        result = slice_kl_experiment(age, "trx_type", num_pairs=50, seed=1)
        assert len(result.same_sequence) == 50
        assert len(result.different_sequences) == 50
        assert (result.same_sequence >= 0).all()

    def test_unknown_field_raises(self, age):
        with pytest.raises(ValueError):
            slice_kl_experiment(age, "amount")


class TestDownstream:
    def test_handcrafted_features_recover_labels(self, age):
        features = handcrafted_features(age)
        labels = age.label_array()
        scores = cross_val_features(features, labels, n_folds=3, seed=0)
        assert len(scores) == 3
        assert scores.mean() > 0.5  # 4 classes, chance = 0.25

    def test_evaluate_features_auroc_for_binary(self, age):
        features = handcrafted_features(age).values
        labels = (age.label_array() >= 2).astype(int)  # binarised
        score = evaluate_features(features[:80], labels[:80],
                                  features[80:], labels[80:])
        assert 0.5 < score <= 1.0

    def test_fine_tune_and_evaluate_runs(self, age):
        from repro.baselines import FineTuneConfig
        from repro.data import train_test_split

        train, test = train_test_split(age, 0.2, seed=0)
        encoder = build_encoder(age.schema, 12, "gru",
                                rng=np.random.default_rng(0))
        score = fine_tune_and_evaluate(
            encoder, train, test,
            config=FineTuneConfig(num_epochs=2, batch_size=16, seed=0),
        )
        assert 0.0 <= score <= 1.0

    def test_fine_tune_and_evaluate_engine_parity(self, age):
        """Fused and autograd-oracle fine-tuning land on one test metric.

        Same seeds, same batches — weights agree to < 1e-8, so the
        downstream metric computed from the predicted probabilities must
        match within rounding tolerance.
        """
        from repro.baselines import FineTuneConfig
        from repro.data import train_test_split

        train, test = train_test_split(age, 0.2, seed=0)

        def score():
            encoder = build_encoder(age.schema, 12, "gru",
                                    rng=np.random.default_rng(0))
            return fine_tune_and_evaluate(
                encoder, train, test,
                config=FineTuneConfig(num_epochs=2, batch_size=16, seed=0),
            )

        with autograd_steps():
            reference = score()
        assert score() == pytest.approx(reference, abs=1e-6)

    def test_fine_tune_and_evaluate_transformer_runs_fused(self, age,
                                                           fused_forwards):
        """Transformers fine-tune through the fused attention step."""
        from repro.baselines import FineTuneConfig
        from repro.data import train_test_split

        train, test = train_test_split(age, 0.2, seed=0)
        encoder = build_encoder(age.schema, 8, "transformer",
                                rng=np.random.default_rng(0))
        score = fine_tune_and_evaluate(
            encoder, train, test,
            config=FineTuneConfig(num_epochs=1, batch_size=16, seed=0),
        )
        assert 0.0 <= score <= 1.0
        assert fused_forwards
        assert all(seen is encoder for seen in fused_forwards)


class TestReporting:
    def test_table_renders_aligned(self):
        table = ComparisonTable("Table X", ["method", "paper", "measured"])
        table.add_row("CoLES", 0.638, 0.61234)
        table.add_row("CPC", (0.594, 0.002), "n/a")
        text = table.render()
        assert "Table X" in text
        assert "0.638" in text
        assert "0.594±0.002" in text
        assert "n/a" in text

    def test_row_width_checked(self):
        table = ComparisonTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")
