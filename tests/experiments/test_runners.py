"""Tests for the experiment runners (fast, reduced-size invocations)."""

import numpy as np
import pytest

from repro.experiments import (
    PAPER_TABLE1,
    PROFILES,
    cv_embedding_metric,
    gbm_config_for,
    paper_numbers,
    phase2a_test_metric,
    phase2b_test_metric,
    pretrain_method,
    scaled_profile,
    train_coles,
)
from repro.data import train_test_split
from tests.oracles import autograd_steps


class TestConfigs:
    def test_all_profiles_build_datasets(self):
        for name, profile in PROFILES.items():
            ds = profile.make_dataset(seed=0, num_clients=12)
            assert len(ds) == 12, name
            ds.validate()

    def test_scaled_profile_overrides(self):
        profile = scaled_profile("age", hidden_size=99)
        assert profile.hidden_size == 99
        assert profile.name == "age"

    def test_paper_table1_covers_public_datasets(self):
        assert set(PAPER_TABLE1) == {"age", "churn", "assessment", "retail"}
        for row in PAPER_TABLE1.values():
            assert {"embedding_size", "epochs", "encoder"} <= set(row)

    def test_paper_numbers_complete(self):
        # Every ablation table covers the four public datasets.
        for table in (paper_numbers.TABLE2_SAMPLING,
                      paper_numbers.TABLE3_ENCODERS,
                      paper_numbers.TABLE4_LOSSES,
                      paper_numbers.TABLE5_NEGATIVE_SAMPLING):
            for row in table.values():
                assert set(row) == {"age", "churn", "assessment", "retail"}
        # Table 6 additionally covers scoring.
        for row in paper_numbers.TABLE6_UNSUPERVISED.values():
            assert set(row) == {"age", "churn", "assessment", "retail",
                                "scoring"}


@pytest.fixture(scope="module")
def tiny_profile():
    return scaled_profile("churn", num_clients=40, num_epochs=1,
                          fine_tune_epochs=2)


@pytest.fixture(scope="module")
def tiny_split(tiny_profile):
    dataset = tiny_profile.make_dataset(seed=0, labeled_fraction=1.0)
    return train_test_split(dataset, 0.25, seed=0)


class TestRunners:
    def test_train_coles_and_cv_metric(self, tiny_profile):
        dataset = tiny_profile.make_dataset(seed=0, labeled_fraction=1.0)
        model = train_coles(tiny_profile, dataset, seed=0)
        metric = cv_embedding_metric(tiny_profile, dataset, model, n_folds=3)
        assert 0.0 <= metric <= 1.0

    @pytest.mark.parametrize("method", ["coles", "cpc", "rtd", "nsp", "sop"])
    def test_pretrain_method_contract(self, method, tiny_profile, tiny_split):
        train, _ = tiny_split
        embed_fn, encoder = pretrain_method(method, tiny_profile, train, seed=0)
        emb = embed_fn(train)
        assert emb.shape == (len(train), tiny_profile.hidden_size)
        assert np.isfinite(emb).all()
        assert encoder.output_dim == tiny_profile.hidden_size

    def test_pretrain_unknown_method(self, tiny_profile, tiny_split):
        with pytest.raises(ValueError):
            pretrain_method("bert", tiny_profile, tiny_split[0])

    def test_phase2a_designed_and_coles(self, tiny_profile, tiny_split):
        train, test = tiny_split
        for method in ("designed", "coles"):
            score = phase2a_test_metric(tiny_profile, method, train, test,
                                        seed=0)
            assert 0.0 <= score <= 1.0, method

    def test_phase2b_supervised(self, tiny_profile, tiny_split):
        train, test = tiny_split
        score = phase2b_test_metric(tiny_profile, "supervised", train, test,
                                    seed=0)
        assert 0.0 <= score <= 1.0

    def test_phase2b_engine_parity(self, tiny_profile, tiny_split):
        """The Table 7 / Figure 4 fine-tuning runner: fused == autograd.

        phase2b on the fused step must reproduce its test metric under
        the autograd oracle (weights agree to < 1e-8, predictions to
        < 1e-10) — the seeded smoke version of the paper runners.
        """
        train, test = tiny_split
        with autograd_steps():
            reference = phase2b_test_metric(tiny_profile, "supervised",
                                            train, test, seed=0)
        score = phase2b_test_metric(tiny_profile, "supervised", train, test,
                                    seed=0)
        assert score == pytest.approx(reference, abs=1e-6)
        with pytest.raises(TypeError):
            phase2b_test_metric(tiny_profile, "supervised", train, test,
                                engine="tensor")

    def test_phase2b_transformer_profile_runs_fused(self, tiny_split,
                                                    fused_forwards):
        """A transformer profile fine-tunes on the fused attention step."""
        profile = scaled_profile("churn", num_clients=40, num_epochs=1,
                                 fine_tune_epochs=1, encoder="transformer")
        train, test = tiny_split
        score = phase2b_test_metric(profile, "supervised", train, test,
                                    seed=0)
        assert 0.0 <= score <= 1.0
        from repro.encoders import TransformerSeqEncoder

        assert fused_forwards
        assert all(isinstance(seen, TransformerSeqEncoder)
                   for seen in fused_forwards)

    def test_gbm_config_uses_profile_rounds(self, tiny_profile):
        config = gbm_config_for(tiny_profile)
        assert config.num_rounds == tiny_profile.gbm_rounds
