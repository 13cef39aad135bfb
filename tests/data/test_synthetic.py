"""Tests for the synthetic worlds: schema conformance, label structure and
the statistical properties the paper's method relies on."""

import numpy as np
import pytest

from repro.data.synthetic import (
    ClassPrototype,
    holding_pairs,
    lognormal_amounts,
    make_age_dataset,
    make_assessment_dataset,
    make_churn_dataset,
    make_legal_entities_dataset,
    make_retail_customers_dataset,
    make_retail_dataset,
    make_scoring_dataset,
    make_texts_dataset,
    markov_types,
    periodic_event_times,
    sample_type_mixture,
    with_label_channel,
)


class TestPrimitives:
    def test_prototype_validation(self):
        with pytest.raises(ValueError):
            ClassPrototype(type_affinity=(1.0, -1.0))
        with pytest.raises(ValueError):
            ClassPrototype(type_affinity=(1.0, 1.0), persistence=1.0)

    def test_mixture_is_distribution(self):
        proto = ClassPrototype(type_affinity=(3.0, 1.0, 1.0))
        mix = sample_type_mixture(proto, np.random.default_rng(0))
        assert mix.shape == (3,)
        np.testing.assert_allclose(mix.sum(), 1.0)
        assert (mix >= 0).all()

    def test_mixture_concentrates_on_affinity(self):
        proto = ClassPrototype(type_affinity=(50.0, 1.0, 1.0), concentration=100.0)
        rng = np.random.default_rng(0)
        mixes = np.array([sample_type_mixture(proto, rng) for _ in range(100)])
        assert mixes[:, 0].mean() > 0.8

    def test_markov_types_range_and_stationarity(self):
        rng = np.random.default_rng(1)
        mixture = np.array([0.7, 0.2, 0.1])
        types = markov_types(mixture, 0.5, 20000, rng)
        assert types.min() >= 1 and types.max() <= 3
        freq = np.bincount(types, minlength=4)[1:] / len(types)
        np.testing.assert_allclose(freq, mixture, atol=0.03)

    def test_markov_persistence_creates_bursts(self):
        rng = np.random.default_rng(2)
        mixture = np.full(10, 0.1)
        sticky = markov_types(mixture, 0.9, 5000, rng)
        loose = markov_types(mixture, 0.0, 5000, np.random.default_rng(2))
        repeat_sticky = (sticky[1:] == sticky[:-1]).mean()
        repeat_loose = (loose[1:] == loose[:-1]).mean()
        assert repeat_sticky > 0.8
        assert repeat_loose < 0.2

    def test_markov_length_validation(self):
        with pytest.raises(ValueError):
            markov_types(np.array([1.0]), 0.0, 0, np.random.default_rng(0))

    def test_event_times_increasing(self):
        times = periodic_event_times(500, 2.0, 0.3, np.random.default_rng(3))
        assert (np.diff(times) > 0).all()

    def test_event_times_rate(self):
        times = periodic_event_times(2000, 4.0, 0.0, np.random.default_rng(4))
        observed_rate = len(times) / (times[-1] - times[0])
        assert 3.0 < observed_rate < 5.0

    def test_weekend_bias_increases_weekend_rate(self):
        times = periodic_event_times(20000, 2.0, 2.0, np.random.default_rng(5))
        day_of_week = times % 7
        weekend_frac = (day_of_week >= 5).mean()
        # Without bias weekends carry 2/7 ~= 0.286 of events.
        assert weekend_frac > 0.33

    def test_negative_trend_slows_down(self):
        rng = np.random.default_rng(6)
        times = periodic_event_times(400, 3.0, 0.0, rng, activity_trend=-0.05)
        first_half = np.diff(times[:200]).mean()
        second_half = np.diff(times[200:]).mean()
        assert second_half > first_half

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            periodic_event_times(10, 0.0, 0.0, np.random.default_rng(0))

    def test_lognormal_amounts_positive(self):
        rng = np.random.default_rng(7)
        amounts = lognormal_amounts(np.array([1, 2, 3]), 3.0, 0.5, rng)
        assert (amounts > 0).all()

    def test_lognormal_type_offsets_shift_location(self):
        rng = np.random.default_rng(8)
        offsets = np.array([0.0, 0.0, 3.0])
        types = np.array([1] * 500 + [2] * 500)
        amounts = lognormal_amounts(types, 1.0, 0.1, rng, type_offsets=offsets)
        assert np.median(amounts[500:]) > 5 * np.median(amounts[:500])


ALL_PUBLIC = [
    (make_age_dataset, 4),
    (make_churn_dataset, 2),
    (make_assessment_dataset, 4),
    (make_retail_dataset, 4),
]


class TestPublicWorlds:
    @pytest.mark.parametrize("maker,num_classes", ALL_PUBLIC)
    def test_schema_conformance_and_classes(self, maker, num_classes):
        ds = maker(num_clients=60, seed=0)
        ds.validate()
        labels = [s.label for s in ds if s.label is not None]
        assert set(labels) <= set(range(num_classes))
        assert len(set(labels)) == num_classes

    @pytest.mark.parametrize("maker,_", ALL_PUBLIC)
    def test_times_sorted(self, maker, _):
        ds = maker(num_clients=20, seed=1)
        for seq in ds:
            times = seq.fields["event_time"]
            assert (np.diff(times) >= 0).all()

    @pytest.mark.parametrize("maker,_", ALL_PUBLIC)
    def test_deterministic_given_seed(self, maker, _):
        a = maker(num_clients=10, seed=42)
        b = maker(num_clients=10, seed=42)
        for sa, sb in zip(a, b):
            assert sa.label == sb.label
            for name in sa.fields:
                np.testing.assert_array_equal(sa.fields[name], sb.fields[name])

    def test_age_labeled_fraction(self):
        ds = make_age_dataset(num_clients=400, labeled_fraction=0.6, seed=0)
        frac = len(ds.labeled()) / len(ds)
        assert 0.5 < frac < 0.7

    def test_retail_fully_labeled(self):
        ds = make_retail_dataset(num_clients=50, seed=0)
        assert len(ds.labeled()) == 50

    def test_scoring_default_rate(self):
        ds = make_scoring_dataset(num_clients=3000, seed=0)
        labels = np.array([s.label for s in ds.labeled()])
        assert 0.01 < labels.mean() < 0.06  # paper: 2.76%

    def test_assessment_grade_shares(self):
        ds = make_assessment_dataset(num_clients=1000, seed=0)
        labels = np.array([s.label for s in ds.labeled()])
        shares = np.bincount(labels, minlength=4) / len(labels)
        np.testing.assert_allclose(shares, [0.50, 0.24, 0.14, 0.12], atol=0.06)

    def test_assessment_session_structure(self):
        ds = make_assessment_dataset(num_clients=5, seed=0)
        for seq in ds:
            counter = seq.fields["session_counter"]
            assert counter[0] == 0
            # Counters either advance by one within a session or reset.
            steps = np.diff(counter)
            resets = counter[1:][steps != 1.0]
            assert (resets == 0).all()

    def test_repeatability_within_vs_between(self):
        """The core data property (Section 4.0.2): same-client halves have
        much closer type distributions than different clients."""
        ds = make_age_dataset(num_clients=60, mean_length=150,
                              min_length=100, max_length=200, seed=3)
        num_types = ds.schema.categorical["trx_type"]

        def type_hist(seq, start, stop):
            hist = np.bincount(seq.fields["trx_type"][start:stop],
                               minlength=num_types)[1:]
            return (hist + 1e-3) / (hist.sum() + 1e-3 * len(hist))

        def kl(p, q):
            return float((p * np.log(p / q)).sum())

        within, between = [], []
        for i in range(0, 40, 2):
            a, b = ds[i], ds[i + 1]
            half_a, half_b = len(a) // 2, len(b) // 2
            within.append(kl(type_hist(a, 0, half_a), type_hist(a, half_a, len(a))))
            between.append(kl(type_hist(a, 0, half_a), type_hist(b, 0, half_b)))
        assert np.median(within) < np.median(between)


class TestCommercialWorlds:
    def test_legal_schema_and_labels(self):
        ds = make_legal_entities_dataset(num_companies=50, seed=0)
        ds.validate()
        for seq in ds:
            assert set(seq.label) >= {
                "insurance_lead", "credit_lead", "credit_scoring",
                "fraud", "holding", "sector",
            }

    def test_with_label_channel(self):
        ds = make_legal_entities_dataset(num_companies=30, seed=0)
        churn_view = with_label_channel(ds, "credit_scoring")
        assert set(s.label for s in churn_view) <= {0, 1}
        assert churn_view[0].seq_id == ds[0].seq_id

    def test_label_channels_not_constant(self):
        ds = make_legal_entities_dataset(num_companies=200, seed=0)
        for task in ("insurance_lead", "credit_lead", "credit_scoring", "fraud"):
            values = np.array([s.label[task] for s in ds])
            assert 0.02 < values.mean() < 0.98, task

    def test_holding_pairs_balanced_and_correct(self):
        ds = make_legal_entities_dataset(num_companies=100, num_holdings=20, seed=0)
        pairs, labels = holding_pairs(ds, 60, seed=1)
        assert pairs.shape == (60, 2)
        holdings = [s.label["holding"] for s in ds]
        for (a, b), same in zip(pairs, labels):
            assert (holdings[a] == holdings[b]) == bool(same)
        assert 0.4 < labels.mean() < 0.6

    def test_same_holding_companies_share_counterparties(self):
        """The latent structure behind the holding-restoration task."""
        ds = make_legal_entities_dataset(num_companies=200, num_holdings=30, seed=2)
        holdings = np.array([s.label["holding"] for s in ds])

        def group_hist(seq):
            groups = (seq.fields["counterparty"] - 1) // 10
            hist = np.bincount(groups, minlength=15) + 1e-3
            return hist / hist.sum()

        within, between = [], []
        for h in np.unique(holdings):
            members = np.flatnonzero(holdings == h)
            if len(members) < 2:
                continue
            a, b = members[:2]
            within.append(
                float(np.abs(group_hist(ds[a]) - group_hist(ds[b])).sum())
            )
            other = np.flatnonzero(holdings != h)[0]
            between.append(
                float(np.abs(group_hist(ds[a]) - group_hist(ds[other])).sum())
            )
        assert np.median(within) < np.median(between)

    def test_fraud_injects_anomalies(self):
        ds = make_legal_entities_dataset(num_companies=300, seed=3, fraud_rate=0.2)
        frauds = [s for s in ds if s.label["fraud"] == 1]
        assert len(frauds) > 10

    def test_retail_customers_schema_and_tasks(self):
        ds = make_retail_customers_dataset(num_clients=80, seed=0)
        ds.validate()
        for task in ("credit_scoring", "churn", "insurance_lead"):
            values = np.array([s.label[task] for s in ds])
            assert 0.05 < values.mean() < 0.95, task


class TestTextsControl:
    def test_schema(self):
        ds = make_texts_dataset(num_posts=20, seed=0)
        ds.validate()

    def test_no_repeatable_structure(self):
        """Posts share one corpus distribution: within-KL ~ between-KL."""
        ds = make_texts_dataset(num_posts=60, mean_length=200,
                                min_length=150, max_length=250, seed=1)
        vocab = ds.schema.categorical["token"]

        def hist(seq, start, stop):
            h = np.bincount(seq.fields["token"][start:stop], minlength=vocab)[1:]
            return (h + 1e-3) / (h.sum() + 1e-3 * (vocab - 1))

        def kl(p, q):
            return float((p * np.log(p / q)).sum())

        within, between = [], []
        for i in range(0, 40, 2):
            a, b = ds[i], ds[i + 1]
            within.append(kl(hist(a, 0, len(a) // 2), hist(a, len(a) // 2, len(a))))
            between.append(kl(hist(a, 0, len(a) // 2), hist(b, 0, len(b) // 2)))
        ratio = np.median(between) / max(np.median(within), 1e-9)
        assert ratio < 2.0  # distributions overlap, unlike transactions
