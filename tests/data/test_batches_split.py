"""Tests for padded-batch collation and dataset splitting."""

import numpy as np
import pytest

from repro.data import (
    EventSchema,
    EventSequence,
    SequenceDataset,
    collate,
    iterate_batches,
    stratified_kfold,
    subsample_labels,
    train_test_split,
)

SCHEMA = EventSchema(categorical={"mcc": 5}, numerical=("amount",))


def seq(seq_id, length, label=None):
    return EventSequence(
        seq_id,
        {
            "event_time": np.arange(length, dtype=float),
            "mcc": np.full(length, (seq_id % 4) + 1),
            "amount": np.full(length, float(seq_id)),
        },
        label=label,
    )


class TestCollate:
    def test_padding_shapes_and_values(self):
        batch = collate([seq(0, 3), seq(1, 5)], SCHEMA)
        assert batch.fields["mcc"].shape == (2, 5)
        assert batch.fields["mcc"][0, 3] == 0  # categorical padding code
        assert batch.fields["amount"][0, 4] == 0.0
        np.testing.assert_array_equal(batch.lengths, [3, 5])

    def test_mask(self):
        batch = collate([seq(0, 2), seq(1, 4)], SCHEMA)
        expected = np.array(
            [[True, True, False, False], [True, True, True, True]]
        )
        np.testing.assert_array_equal(batch.mask, expected)

    def test_seq_ids_and_labels(self):
        batch = collate([seq(7, 2, label=1), seq(9, 2, label=0)], SCHEMA)
        np.testing.assert_array_equal(batch.seq_ids, [7, 9])
        np.testing.assert_array_equal(batch.label_array(), [1, 0])

    def test_label_array_raises_when_unlabeled(self):
        batch = collate([seq(0, 2)], SCHEMA)
        with pytest.raises(ValueError):
            batch.label_array()

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            collate([], SCHEMA)

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            collate([seq(0, 0)], SCHEMA)

    def test_dtype_preserved(self):
        batch = collate([seq(0, 2)], SCHEMA)
        assert batch.fields["mcc"].dtype == np.int64
        assert batch.fields["amount"].dtype == np.float64


class TestIterateBatches:
    def test_covers_all_sequences(self):
        dataset = SequenceDataset([seq(i, 3) for i in range(10)], SCHEMA)
        seen = []
        for batch in iterate_batches(dataset, batch_size=3,
                                     rng=np.random.default_rng(0)):
            seen.extend(batch.seq_ids.tolist())
        assert sorted(seen) == list(range(10))

    def test_drop_last(self):
        dataset = SequenceDataset([seq(i, 3) for i in range(10)], SCHEMA)
        batches = list(
            iterate_batches(dataset, 4, shuffle=False, drop_last=True)
        )
        assert [b.batch_size for b in batches] == [4, 4]

    def test_no_shuffle_preserves_order(self):
        dataset = SequenceDataset([seq(i, 2) for i in range(6)], SCHEMA)
        batches = list(iterate_batches(dataset, 2, shuffle=False))
        assert batches[0].seq_ids.tolist() == [0, 1]


class TestSplits:
    def make_dataset(self, n=100, labeled_every=2):
        seqs = [
            seq(i, 4, label=(i % 3 if i % labeled_every == 0 else None))
            for i in range(n)
        ]
        return SequenceDataset(seqs, SCHEMA, name="toy")

    def test_test_set_only_labeled(self):
        train, test = train_test_split(self.make_dataset(), 0.1, seed=1)
        assert all(s.label is not None for s in test)

    def test_unlabeled_all_in_train(self):
        ds = self.make_dataset()
        train, test = train_test_split(ds, 0.1, seed=1)
        assert len(train.unlabeled()) == len(ds.unlabeled())

    def test_split_is_partition(self):
        ds = self.make_dataset()
        train, test = train_test_split(ds, 0.2, seed=2)
        train_ids = {s.seq_id for s in train}
        test_ids = {s.seq_id for s in test}
        assert not train_ids & test_ids
        assert len(train_ids) + len(test_ids) == len(ds)

    def test_fraction_respected(self):
        ds = self.make_dataset(200, labeled_every=1)
        _, test = train_test_split(ds, 0.1, seed=0)
        assert len(test) == 20

    def test_deterministic_given_seed(self):
        ds = self.make_dataset()
        _, t1 = train_test_split(ds, 0.1, seed=5)
        _, t2 = train_test_split(ds, 0.1, seed=5)
        assert [s.seq_id for s in t1] == [s.seq_id for s in t2]

    def test_stratified_kfold_partition(self):
        labels = np.array([0] * 20 + [1] * 10)
        folds = list(stratified_kfold(labels, n_folds=5, seed=0))
        assert len(folds) == 5
        all_valid = np.concatenate([valid for _, valid in folds])
        assert sorted(all_valid.tolist()) == list(range(30))
        for train_idx, valid_idx in folds:
            assert not set(train_idx) & set(valid_idx)
            # Each fold keeps both classes in validation.
            assert set(labels[valid_idx]) == {0, 1}

    def test_stratified_kfold_balance(self):
        labels = np.array([0] * 50 + [1] * 25)
        for _, valid in stratified_kfold(labels, 5, seed=0):
            ratio = (labels[valid] == 1).mean()
            assert 0.2 < ratio < 0.5

    def test_kfold_too_few_samples(self):
        with pytest.raises(ValueError):
            list(stratified_kfold(np.array([0, 1]), n_folds=5))

    def test_subsample_labels_count(self):
        ds = self.make_dataset(100, labeled_every=1)
        sub = subsample_labels(ds, 30, seed=0)
        assert len(sub.labeled()) == 30
        assert len(sub) == 100  # sequences all retained for pre-training

    def test_subsample_labels_too_many(self):
        ds = self.make_dataset(10, labeled_every=1)
        with pytest.raises(ValueError):
            subsample_labels(ds, 11)
