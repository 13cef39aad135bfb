"""Tests for EventSchema, EventSequence and SequenceDataset."""

import numpy as np
import pytest

from repro.data import EventSchema, EventSequence, SequenceDataset


def make_sequence(seq_id=0, length=5, label=None):
    return EventSequence(
        seq_id=seq_id,
        fields={
            "event_time": np.arange(length, dtype=float),
            "mcc": np.arange(length) % 3 + 1,
            "amount": np.ones(length) * 2.0,
        },
        label=label,
    )


SCHEMA = EventSchema(categorical={"mcc": 4}, numerical=("amount",))


class TestSchema:
    def test_field_names_order(self):
        assert SCHEMA.field_names == ("event_time", "mcc", "amount")

    def test_overlapping_fields_rejected(self):
        with pytest.raises(ValueError):
            EventSchema(categorical={"a": 3}, numerical=("a",))

    def test_time_field_collision_rejected(self):
        with pytest.raises(ValueError):
            EventSchema(categorical={"event_time": 3})

    def test_cardinality_must_cover_padding(self):
        with pytest.raises(ValueError):
            EventSchema(categorical={"a": 1})

    def test_validate_missing_field(self):
        seq = make_sequence()
        del seq.fields["amount"]
        with pytest.raises(KeyError):
            SequenceDataset([seq], SCHEMA)

    def test_validate_out_of_range_code(self):
        seq = make_sequence()
        seq.fields["mcc"] = np.zeros(5, dtype=int)  # 0 is reserved
        with pytest.raises(ValueError):
            SequenceDataset([seq], SCHEMA).validate()

    def test_validate_length_mismatch(self):
        seq = make_sequence()
        seq.fields["amount"] = np.ones(7)
        with pytest.raises(ValueError):
            SequenceDataset([seq], SCHEMA).validate()


class TestEventSequence:
    def test_len(self):
        assert len(make_sequence(length=7)) == 7

    def test_mismatched_field_lengths_rejected(self):
        with pytest.raises(ValueError):
            EventSequence(0, {"a": np.ones(3), "b": np.ones(4)})

    def test_slice_keeps_identity(self):
        seq = make_sequence(seq_id=42, label=1)
        part = seq.slice(1, 4)
        assert part.seq_id == 42
        assert part.label == 1
        assert len(part) == 3
        np.testing.assert_allclose(part.fields["event_time"], [1, 2, 3])

    def test_slice_bounds_checked(self):
        seq = make_sequence(length=5)
        with pytest.raises(IndexError):
            seq.slice(2, 9)
        with pytest.raises(IndexError):
            seq.slice(-1, 3)


class TestSequenceDataset:
    def test_labeled_unlabeled_partition(self):
        seqs = [make_sequence(i, label=(i if i % 2 else None)) for i in range(10)]
        ds = SequenceDataset(seqs, SCHEMA)
        assert len(ds.labeled()) + len(ds.unlabeled()) == 10
        assert all(s.label is not None for s in ds.labeled())
        assert all(s.label is None for s in ds.unlabeled())

    def test_label_array_raises_on_unlabeled(self):
        ds = SequenceDataset([make_sequence(0)], SCHEMA)
        with pytest.raises(ValueError):
            ds.label_array()

    def test_label_array_names_an_unlabeled_string_id(self):
        ds = SequenceDataset([make_sequence("a", label=1),
                              make_sequence("b")], SCHEMA)
        with pytest.raises(ValueError, match="'b' is unlabeled"):
            ds.label_array()

    def test_index_with_array_returns_dataset(self):
        seqs = [make_sequence(i) for i in range(5)]
        ds = SequenceDataset(seqs, SCHEMA)
        sub = ds[np.array([0, 3])]
        assert isinstance(sub, SequenceDataset)
        assert len(sub) == 2
        assert sub[1].seq_id == 3

    def test_index_with_slice_returns_dataset(self):
        ds = SequenceDataset([make_sequence(i, length=i + 1) for i in range(5)],
                             SCHEMA)
        sub = ds[1:4]
        assert [seq.seq_id for seq in sub] == [1, 2, 3]
        np.testing.assert_array_equal(sub.lengths(), [2, 3, 4])

    def test_views_give_back_the_input(self):
        seqs = [make_sequence(i, length=i + 2, label=i % 2 or None)
                for i in range(4)]
        ds = SequenceDataset(seqs, SCHEMA)
        np.testing.assert_array_equal(ds.lengths(), [2, 3, 4, 5])
        assert ds.ids.tolist() == [0, 1, 2, 3]
        for view, seq in zip(ds.sequences, seqs):
            assert (view.seq_id, view.label) == (seq.seq_id, seq.label)
            assert list(view.fields) == list(SCHEMA.field_names)
            for name in SCHEMA.field_names:
                np.testing.assert_array_equal(view.fields[name],
                                              seq.fields[name])
                assert view.fields[name].dtype == seq.fields[name].dtype
        assert ds[-1].seq_id == 3
        with pytest.raises(IndexError):
            ds[4]

    def test_from_columns_adopts_arrays(self):
        ds = SequenceDataset([make_sequence(i, length=3) for i in range(2)],
                             SCHEMA)
        adopted = SequenceDataset.from_columns(SCHEMA, ds.offsets, ds.columns,
                                               ds.ids, name="adopted")
        assert adopted.columns["amount"] is ds.columns["amount"]
        assert adopted.labels.tolist() == [None, None]
        with pytest.raises(KeyError):
            SequenceDataset.from_columns(SCHEMA, ds.offsets, {}, ds.ids)
        short = dict(ds.columns, amount=ds.columns["amount"][:-1])
        with pytest.raises(ValueError):
            SequenceDataset.from_columns(SCHEMA, ds.offsets, short,
                                         ds.ids).validate()

    def test_validate_passes_on_good_data(self):
        ds = SequenceDataset([make_sequence(i) for i in range(3)], SCHEMA)
        assert ds.validate() is ds

    def test_summary_mentions_counts(self):
        ds = SequenceDataset([make_sequence(0, label=1)], SCHEMA, name="toy")
        text = ds.summary()
        assert "toy" in text and "1 sequences" in text and "1 labeled" in text
