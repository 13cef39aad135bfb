"""``collate`` against the per-row padding loop it replaced.

The loop below is the reference: one slice assignment per sequence and
field.  ``collate`` must produce equal arrays with equal dtypes — its
flat fields (the real cells, row-major) and the padded grid it builds on
first read — on ragged batches (one row, length-1 rows, narrow
int32/float32 inputs) from both of its sources: a list of chunks, and a
dataset's table gathered by rows, by contiguous positions and by
non-contiguous ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import EventSchema, EventSequence, SequenceDataset, collate
from repro.data.schema import PADDING_CODE

SCHEMA = EventSchema(categorical={"mcc": 9, "channel": 4},
                     numerical=("amount",))


def reference_collate(sequences, schema):
    """Padded fields and lengths, filled one row at a time."""
    lengths = np.array([len(seq) for seq in sequences])
    shape = (len(sequences), int(lengths.max()))
    fields = {}
    for name in schema.field_names:
        if name in schema.categorical:
            padded = np.full(shape, PADDING_CODE, dtype=np.int64)
        else:
            padded = np.zeros(shape, dtype=np.float64)
        for row, seq in enumerate(sequences):
            padded[row, :lengths[row]] = seq.fields[name]
        fields[name] = padded
    return fields, lengths


def _sequence(seq_id, length, rng, narrow):
    int_type = np.int32 if narrow else np.int64
    float_type = np.float32 if narrow else np.float64
    return EventSequence(seq_id, {
        "event_time": np.sort(rng.uniform(0, 50, length)).astype(float_type),
        "mcc": rng.integers(1, 9, length).astype(int_type),
        "channel": rng.integers(1, 4, length).astype(int_type),
        "amount": rng.normal(size=length).astype(float_type),
    }, label=seq_id % 3 if seq_id % 2 else None)


def _assert_batch_matches(batch, sequences):
    fields, lengths = reference_collate(sequences, SCHEMA)
    # The flat fields are the storage: the grid waits for its first read.
    assert batch._fields is None and batch._mask is None
    assert batch.max_length == lengths.max()
    for name, expected in fields.items():
        flat = batch.flat_fields[name]
        assert flat.dtype == expected.dtype, name
        np.testing.assert_array_equal(
            flat, expected[np.arange(lengths.max()) < lengths[:, None]])
    assert list(batch.fields) == list(fields)
    for name, expected in fields.items():
        assert batch.fields[name].dtype == expected.dtype, name
        np.testing.assert_array_equal(batch.fields[name], expected)
    assert batch.lengths.dtype == lengths.dtype
    np.testing.assert_array_equal(batch.lengths, lengths)
    np.testing.assert_array_equal(batch.seq_ids,
                                  [seq.seq_id for seq in sequences])
    assert list(batch.labels) == [seq.label for seq in sequences]


def _take(seq, positions):
    return EventSequence(seq.seq_id, {name: values[positions] for name, values
                                      in seq.fields.items()}, seq.label)


def _assert_matches_reference(sequences, seed=0):
    _assert_batch_matches(collate(sequences, SCHEMA), sequences)
    # The table source: the same rows gathered from a dataset, in a
    # shuffled order with a repeat, whole or at sorted positions.
    dataset = SequenceDataset(sequences, SCHEMA)
    rng = np.random.default_rng(seed)
    rows = rng.permutation(np.r_[np.arange(len(sequences)), 0])
    picked = [sequences[row] for row in rows]
    _assert_batch_matches(collate(dataset, rows=rows), picked)
    _assert_batch_matches(collate(dataset), sequences)
    starts = [int(rng.integers(0, len(seq))) for seq in picked]
    spans = [np.arange(start, rng.integers(start + 1, len(seq) + 1))
             for start, seq in zip(starts, picked)]
    _assert_batch_matches(collate(dataset, rows=rows, positions=spans),
                          [_take(seq, span) for seq, span in zip(picked, spans)])
    subsets = [np.sort(rng.choice(len(seq), rng.integers(1, len(seq) + 1),
                                  replace=False)) for seq in picked]
    _assert_batch_matches(collate(dataset, rows=rows, positions=subsets),
                          [_take(seq, subset)
                           for seq, subset in zip(picked, subsets)])


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
       narrow=st.lists(st.booleans(), min_size=7, max_size=7),
       seed=st.integers(0, 2**16))
def test_collate_matches_per_row_reference(lengths, narrow, seed):
    rng = np.random.default_rng(seed)
    _assert_matches_reference([_sequence(index, length, rng, narrow[index])
                               for index, length in enumerate(lengths)], seed)


def test_single_row_and_length_one_rows():
    rng = np.random.default_rng(0)
    _assert_matches_reference([_sequence(0, 1, rng, True)])
    _assert_matches_reference([_sequence(0, 5, rng, False)])
    _assert_matches_reference([_sequence(index, 1, rng, index % 2 == 0)
                               for index in range(4)])


def test_seq_ids_give_back_the_ids():
    """``seq_ids.tolist()`` returns the ids: the bulk hand-over keys states
    by it.  Homogeneous ids keep numpy's dtype; ids numpy would stack
    (tuples) or coerce (int mixed with str) stay objects."""
    rng = np.random.default_rng(1)
    for ids, kind in (([3, 1, 2], "i"), (["a", "bc"], "U"),
                      ([(1, "x"), (2, "y")], "O"), ([7, "7"], "O")):
        sequences = [_sequence(index, 2, rng, False)
                     for index in range(len(ids))]
        for seq, entity_id in zip(sequences, ids):
            seq.seq_id = entity_id
        batch = collate(sequences, SCHEMA)
        assert batch.seq_ids.shape == (len(ids),)
        assert batch.seq_ids.dtype.kind == kind
        assert batch.seq_ids.tolist() == ids
        dataset = SequenceDataset(sequences, SCHEMA)
        assert dataset.ids.tolist() == ids
        rows = np.arange(len(ids))[::-1]
        batch = collate(dataset, rows=rows)
        assert batch.seq_ids.dtype.kind == kind
        assert batch.seq_ids.tolist() == ids[::-1]


def test_tuple_labels_stay_one_dimensional():
    """Tuple labels come out as a 1-D object array of the tuples, from a
    chunk list and from a dataset alike."""
    rng = np.random.default_rng(2)
    sequences = [_sequence(index, 3, rng, False) for index in range(2)]
    for seq, label in zip(sequences, [(0, 1), (1, 0)]):
        seq.label = label
    for batch in (collate(sequences, SCHEMA),
                  collate(SequenceDataset(sequences, SCHEMA))):
        assert batch.labels.shape == (2,)
        assert batch.labels.tolist() == [(0, 1), (1, 0)]


def test_table_source_rejects_empty_input():
    rng = np.random.default_rng(3)
    dataset = SequenceDataset([_sequence(0, 2, rng, False)], SCHEMA)
    with pytest.raises(ValueError):
        collate(dataset, rows=[])
    with pytest.raises(ValueError):
        collate(dataset, rows=[0], positions=[np.arange(0)])
