"""``collate`` against the per-row padding loop it replaced.

The loop below is the reference: one slice assignment per sequence and
field.  ``collate`` must produce equal arrays with equal dtypes on
ragged batches — one row, length-1 rows, narrow int32/float32 inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import EventSchema, EventSequence, collate
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


def _assert_matches_reference(sequences):
    batch = collate(sequences, SCHEMA)
    fields, lengths = reference_collate(sequences, SCHEMA)
    assert list(batch.fields) == list(fields)
    for name, expected in fields.items():
        assert batch.fields[name].dtype == expected.dtype, name
        np.testing.assert_array_equal(batch.fields[name], expected)
    assert batch.lengths.dtype == lengths.dtype
    np.testing.assert_array_equal(batch.lengths, lengths)
    np.testing.assert_array_equal(batch.seq_ids,
                                  [seq.seq_id for seq in sequences])
    assert list(batch.labels) == [seq.label for seq in sequences]


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
       narrow=st.lists(st.booleans(), min_size=7, max_size=7),
       seed=st.integers(0, 2**16))
def test_collate_matches_per_row_reference(lengths, narrow, seed):
    rng = np.random.default_rng(seed)
    _assert_matches_reference([_sequence(index, length, rng, narrow[index])
                               for index, length in enumerate(lengths)])


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
