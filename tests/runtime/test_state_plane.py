"""The batch state plane against the per-entity reference.

``gather``/``scatter`` on :class:`StateBackend` and on the sharded store
must equal a loop of the per-entity calls they replace — same rows, same
last-event times, same slot order, same saved bundle — with no
tolerance.  Covered:

- random interleavings of ``scatter``/``gather`` against a ``put``/``get``
  loop, in RAM and on disk (tiny shards and a one-shard LRU, so batches
  evict), GRU and LSTM, float32 and float64, mixing new, known, repeated
  ids and empty id lists;
- batch routing (:func:`route_entities`) against :func:`route_entity`
  for every id type the router canonicalises;
- ``bulk_load`` / ``update_many`` / ``embeddings`` against the
  per-entity ``put_state``/``state_of`` loops they replaced, for the flat
  and the sharded store, float32 and float64, ``workers=1`` and ``2``.
"""

import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SequenceDataset
from repro.data.batches import collate
from repro.data.bucketing import plan_batches, plan_cell_batches
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.nn.serialization import load_arrays
from repro.runtime import EmbeddingStore, StateBackend
from repro.serving import ShardedEmbeddingStore, route_entity
from repro.serving.sharding import route_entities

WIDTH = 3


def _backend(root, name, mode, kind, dtype):
    directory = None if mode == "ram" else os.path.join(root, name)
    backend = StateBackend(directory, shard_capacity=2, cache_shards=1)
    return backend.attach(WIDTH, kind, dtype, "identity")


def _expected_gather(per_entity, ids, dtype, lstm):
    """What ``gather(ids)`` must return, from one ``per_entity(id)`` each."""
    hidden = np.zeros((len(ids), WIDTH), dtype=dtype)
    cell = np.zeros((len(ids), WIDTH), dtype=dtype) if lstm else None
    last_times = np.full(len(ids), np.nan)
    known = np.zeros(len(ids), dtype=bool)
    for row, entity_id in enumerate(ids):
        state = per_entity(entity_id)
        if state is not None:
            hidden[row] = state[0]
            if lstm:
                cell[row] = state[1]
            last_times[row] = state[2]
            known[row] = True
    return hidden, cell, last_times, known


def _assert_same(got, expected):
    for got_part, expected_part in zip(got, expected):
        if expected_part is None:
            assert got_part is None
        else:
            assert got_part.dtype == expected_part.dtype
            np.testing.assert_array_equal(got_part, expected_part)


def _assert_same_bundle(first, second):
    """Two state bundle directories hold identical files (npz by array)."""
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        if name.endswith(".npz"):
            a = load_arrays(os.path.join(first, name))
            b = load_arrays(os.path.join(second, name))
            assert sorted(a) == sorted(b)
            for key in a:
                assert a[key].dtype == b[key].dtype
                np.testing.assert_array_equal(a[key], b[key])
        else:
            with open(os.path.join(first, name), "rb") as handle:
                content = handle.read()
            with open(os.path.join(second, name), "rb") as handle:
                assert handle.read() == content, name


_ids = st.lists(st.integers(0, 11), max_size=9)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), _ids), max_size=8),
       mode=st.sampled_from(["ram", "disk"]),
       kind=st.sampled_from(["gru", "lstm"]),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_scatter_gather_match_put_get_loop(ops, mode, kind, dtype, seed):
    rng = np.random.default_rng(seed)
    lstm = kind == "lstm"
    with tempfile.TemporaryDirectory() as root:
        batch = _backend(root, "batch", mode, kind, dtype)
        loop = _backend(root, "loop", mode, kind, dtype)
        for write, ids in ops:
            if write:
                hidden = rng.normal(size=(len(ids), WIDTH))
                cell = rng.normal(size=(len(ids), WIDTH)) if lstm else None
                times = rng.uniform(0, 100, size=len(ids))
                batch.scatter(ids, hidden, cell, times)
                for row, entity_id in enumerate(ids):
                    loop.put(entity_id, hidden[row],
                             cell[row] if lstm else None, times[row])
            else:
                _assert_same(batch.gather(ids),
                             _expected_gather(loop.get, ids, dtype, lstm))
        assert batch.entity_ids() == loop.entity_ids()
        assert len(batch) == len(loop)
        everyone = loop.entity_ids() + [99]
        _assert_same(batch.gather(everyone),
                     _expected_gather(loop.get, everyone, dtype, lstm))
        batch.snapshot(os.path.join(root, "batch_bundle"))
        loop.snapshot(os.path.join(root, "loop_bundle"))
        _assert_same_bundle(os.path.join(root, "batch_bundle"),
                            os.path.join(root, "loop_bundle"))


def test_disk_scatter_evicts_and_reloads():
    """The interleaving test's disk geometry really pages: one batch over
    many shards evicts, and a gather reloads the evicted shards."""
    with tempfile.TemporaryDirectory() as root:
        backend = _backend(root, "state", "disk", "gru", np.float64)
        hidden = np.arange(30.0).reshape(10, WIDTH)
        backend.scatter(list(range(10)), hidden, None, np.arange(10.0))
        assert backend.evictions >= 4
        np.testing.assert_array_equal(backend.gather(list(range(10)))[0],
                                      hidden)
        assert backend.shard_loads >= 4


def test_scatter_requires_lstm_cells():
    backend = StateBackend().attach(WIDTH, "lstm", np.float64, "identity")
    with pytest.raises(ValueError, match="cell"):
        backend.scatter([1], np.zeros((1, WIDTH)), None, [1.0])


# ----------------------------------------------------------------------
# batch routing
# ----------------------------------------------------------------------
_any_id = st.one_of(
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-10**6, 10**6).map(float),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.text(max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(_any_id, max_size=20), num_shards=st.integers(1, 9))
def test_route_entities_equals_route_entity(ids, num_shards):
    routes = route_entities(ids, num_shards)
    assert routes.dtype == np.int64
    np.testing.assert_array_equal(
        routes, np.array([route_entity(e, num_shards) for e in ids],
                         dtype=np.int64))


def test_route_entities_canonicalises_equal_ids():
    ids = [5, np.int64(5), 5.0, np.float64(5.0), True, 1, -3, np.int64(-3)]
    routes = route_entities(ids, 7)
    assert routes[0] == routes[1] == routes[2] == routes[3]
    assert routes[4] == routes[5] and routes[6] == routes[7]


_DATASET = make_churn_dataset(num_clients=12, mean_length=14, min_length=4,
                              max_length=30, seed=2)


@functools.lru_cache(maxsize=None)
def _encoder(cell, width=WIDTH):
    encoder = build_encoder(_DATASET.schema, width, cell,
                            rng=np.random.default_rng(3))
    encoder.eval()
    return encoder


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(),
                              st.lists(st.integers(-4, 14)
                                       | st.integers(-4, 14).map(np.int64),
                                       max_size=9)),
                    max_size=6),
       cell=st.sampled_from(["gru", "lstm"]),
       seed=st.integers(0, 2**16))
def test_sharded_scatter_gather_match_put_state_loop(ops, cell, seed):
    rng = np.random.default_rng(seed)
    lstm = cell == "lstm"
    with tempfile.TemporaryDirectory() as root:
        def tiny(name):
            return lambda index: StateBackend(
                os.path.join(root, "%s_%d" % (name, index)),
                shard_capacity=2, cache_shards=1)

        batch = ShardedEmbeddingStore(_encoder(cell), num_shards=3,
                                      precision="float64",
                                      backend=tiny("batch"))
        loop = ShardedEmbeddingStore(_encoder(cell), num_shards=3,
                                     precision="float64",
                                     backend=tiny("loop"))
        for write, ids in ops:
            if write:
                hidden = rng.normal(size=(len(ids), WIDTH))
                cells = rng.normal(size=(len(ids), WIDTH)) if lstm else None
                times = rng.uniform(0, 100, size=len(ids))
                batch.scatter(ids, hidden, cells, times)
                for row, entity_id in enumerate(ids):
                    loop.put_state(entity_id, hidden[row],
                                   cells[row] if lstm else None, times[row])
            else:
                _assert_same(batch.gather(ids),
                             _expected_gather(loop.state_of, ids,
                                              np.float64, lstm))
        assert ([shard.backend.entity_ids() for shard in batch.shards]
                == [shard.backend.entity_ids() for shard in loop.shards])


# ----------------------------------------------------------------------
# the batch paths against the per-entity loops they replaced
# ----------------------------------------------------------------------
def reference_bulk_load(store, dataset, batch_size):
    """Bulk load through one ``put_state`` per entity, in plan order.

    Ids and last event times are read from the dataset's sequences, not
    from the collated batch the bulk path takes them from.
    """
    runtime = store.runtime
    time_field = dataset.schema.time_field
    embeddings = np.zeros((len(dataset), runtime.output_dim),
                          dtype=runtime.dtype)
    sequences = dataset.sequences
    for chunk, _, last in runtime.run_dataset(dataset, batch_size,
                                              workers=1):
        hidden = runtime.hidden_of(last)
        embeddings[chunk] = runtime.head(hidden)
        for row, index in enumerate(chunk):
            seq = sequences[index]
            store.put_state(seq.seq_id, hidden[row],
                            last[1][row] if runtime.is_lstm else None,
                            float(seq.fields[time_field][-1]))
    return embeddings


def reference_update_many(store, sequences, schema, batch_size):
    """Advance through one ``state_of`` and one ``put_state`` per entity."""
    runtime = store.runtime
    time_field = schema.time_field
    embeddings = np.zeros((len(sequences), runtime.output_dim),
                          dtype=runtime.dtype)
    chunks = plan_batches([len(seq) for seq in sequences], batch_size)
    finals = []
    for chunk in chunks:
        chunk_seqs = [sequences[i] for i in chunk]
        initial = runtime.default_state(len(chunk_seqs))
        hidden0 = runtime.hidden_of(initial)
        prev_times = np.array([float(seq.fields[time_field][0])
                               for seq in chunk_seqs], dtype=np.float64)
        for row, seq in enumerate(chunk_seqs):
            state = store.state_of(seq.seq_id)
            if state is not None:
                hidden0[row] = state[0]
                if runtime.is_lstm:
                    initial[1][row] = state[1]
                prev_times[row] = state[2]
        finals.append(runtime.advance(collate(chunk_seqs, schema),
                                      initial=initial,
                                      prev_times=prev_times))
    for chunk, last in zip(chunks, finals):
        hidden = runtime.hidden_of(last)
        for row, index in enumerate(chunk):
            seq = sequences[index]
            store.put_state(seq.seq_id, hidden[row],
                            last[1][row] if runtime.is_lstm else None,
                            float(seq.fields[time_field][-1]))
        embeddings[chunk] = runtime.head(hidden)
    return embeddings


def _slot_order(store):
    shards = getattr(store, "shards", [store])
    return [shard.backend.entity_ids() for shard in shards]


def _assert_same_stores(batch, loop):
    assert batch.known_entities() == loop.known_entities()
    assert _slot_order(batch) == _slot_order(loop)
    for entity_id in loop.known_entities():
        for got, expected in zip(batch.state_of(entity_id),
                                 loop.state_of(entity_id)):
            if expected is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, expected)
    ids = loop.known_entities()
    np.testing.assert_array_equal(
        batch.embeddings(ids), np.stack([loop.embedding(e) for e in ids]))


def _stores(layout, cell, precision, root):
    encoder = _encoder(cell, width=6)
    if layout == "flat":
        return [EmbeddingStore(encoder, precision=precision)
                for _ in range(2)]
    return [ShardedEmbeddingStore(
        encoder, num_shards=3, precision=precision,
        backend=lambda index, name=name: StateBackend(
            os.path.join(root, "%s_%d" % (name, index)),
            shard_capacity=2, cache_shards=1))
        for name in ("batch", "loop")]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_batch_paths_match_per_entity_loops(layout, cell, precision, workers,
                                            tmp_path):
    dataset = _DATASET
    schema = dataset.schema
    # A repeated id: the later sequence's state wins, at the first slot.
    history = SequenceDataset(
        [seq.slice(0, len(seq) // 2) for seq in dataset]
        + [dataset[4].slice(0, 3)], schema, dataset.name)
    batch, loop = _stores(layout, cell, precision, tmp_path)
    # batch_size=1 keeps the 13 short histories in two cell-budget
    # batches, so the hand-over joins batches and workers=2 fans out.
    assert len(plan_cell_batches(history.lengths(), 1)) == 2

    np.testing.assert_array_equal(
        batch.bulk_load(history, batch_size=1, workers=workers),
        reference_bulk_load(loop, history, batch_size=1))
    _assert_same_stores(batch, loop)

    # Known entities advance from their states, new ones from c_0.
    tails = [seq.slice(len(seq) // 2, len(seq)) for seq in dataset[:8]]
    newcomers = [seq.slice(0, len(seq) - 1) for seq in dataset[8:]]
    for seq, new_id in zip(newcomers, range(1000, 1100)):
        seq.seq_id = new_id
    pending = newcomers[:2] + tails + newcomers[2:]
    np.testing.assert_array_equal(
        batch.update_many(pending, schema, batch_size=3, workers=workers),
        reference_update_many(loop, pending, schema, batch_size=3))
    _assert_same_stores(batch, loop)
