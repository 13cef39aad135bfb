"""ShardedEmbeddingStore: routing, batched writes, per-shard persistence.

The sharding guarantees under test: routing is deterministic and total
(every entity lands on exactly one shard), globally-batched writes
(``bulk_load`` / ``update_many``) agree with the flat store to < 1e-10,
and a per-shard snapshot survives a round-trip into a fresh store.
"""

import json

import numpy as np
import pytest

from repro.data import SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.runtime import EmbeddingStore, bulk_load_states
from repro.serving import ShardedEmbeddingStore, route_entity
from tests.oracles import tensor_embed


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=17, mean_length=35, min_length=10,
                              max_length=90, seed=0)


def _encoder(dataset, cell, hidden=12, seed=0):
    encoder = build_encoder(dataset.schema, hidden, cell,
                            rng=np.random.default_rng(seed))
    encoder.eval()
    return encoder


class TestRouting:
    def test_routing_is_deterministic_and_total(self, dataset):
        store = ShardedEmbeddingStore(_encoder(dataset, "gru"), num_shards=5)
        for seq in dataset:
            index = store.shard_of(seq.seq_id)
            assert index == route_entity(seq.seq_id, 5)
            assert 0 <= index < 5
        store.bulk_load(dataset)
        assert sum(store.shard_sizes()) == len(dataset) == len(store)
        assert store.known_entities() == sorted(s.seq_id for s in dataset)
        # no entity is visible from a shard that does not own it
        for seq in dataset:
            owner = store.shard_of(seq.seq_id)
            for index, shard in enumerate(store.shards):
                assert (seq.seq_id in shard) == (index == owner)

    def test_route_entity_handles_string_ids(self):
        assert route_entity("card-00042", 8) == route_entity("card-00042", 8)
        assert 0 <= route_entity("card-00042", 8) < 8

    def test_route_entity_normalizes_integer_types(self):
        """Ids that compare equal as dict keys route to the same shard —
        a store loaded under np.int64 ids must serve plain-int queries."""
        for value in (0, 5, 12345):
            assert (route_entity(np.int64(value), 8)
                    == route_entity(value, 8))

    def test_route_entity_normalizes_float_ids(self):
        """5, 5.0 and np.float64(5.0) hash-equal as dict keys, so they
        must land on the same shard; non-integral floats normalise too."""
        for value in (0, 5, 12345):
            assert (route_entity(float(value), 8)
                    == route_entity(value, 8)
                    == route_entity(np.float64(value), 8))
        assert route_entity(np.float64(2.5), 8) == route_entity(2.5, 8)

    def test_numpy_and_python_int_ids_interoperate(self, dataset):
        store = ShardedEmbeddingStore(_encoder(dataset, "gru"), num_shards=4)
        store.bulk_load(dataset)  # seq_ids are numpy/python ints as-built
        for seq in dataset:
            np.testing.assert_array_equal(
                store.embedding(int(seq.seq_id)),
                store.embedding(np.int64(seq.seq_id)))

    def test_last_time_routes_like_route_entity(self, dataset):
        """``last_time`` hashes plain ``int`` ids inline; every id type
        must still land on the shard :func:`route_entity` names, so an
        id reads back under any equal id of another type."""
        encoder = _encoder(dataset, "gru")
        store = ShardedEmbeddingStore(encoder, num_shards=5)
        hidden = np.zeros(encoder.output_dim)
        ids = [7, True, np.int64(12), 3.0, np.float64(40.0), "client-9"]
        equal = [np.int64(7), 1, 12, 3, 40, "client-9"]
        for when, entity_id in enumerate(ids, start=1):
            store.put_state(entity_id, hidden, last_time=float(when))
        for when, (entity_id, other) in enumerate(zip(ids, equal), start=1):
            owner = store.shards[route_entity(entity_id, 5)]
            assert owner.last_time(entity_id) == when
            assert store.last_time(entity_id) == when
            assert store.last_time(other) == when
        assert store.last_time(8) is None
        assert store.last_time("client-8") is None

        # A bulk load under numpy ids, read back with plain ints.
        numpy_ids = ShardedEmbeddingStore(encoder, num_shards=5)
        bulk_load_states(
            numpy_ids.runtime, dataset,
            lambda ids, *state: numpy_ids.scatter(
                [np.int64(entity_id) for entity_id in ids], *state))
        time_field = dataset.schema.time_field
        for seq in dataset:
            end = float(seq.fields[time_field][-1])
            assert numpy_ids.last_time(int(seq.seq_id)) == end
            assert numpy_ids.last_time(np.int64(seq.seq_id)) == end
        stored = [key for shard in numpy_ids.shards
                  for key in shard.backend.entity_ids()]
        assert {type(key) for key in stored} == {np.int64}

    def test_rejects_bad_shard_counts(self, dataset):
        with pytest.raises(ValueError):
            ShardedEmbeddingStore(_encoder(dataset, "gru"), num_shards=0)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
class TestBatchedWrites:
    def test_bulk_load_matches_flat_store(self, dataset, cell):
        encoder = _encoder(dataset, cell)
        sharded = ShardedEmbeddingStore(encoder, num_shards=4,
                                        precision="float64")
        out = sharded.bulk_load(dataset)
        reference = tensor_embed(encoder, dataset)
        np.testing.assert_allclose(out, reference, atol=1e-10)
        for row, seq in enumerate(dataset):
            np.testing.assert_allclose(sharded.embedding(seq.seq_id),
                                       reference[row], atol=1e-10)

    def test_update_many_matches_sequential_updates(self, dataset, cell):
        """Heterogeneous micro-batches (known + new entities, mixed chunk
        lengths, cross-shard rows) equal one-entity-at-a-time updates."""
        encoder = _encoder(dataset, cell)
        flat = EmbeddingStore(encoder, precision="float64")
        sharded = ShardedEmbeddingStore(encoder, num_shards=3,
                                        precision="float64")
        heads = [seq.slice(0, len(seq) // 2) for seq in dataset]
        tails = [seq.slice(len(seq) // 2, len(seq)) for seq in dataset]

        # round 1: every entity is new to both stores
        batched = sharded.update_many(heads, dataset.schema, batch_size=5)
        for row, chunk in enumerate(heads):
            sequential = flat.update(chunk.seq_id, chunk, dataset.schema)
            np.testing.assert_allclose(batched[row], sequential, atol=1e-10)

        # round 2: every entity continues from a stored state
        batched = sharded.update_many(tails, dataset.schema, batch_size=5)
        for row, chunk in enumerate(tails):
            sequential = flat.update(chunk.seq_id, chunk, dataset.schema)
            np.testing.assert_allclose(batched[row], sequential, atol=1e-10)

        full = tensor_embed(encoder, dataset)
        ids = [seq.seq_id for seq in dataset]
        np.testing.assert_allclose(sharded.embeddings(ids), full, atol=1e-10)

    def test_put_state_requires_last_time(self, dataset, cell, tmp_path):
        """A state without its boundary timestamp cannot be updated or
        snapshotted, so put_state refuses it up front."""
        encoder = _encoder(dataset, cell)
        sharded = ShardedEmbeddingStore(encoder, num_shards=2)
        hidden = np.zeros(encoder.output_dim)
        cell_buf = hidden if cell == "lstm" else None
        with pytest.raises(ValueError, match="last_time"):
            sharded.put_state(99, hidden, cell=cell_buf)
        sharded.put_state(99, hidden, cell=cell_buf, last_time=1.0)
        sharded.save(tmp_path / "snap")  # every state snapshot-safe
        assert sharded.last_time(99) == 1.0

    def test_update_many_rejects_duplicates_and_empty_chunks(self, dataset,
                                                             cell):
        encoder = _encoder(dataset, cell)
        sharded = ShardedEmbeddingStore(encoder, num_shards=2)
        chunk = dataset[0].slice(0, 10)
        with pytest.raises(ValueError):
            sharded.update_many([chunk, chunk], dataset.schema)
        with pytest.raises(ValueError):
            sharded.update_many([dataset[0].slice(0, 0)], dataset.schema)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
class TestShardedPersistence:
    def test_save_load_roundtrip(self, dataset, cell, tmp_path):
        encoder = _encoder(dataset, cell)
        store = ShardedEmbeddingStore(encoder, num_shards=4,
                                       precision="float64")
        half = SequenceDataset(
            [seq.slice(0, len(seq) // 2) for seq in dataset],
            dataset.schema, dataset.name)
        store.bulk_load(half)
        snapshot_dir = tmp_path / "shards"
        store.save(snapshot_dir)

        restored = ShardedEmbeddingStore(encoder, num_shards=4,
                                         precision="float64")
        restored.load(snapshot_dir)
        assert restored.known_entities() == store.known_entities()
        assert restored.shard_sizes() == store.shard_sizes()
        for seq in dataset:
            np.testing.assert_array_equal(restored.embedding(seq.seq_id),
                                          store.embedding(seq.seq_id))
            assert restored.last_time(seq.seq_id) == store.last_time(seq.seq_id)

        # the restored shards keep streaming, matching a full recompute
        full = tensor_embed(encoder, dataset)
        tails = [seq.slice(len(seq) // 2, len(seq)) for seq in dataset]
        restored.update_many(tails, dataset.schema)
        ids = [seq.seq_id for seq in dataset]
        np.testing.assert_allclose(restored.embeddings(ids), full, atol=1e-10)

    def test_load_rejects_shard_count_mismatch(self, dataset, cell,
                                               tmp_path):
        encoder = _encoder(dataset, cell)
        store = ShardedEmbeddingStore(encoder, num_shards=4)
        store.bulk_load(dataset)
        store.save(tmp_path / "snap")
        other = ShardedEmbeddingStore(encoder, num_shards=2)
        with pytest.raises(ValueError, match="4 shards"):
            other.load(tmp_path / "snap")

    def test_load_requires_manifest(self, dataset, cell, tmp_path):
        store = ShardedEmbeddingStore(_encoder(dataset, cell), num_shards=2)
        with pytest.raises(FileNotFoundError):
            store.load(tmp_path / "nowhere")



@pytest.mark.parametrize("cell", ["gru", "lstm", "transformer"])
def test_save_manifest_kind_matches_shard_bundles(dataset, cell, tmp_path):
    """The top-level manifest records the same state kind as every
    per-shard bundle manifest (transformer bundles included)."""
    store = ShardedEmbeddingStore(_encoder(dataset, cell), num_shards=2)
    store.bulk_load(dataset)
    store.save(tmp_path / "snap")
    top = json.loads((tmp_path / "snap" / "manifest.json").read_text())
    assert top["kind"] == store.runtime.state_kind
    for index in range(2):
        shard = json.loads((tmp_path / "snap" / ("shard_%04d" % index)
                            / "state_manifest.json").read_text())
        assert shard["kind"] == top["kind"]
