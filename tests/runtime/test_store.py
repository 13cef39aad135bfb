"""EmbeddingStore: bulk loading, incremental refresh, save/load.

The serving guarantees under test: incremental refresh is bit-equal to a
full recompute (the paper's Section 4.3.1 ETL property), bulk loading
through the bucketed batch planner changes nothing, and a store survives
a save/load round-trip mid-stream.
"""

import numpy as np
import pytest

from repro.core import embed_dataset
from repro.data import EventSequence, SequenceDataset
from repro.data.bucketing import BUDGET_STEPS, plan_batches, plan_cell_batches
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.runtime import EmbeddingStore, FusedEncoderRuntime, engine
from repro.serving import ShardedEmbeddingStore
from tests.oracles import tensor_embed


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=15, mean_length=40, min_length=12,
                              max_length=90, seed=0)


def _encoder(dataset, cell, hidden=14, seed=0):
    encoder = build_encoder(dataset.schema, hidden, cell,
                            rng=np.random.default_rng(seed))
    encoder.eval()
    return encoder


@pytest.mark.parametrize("cell", ["gru", "lstm"])
class TestBulkAndIncremental:
    def test_bulk_load_matches_tensor_path(self, dataset, cell):
        encoder = _encoder(dataset, cell)
        store = EmbeddingStore(encoder, precision="float64")
        bulk = store.bulk_load(dataset)
        reference = tensor_embed(encoder, dataset)
        np.testing.assert_allclose(bulk, reference, atol=1e-10)
        assert store.known_entities() == sorted(s.seq_id for s in dataset)

    def test_incremental_equals_full_recompute(self, dataset, cell):
        """Chunked updates reproduce bulk embeddings despite the bucketed
        batch plan reordering the bulk pass."""
        encoder = _encoder(dataset, cell)
        store = EmbeddingStore(encoder, precision="float64")
        bulk = EmbeddingStore(encoder, precision="float64").bulk_load(dataset)
        for row, seq in enumerate(dataset):
            cuts = [0, len(seq) // 3, 2 * len(seq) // 3, len(seq)]
            for start, stop in zip(cuts[:-1], cuts[1:]):
                if stop > start:
                    store.update(seq.seq_id, seq.slice(start, stop),
                                 dataset.schema)
            np.testing.assert_allclose(
                store.embedding(seq.seq_id), bulk[row], atol=1e-10,
                err_msg="entity %d" % seq.seq_id)

    def test_bulk_then_incremental_continuation(self, dataset, cell):
        """States captured by bulk_load support continued streaming."""
        encoder = _encoder(dataset, cell)
        truncated = SequenceDataset(
            [seq.slice(0, len(seq) - 5) for seq in dataset],
            dataset.schema, dataset.name)
        store = EmbeddingStore(encoder, precision="float64")
        store.bulk_load(truncated)
        full = tensor_embed(encoder, dataset)
        for row, seq in enumerate(dataset):
            store.update(seq.seq_id, seq.slice(len(seq) - 5, len(seq)),
                         dataset.schema)
            np.testing.assert_allclose(store.embedding(seq.seq_id),
                                       full[row], atol=1e-10)

    def test_save_load_roundtrip(self, dataset, cell, tmp_path):
        encoder = _encoder(dataset, cell)
        store = EmbeddingStore(encoder, precision="float64")
        half = SequenceDataset(
            [seq.slice(0, len(seq) // 2) for seq in dataset],
            dataset.schema, dataset.name)
        store.bulk_load(half)
        path = tmp_path / "store_state"
        store.save(path)

        restored = EmbeddingStore(encoder, precision="float64").load(path)
        assert restored.known_entities() == store.known_entities()
        for seq in dataset:
            np.testing.assert_array_equal(restored.embedding(seq.seq_id),
                                          store.embedding(seq.seq_id))
            assert restored.last_time(seq.seq_id) == store.last_time(seq.seq_id)

        # The restored store keeps streaming, bit-equal to full recompute.
        full = tensor_embed(encoder, dataset)
        for row, seq in enumerate(dataset):
            restored.update(seq.seq_id, seq.slice(len(seq) // 2, len(seq)),
                            dataset.schema)
            np.testing.assert_allclose(restored.embedding(seq.seq_id),
                                       full[row], atol=1e-10)


class TestStoreApi:
    def test_embeddings_matrix_order(self, dataset):
        encoder = _encoder(dataset, "gru")
        store = EmbeddingStore(encoder)
        store.bulk_load(dataset)
        ids = [dataset[3].seq_id, dataset[0].seq_id]
        matrix = store.embeddings(ids)
        np.testing.assert_array_equal(matrix[0], store.embedding(ids[0]))
        np.testing.assert_array_equal(matrix[1], store.embedding(ids[1]))
        assert store.embeddings([]).shape == (0, encoder.output_dim)

    def test_membership_and_errors(self, dataset):
        encoder = _encoder(dataset, "gru")
        store = EmbeddingStore(encoder)
        assert len(store) == 0
        with pytest.raises(KeyError):
            store.embedding(42)
        with pytest.raises(ValueError):
            store.update(0, dataset[0].slice(0, 0), dataset.schema)
        store.update(7, dataset[0].slice(0, 8), dataset.schema)
        assert 7 in store and len(store) == 1

    def test_update_returns_stored_embedding(self, dataset):
        store = EmbeddingStore(_encoder(dataset, "gru"))
        seq = dataset[0]
        returned = store.update(seq.seq_id, seq.slice(0, 10), dataset.schema)
        assert store.known_entities() == [seq.seq_id]
        np.testing.assert_array_equal(returned, store.embedding(seq.seq_id))

    def test_transformer_bulk_serves_but_never_streams(self, dataset):
        """Transformer stores bulk-load and read; update() fails loudly."""
        transformer = build_encoder(dataset.schema, 8, "transformer",
                                    rng=np.random.default_rng(7))
        store = EmbeddingStore(transformer, precision="float64")
        store.bulk_load(dataset)
        assert len(store) == len(dataset)
        runtime = transformer.fused_runtime(precision="float64")
        reference = runtime.embed_dataset(dataset)
        ids = [seq.seq_id for seq in dataset.sequences]
        np.testing.assert_allclose(store.embeddings(ids), reference,
                                   atol=1e-12)
        with pytest.raises(TypeError):
            store.update(ids[0], dataset[0].slice(0, 5), dataset.schema)

    def test_load_rejects_cell_mismatch(self, dataset, tmp_path):
        gru_store = EmbeddingStore(_encoder(dataset, "gru"))
        gru_store.update(1, dataset[0].slice(0, 10), dataset.schema)
        path = tmp_path / "gru_state"
        gru_store.save(path)
        lstm_store = EmbeddingStore(_encoder(dataset, "lstm"))
        with pytest.raises(ValueError, match="gru"):
            lstm_store.load(path)

    def test_load_rejects_width_mismatch(self, dataset, tmp_path):
        narrow = EmbeddingStore(_encoder(dataset, "gru", hidden=6))
        narrow.update(1, dataset[0].slice(0, 10), dataset.schema)
        path = tmp_path / "narrow_state"
        narrow.save(path)
        wide = EmbeddingStore(_encoder(dataset, "gru", hidden=14))
        with pytest.raises(ValueError, match="width"):
            wide.load(path)


# ----------------------------------------------------------------------
# the bulk plan: cell-budget batches store what row batches stored
# ----------------------------------------------------------------------
def _short_and_long():
    """Many histories far below the cell budget's steps, a few above."""
    short = make_churn_dataset(num_clients=200, mean_length=5, min_length=1,
                               max_length=20, seed=4)
    long = make_churn_dataset(num_clients=20, mean_length=100,
                              min_length=BUDGET_STEPS + 1, max_length=150,
                              seed=5)
    renamed = [EventSequence(seq_id=1000 + seq.seq_id, fields=seq.fields)
               for seq in long]
    return SequenceDataset(short.sequences + renamed, short.schema)


@pytest.mark.parametrize("layout", ["flat", "sharded"])
@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_cell_plan_bulk_load_equals_row_plan(layout, cell, monkeypatch):
    """Float64 embeddings and states match the 64-row plan's (< 1e-10)."""
    mixed = _short_and_long()
    encoder = _encoder(mixed, cell)

    def store():
        if layout == "flat":
            return EmbeddingStore(encoder, precision="float64")
        return ShardedEmbeddingStore(encoder, num_shards=3,
                                     precision="float64")

    cells = plan_cell_batches(mixed.lengths(), 64)
    rows = plan_batches(mixed.lengths(), 64)
    assert len(cells) < len(rows)
    by_cells = store()
    got = by_cells.bulk_load(mixed)
    monkeypatch.setattr(engine, "plan_cell_batches", plan_batches)
    by_rows = store()
    want = by_rows.bulk_load(mixed)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def slots(store):
        return [shard.backend.entity_ids()
                for shard in getattr(store, "shards", [store])]

    def states(store):
        source = store.backend if layout == "flat" else store
        return source.gather([seq.seq_id for seq in mixed])

    assert slots(by_cells) == slots(by_rows)
    for got_part, want_part in zip(states(by_cells), states(by_rows)):
        if want_part is None:
            assert got_part is None
        else:
            np.testing.assert_allclose(got_part, want_part, rtol=0,
                                       atol=1e-10)


def test_bulk_paths_reject_a_zero_length_sequence(dataset):
    """The cell budget plans an empty history; collate rejects it."""
    first = dataset[0]
    empty = EventSequence(seq_id=999, fields={
        name: values[:0] for name, values in first.fields.items()})
    broken = SequenceDataset([first, empty], dataset.schema)
    encoder = _encoder(dataset, "gru")
    with pytest.raises(ValueError, match="cannot collate empty sequences"):
        EmbeddingStore(encoder).bulk_load(broken)
    with pytest.raises(ValueError, match="cannot collate empty sequences"):
        embed_dataset(encoder, broken)


def test_bulk_load_keeps_tuple_and_mixed_ids(dataset):
    """Ids read back from the collated batch are the dataset's own."""
    ids = [("shop", 1), 7, "7", ("shop", 2)]
    renamed = SequenceDataset(
        [EventSequence(seq_id=entity_id, fields=seq.fields)
         for entity_id, seq in zip(ids, dataset)], dataset.schema)
    encoder = _encoder(dataset, "gru")
    for store in (EmbeddingStore(encoder),
                  ShardedEmbeddingStore(encoder, num_shards=3)):
        store.bulk_load(renamed)
        for entity_id in ids:
            assert entity_id in store


@pytest.mark.parametrize("kind", ["gru", "transformer"])
def test_bulk_plan_widens_recurrent_batches_only(kind):
    """Recurrent passes run the cell plan, transformers the row plan."""
    mixed = _short_and_long()
    runtime = FusedEncoderRuntime(build_encoder(
        mixed.schema, 8, kind, rng=np.random.default_rng(0)))
    plan = plan_cell_batches if kind == "gru" else plan_batches
    assert ([chunk.tolist() for chunk, _, _ in runtime.run_dataset(mixed)]
            == [chunk.tolist() for chunk in plan(mixed.lengths(), 64)])
