"""EmbeddingService: replay equivalence, cache freshness, micro-batching.

The service-level guarantees: replaying an interleaved event log through
``ingest``/``flush``/``query`` reproduces ``embed_dataset`` of the full
history to < 1e-10 (the acceptance bar of the serving subsystem), cached
reads are never stale across ingests, and persistence round-trips through
the sharded snapshot.
"""

import numpy as np
import pytest

from repro.core.inference import embed_dataset, serve
from repro.data.bucketing import plan_batches
from repro.data.sequences import EventSequence, SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.serving import (
    EmbeddingCache,
    EmbeddingService,
    MicroBatcher,
    build_event_log,
    coalesce_chunks,
    replay_event_log,
)


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=16, mean_length=30, min_length=10,
                              max_length=70, seed=4)


def _encoder(dataset, cell, hidden=12, seed=0):
    encoder = build_encoder(dataset.schema, hidden, cell,
                            rng=np.random.default_rng(seed))
    encoder.eval()
    return encoder


@pytest.mark.parametrize("cell", ["gru", "lstm"])
class TestReplayEquivalence:
    def test_cold_stream_matches_embed_dataset(self, dataset, cell):
        """Every event arrives online (no bulk load); the final served
        embeddings equal a cold full recompute."""
        encoder = _encoder(dataset, cell)
        service = EmbeddingService(encoder, dataset.schema, num_shards=4,
                                   flush_events=48, precision="float64")
        log = build_event_log(dataset, chunk_events=5, seed=7)
        stats = replay_event_log(service, log, query_every=4)
        assert stats["pending_events"] == 0
        assert stats["events_ingested"] == int(dataset.lengths().sum())
        assert stats["flushes"] >= 2  # micro-batched, not one giant flush

        served = service.query([seq.seq_id for seq in dataset])
        reference = embed_dataset(encoder, dataset, precision="float64")
        np.testing.assert_allclose(served, reference, atol=1e-10)

    def test_bulk_load_then_stream_matches(self, dataset, cell):
        """Day-0 bulk load + streamed tails — the production ETL shape."""
        encoder = _encoder(dataset, cell)
        history = SequenceDataset(
            [seq.slice(0, 2 * len(seq) // 3) for seq in dataset],
            dataset.schema, dataset.name)
        tails = SequenceDataset(
            [seq.slice(2 * len(seq) // 3, len(seq)) for seq in dataset],
            dataset.schema, dataset.name)

        service = serve(encoder, dataset=history, num_shards=3,
                        flush_events=32, precision="float64")
        replay_event_log(service, build_event_log(tails, chunk_events=4,
                                                  seed=1))
        served = service.query([seq.seq_id for seq in dataset])
        reference = embed_dataset(encoder, dataset, precision="float64")
        np.testing.assert_allclose(served, reference, atol=1e-10)


class TestCacheBehaviour:
    def test_repeat_queries_hit_the_cache(self, dataset):
        service = serve(_encoder(dataset, "gru"), dataset=dataset)
        ids = [seq.seq_id for seq in dataset][:5]
        first = service.query(ids)
        hits_before = service.cache.hits
        second = service.query(ids)
        np.testing.assert_array_equal(first, second)
        assert service.cache.hits == hits_before + len(ids)

    def test_ingest_invalidates_and_query_is_never_stale(self, dataset):
        """A cached embedding must not survive the entity's state advance:
        ingest -> flush invalidates, and a query that races buffered
        events flushes first."""
        encoder = _encoder(dataset, "gru")
        history = SequenceDataset(
            [seq.slice(0, len(seq) - 5) for seq in dataset],
            dataset.schema, dataset.name)
        service = serve(encoder, dataset=history, flush_events=10_000,
                        precision="float64")
        seq = dataset[0]
        stale = service.query_one(seq.seq_id)  # warm the cache
        assert seq.seq_id in service.cache

        service.ingest(seq.slice(len(seq) - 5, len(seq)))
        assert service.batcher.has_pending(seq.seq_id)  # below threshold
        fresh = service.query_one(seq.seq_id)  # forces the flush
        assert service.batcher.pending_events == 0
        assert np.abs(fresh - stale).max() > 0
        full = embed_dataset(encoder, dataset, precision="float64")
        np.testing.assert_allclose(fresh, full[0], atol=1e-10)

    def test_explicit_flush_invalidates_cached_entries(self, dataset):
        history = SequenceDataset(
            [seq.slice(0, len(seq) - 3) for seq in dataset],
            dataset.schema, dataset.name)
        service = serve(_encoder(dataset, "gru"), dataset=history,
                        flush_events=10_000)
        seq = dataset[1]
        service.query_one(seq.seq_id)
        invalidations_before = service.cache.invalidations
        service.ingest(seq.slice(len(seq) - 3, len(seq)))
        updated = service.flush()
        assert updated == [seq.seq_id]
        assert service.cache.invalidations == invalidations_before + 1
        assert seq.seq_id not in service.cache

    def test_lru_eviction_and_stats(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("a", np.zeros(3))
        cache.put("b", np.ones(3))
        assert cache.get("a") is not None  # "a" is now most recent
        cache.put("c", np.full(3, 2.0))   # evicts "b"
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1
        stats = cache.stats()
        assert stats["size"] == 2 and stats["hits"] == 1

    def test_zero_capacity_disables_caching(self, dataset):
        service = serve(_encoder(dataset, "gru"), dataset=dataset,
                        cache_capacity=0)
        ids = [dataset[0].seq_id]
        service.query(ids)
        service.query(ids)
        assert service.cache.hits == 0 and len(service.cache) == 0


class TestMicroBatcher:
    def test_coalesces_chunks_in_arrival_order(self, dataset):
        seq = dataset[0]
        parts = [seq.slice(0, 4), seq.slice(4, 9), seq.slice(9, len(seq))]
        merged = coalesce_chunks(parts)
        assert len(merged) == len(seq)
        for name in seq.fields:
            np.testing.assert_array_equal(merged.fields[name],
                                          seq.fields[name])

    def test_auto_flush_threshold(self, dataset):
        service = serve(_encoder(dataset, "gru"), schema=dataset.schema,
                        flush_events=12)
        seq = dataset[0]
        service.ingest(seq.slice(0, 6))
        assert service.flushes == 0 and service.batcher.pending_events == 6
        service.ingest(seq.slice(6, 13))  # crosses the threshold
        assert service.flushes == 1 and service.batcher.pending_events == 0
        np.testing.assert_array_equal(service.query_one(seq.seq_id),
                                      service.store.embedding(seq.seq_id))

    def test_rejects_out_of_order_and_empty_chunks(self, dataset):
        batcher = MicroBatcher(flush_events=100,
                               time_field=dataset.schema.time_field)
        seq = dataset[0]
        batcher.add(seq.slice(5, 10))
        with pytest.raises(ValueError, match="out-of-order"):
            batcher.add(seq.slice(0, 5))
        with pytest.raises(ValueError):
            batcher.add(seq.slice(0, 0))
        with pytest.raises(TypeError):
            batcher.add("not a sequence")

    def test_query_flushes_only_requested_entities(self, dataset):
        """Read-your-writes on one entity must not collapse everyone
        else's pending micro-batches."""
        service = serve(_encoder(dataset, "gru"), schema=dataset.schema,
                        flush_events=10_000)
        first, second = dataset[0], dataset[1]
        service.ingest(first.slice(0, 8))
        service.ingest(second.slice(0, 8))
        service.query_one(first.seq_id)
        assert not service.batcher.has_pending(first.seq_id)
        assert service.batcher.has_pending(second.seq_id)  # still buffered
        assert service.batcher.pending_events == 8
        service.flush()
        assert service.batcher.pending_events == 0

    def test_rejects_out_of_order_across_a_flush(self, dataset):
        """An out-of-order chunk must raise even when the earlier events
        were already flushed into the store (empty buffer)."""
        service = serve(_encoder(dataset, "gru"), schema=dataset.schema,
                        flush_events=10_000)
        seq = dataset[0]
        service.ingest(seq.slice(5, 10))
        service.flush()
        assert service.batcher.pending_events == 0
        with pytest.raises(ValueError, match="out-of-order"):
            service.ingest(seq.slice(0, 5))

    def test_rejected_chunk_leaves_buffer_clean(self, dataset):
        """A rejected out-of-order chunk must not poison the buffer: no
        phantom pending entity, and later flushes still work."""
        service = serve(_encoder(dataset, "gru"), schema=dataset.schema,
                        flush_events=10_000)
        first, second = dataset[0], dataset[1]
        service.ingest(first.slice(5, 10))
        service.flush()
        with pytest.raises(ValueError, match="out-of-order"):
            service.ingest(first.slice(0, 5))
        assert not service.batcher.has_pending(first.seq_id)
        assert service.batcher.pending_events == 0
        service.ingest(second.slice(0, 8))  # the service keeps working
        assert service.flush() == [second.seq_id]


class TestServicePersistence:
    def test_save_flushes_and_roundtrips(self, dataset, tmp_path):
        encoder = _encoder(dataset, "gru")
        history = SequenceDataset(
            [seq.slice(0, len(seq) - 4) for seq in dataset],
            dataset.schema, dataset.name)
        service = serve(encoder, dataset=history, num_shards=4,
                        flush_events=10_000)
        seq = dataset[2]
        service.ingest(seq.slice(len(seq) - 4, len(seq)))
        service.save(tmp_path / "svc")  # must flush the pending chunk
        assert service.batcher.pending_events == 0

        clone = serve(encoder, schema=dataset.schema, num_shards=4)
        clone.load(tmp_path / "svc")
        ids = [s.seq_id for s in dataset]
        np.testing.assert_array_equal(clone.query(ids), service.query(ids))

    def test_load_refuses_pending_events(self, dataset, tmp_path):
        encoder = _encoder(dataset, "gru")
        history = SequenceDataset(
            [seq.slice(0, len(seq) - 3) for seq in dataset],
            dataset.schema, dataset.name)
        service = serve(encoder, dataset=history, num_shards=2)
        service.save(tmp_path / "svc")
        seq = dataset[0]
        service.ingest(seq.slice(len(seq) - 3, len(seq)))
        with pytest.raises(RuntimeError, match="buffered events"):
            service.load(tmp_path / "svc")

    def test_serve_requires_schema_or_dataset(self, dataset):
        with pytest.raises(ValueError):
            serve(_encoder(dataset, "gru"))


def _with_label(chunk, label):
    return EventSequence(seq_id=chunk.seq_id, fields=dict(chunk.fields),
                         label=label)


class TestTelemetryAndSafetyRegressions:
    """Serving telemetry/safety fixes: flush_batches counted from the
    real fused plan, read-only cache entries, coalesced labels, and
    duplicate query ids."""

    def test_flush_batches_counts_the_real_fused_plan(self, dataset):
        """``flush_batches`` must equal the bucketed plan's batch count
        for exactly the drained chunks — full and partial flushes."""
        service = serve(_encoder(dataset, "gru"), schema=dataset.schema,
                        flush_events=10_000, batch_size=4)
        for seq in dataset:
            service.ingest(seq.slice(0, 5))
        expected = len(plan_batches([5] * len(dataset), 4))
        service.flush()
        assert service.flush_batches == expected
        # A query-triggered partial flush adds its own (tiny) plan.
        for seq in dataset:
            service.ingest(seq.slice(5, 8))
        service.query([dataset[0].seq_id])  # drains exactly one entity
        assert service.flush_batches == expected + len(plan_batches([3], 4))

    def test_cache_hands_out_read_only_entries(self):
        """A ``get`` result is frozen: caller mutation raises instead of
        corrupting every later hit."""
        cache = EmbeddingCache(capacity=4)
        cache.put("a", np.arange(3, dtype=np.float32))
        entry = cache.get("a")
        assert entry.flags.writeable is False
        with pytest.raises(ValueError):
            entry[0] = 99.0
        np.testing.assert_array_equal(cache.get("a"),
                                      np.arange(3, dtype=np.float32))

    def test_cache_put_leaves_the_callers_array_writable(self):
        source = np.arange(3, dtype=np.float32)
        cache = EmbeddingCache(capacity=4)
        cache.put("a", source)
        source[0] = 42.0  # the caller's own buffer: still writable,
        assert cache.get("a")[0] == 0.0  # and the cache kept a copy

    def test_coalesce_prefers_latest_non_none_label(self, dataset):
        seq = dataset[0]
        parts = [seq.slice(0, 4), seq.slice(4, 9)]
        assert coalesce_chunks([_with_label(parts[0], None),
                                _with_label(parts[1], 1)]).label == 1
        assert coalesce_chunks([_with_label(parts[0], 1),
                                _with_label(parts[1], None)]).label == 1
        assert coalesce_chunks([_with_label(parts[0], 1),
                                _with_label(parts[1], 1)]).label == 1
        assert coalesce_chunks([_with_label(parts[0], None),
                                _with_label(parts[1], None)]).label is None

    def test_coalesce_raises_on_conflicting_labels(self, dataset):
        seq = dataset[0]
        parts = [seq.slice(0, 4), seq.slice(4, 9)]
        with pytest.raises(ValueError, match="conflicting labels"):
            coalesce_chunks([_with_label(parts[0], 1),
                             _with_label(parts[1], 2)])

    def test_query_with_duplicate_entity_ids(self, dataset):
        """Repeated ids each get their own row, and the pending-entity
        partial flush is not confused by the repetition."""
        service = serve(_encoder(dataset, "gru"), schema=dataset.schema,
                        flush_events=10_000)
        first, second = dataset[0], dataset[1]
        service.ingest(first.slice(0, 6))
        service.ingest(second.slice(0, 6))
        out = service.query([first.seq_id, second.seq_id, first.seq_id])
        np.testing.assert_array_equal(out[0], out[2])
        np.testing.assert_array_equal(
            out[0], service.store.embedding(first.seq_id))
        np.testing.assert_array_equal(
            out[1], service.store.embedding(second.seq_id))
        assert service.queries == 3
        assert service.batcher.pending_events == 0
