"""AsyncIngestPipeline: equivalence, backpressure, concurrency, telemetry.

The async-ingest contracts: a drained pipeline is **bit-identical** to
synchronous ingest of the same chunk stream (single FIFO consumer =>
same ``batcher.add`` / threshold-flush sequence), backpressure blocks or
rejects at ``max_pending_events``, errors defer to ``drain()``, and the
service's counters/cache/latency stay consistent while a background
flusher races producers and query threads.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.inference import embed_dataset
from repro.data.sequences import EventSequence, SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.serving import (
    AsyncIngestPipeline,
    BackpressureError,
    EmbeddingService,
    LatencyRecorder,
    build_event_log,
)

WAIT = 10.0  # generous thread-wait bound; normal runs finish in ms


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=14, mean_length=25, min_length=8,
                              max_length=60, seed=11)


def _encoder(dataset, cell, hidden=12, seed=0):
    encoder = build_encoder(dataset.schema, hidden, cell,
                            rng=np.random.default_rng(seed))
    encoder.eval()
    return encoder


def _service(dataset, cell, **kwargs):
    kwargs.setdefault("num_shards", 4)
    kwargs.setdefault("flush_events", 48)
    return EmbeddingService(_encoder(dataset, cell), dataset.schema,
                            **kwargs)


def _wait_until(predicate, timeout=WAIT):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


def _chunk(entity_id, times, schema):
    fields = {schema.time_field: np.asarray(times, dtype=np.float64)}
    for name in schema.categorical:
        fields[name] = np.ones(len(times), dtype=np.int64)
    for name in schema.numerical:
        fields[name] = np.ones(len(times), dtype=np.float64)
    return EventSequence(seq_id=entity_id, fields=fields, label=None)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
class TestAsyncEquivalence:
    def test_drained_pipeline_bit_identical_to_sync_ingest(self, dataset,
                                                           cell):
        """Same chunk stream through sync ingest vs async submit+drain:
        every embedding is bit-equal (default float32 policy)."""
        log = build_event_log(dataset, chunk_events=5, seed=3)
        sync = _service(dataset, cell)
        sync.ingest(log)
        sync.flush()

        async_service = _service(dataset, cell)
        with AsyncIngestPipeline(async_service,
                                 max_pending_events=64) as pipeline:
            for chunk in log:
                pipeline.submit(chunk)
            pipeline.drain()

        ids = [seq.seq_id for seq in dataset]
        np.testing.assert_array_equal(async_service.query(ids),
                                      sync.query(ids))
        assert async_service.stats()["flush_batches"] == \
            sync.stats()["flush_batches"]

    def test_drained_pipeline_matches_cold_recompute(self, dataset, cell):
        """The 1e-10 replay contract holds through the async path."""
        service = _service(dataset, cell, precision="float64")
        with AsyncIngestPipeline(service) as pipeline:
            pipeline.submit(build_event_log(dataset, chunk_events=6, seed=5))
            pipeline.drain()
        served = service.query([seq.seq_id for seq in dataset])
        reference = embed_dataset(_encoder(dataset, cell), dataset,
                                  precision="float64")
        np.testing.assert_allclose(served, reference, atol=1e-10)

    def test_queries_during_async_ingest_stay_in_contract(self, dataset,
                                                          cell):
        """Querying while the flusher races (triggering partial flushes
        of buffered entities) keeps the float64 drift contract."""
        service = _service(dataset, cell, precision="float64")
        history = SequenceDataset(
            [seq.slice(0, 2 * len(seq) // 3) for seq in dataset],
            dataset.schema, dataset.name)
        tails = SequenceDataset(
            [seq.slice(2 * len(seq) // 3, len(seq)) for seq in dataset],
            dataset.schema, dataset.name)
        service.bulk_load(history)
        ids = [seq.seq_id for seq in dataset]
        stop = threading.Event()
        failures = []

        def reader():
            rng = np.random.default_rng(0)
            while not stop.is_set():
                try:
                    picked = [ids[i] for i in rng.integers(0, len(ids), 3)]
                    service.query(picked)
                except Exception as error:  # surfaced in the main thread
                    failures.append(error)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            with AsyncIngestPipeline(service,
                                     max_pending_events=32) as pipeline:
                pipeline.submit(build_event_log(tails, chunk_events=4,
                                                seed=9))
                pipeline.drain()
        finally:
            stop.set()
            thread.join(WAIT)
        assert not failures
        served = service.query(ids)
        reference = embed_dataset(_encoder(dataset, cell), dataset,
                                  precision="float64")
        np.testing.assert_allclose(served, reference, atol=1e-10)


class TestBackpressure:
    def test_block_mode_waits_for_the_flusher(self, dataset):
        """A submit over the bound blocks until the flusher frees room
        (the service lock is held to stall the flusher deterministically)."""
        service = _service(dataset, "gru", flush_events=10_000)
        schema = dataset.schema
        pipeline = AsyncIngestPipeline(service, max_pending_events=3,
                                       on_full="block")
        try:
            with service._lock:  # flusher stalls before applying anything
                pipeline.submit(_chunk("a", [1.0, 2.0], schema))
                pipeline.submit(_chunk("b", [1.0], schema))  # bound reached
                done = threading.Event()

                def blocked_submit():
                    pipeline.submit(_chunk("c", [1.0], schema))
                    done.set()

                thread = threading.Thread(target=blocked_submit)
                thread.start()
                assert not done.wait(0.15)  # stuck on backpressure
                assert pipeline.stats()["blocked_submits"] == 1
            assert done.wait(WAIT)  # lock released -> flusher drains
            thread.join(WAIT)
            pipeline.drain()
            assert service.events_ingested == 4
        finally:
            pipeline.close()

    def test_reject_mode_raises_typed_error(self, dataset):
        service = _service(dataset, "gru", flush_events=10_000)
        schema = dataset.schema
        pipeline = AsyncIngestPipeline(service, max_pending_events=4,
                                       on_full="reject")
        try:
            with service._lock:
                pipeline.submit(_chunk("a", [1.0, 2.0, 3.0, 4.0], schema))
                with pytest.raises(BackpressureError) as excinfo:
                    pipeline.submit(_chunk("b", [1.0], schema))
                assert excinfo.value.pending_events == 4
                assert excinfo.value.max_pending_events == 4
                assert pipeline.stats()["rejected_chunks"] == 1
            pipeline.drain()
            # The rejected chunk was dropped, the admitted one applied.
            assert service.events_ingested == 4
        finally:
            pipeline.close()

    def test_oversize_chunk_admitted_alone(self, dataset):
        """A chunk larger than the whole bound gets in once the queue is
        empty — block mode must not deadlock on it."""
        service = _service(dataset, "gru", flush_events=10_000)
        pipeline = AsyncIngestPipeline(service, max_pending_events=2)
        try:
            pipeline.submit(_chunk("big", [1.0, 2.0, 3.0, 4.0, 5.0],
                                   dataset.schema))
            pipeline.drain()
            assert service.events_ingested == 5
        finally:
            pipeline.close()


class TestErrorsAndLifecycle:
    def test_out_of_order_chunk_defers_to_drain(self, dataset):
        """A time-order violation is caught by the flusher, deferred, and
        re-raised at drain(); other chunks still apply."""
        service = _service(dataset, "gru", flush_events=10_000)
        schema = dataset.schema
        pipeline = AsyncIngestPipeline(service)
        pipeline.submit(_chunk("a", [5.0, 6.0], schema))
        pipeline.submit(_chunk("a", [1.0], schema))  # starts before 6.0
        pipeline.submit(_chunk("b", [1.0, 2.0], schema))
        with pytest.raises(ValueError, match="out-of-order"):
            pipeline.drain()
        assert pipeline.stats()["deferred_errors"] == 1
        # The poisoned chunk was dropped; everyone else is intact (the
        # first drain raised before flushing, the second one flushes).
        assert sorted(pipeline.drain()) == ["a", "b"]
        assert service.events_ingested == 4
        assert sorted(service.known_entities()) == ["a", "b"]
        pipeline.close()

    def test_submit_validates_synchronously(self, dataset):
        service = _service(dataset, "gru")
        with AsyncIngestPipeline(service) as pipeline:
            with pytest.raises(TypeError):
                pipeline.submit(["not a chunk"])
            with pytest.raises(ValueError, match="empty"):
                pipeline.submit(_chunk("a", [], dataset.schema))
        assert service.events_ingested == 0

    def test_close_is_idempotent_and_submit_after_close_raises(self,
                                                               dataset):
        service = _service(dataset, "gru")
        pipeline = AsyncIngestPipeline(service)
        pipeline.submit(_chunk("a", [1.0], dataset.schema))
        pipeline.close()
        pipeline.close()
        assert service.events_ingested == 1
        assert service.batcher.pending_events == 0  # close drains + flushes
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.submit(_chunk("b", [1.0], dataset.schema))

    def test_close_that_reraises_still_closes(self, dataset):
        """A deferred error re-raised on exit must not leave the flusher
        running or the pipeline accepting chunks."""
        service = _service(dataset, "gru", flush_events=10_000)
        schema = dataset.schema
        with pytest.raises(ValueError, match="out-of-order"):
            with AsyncIngestPipeline(service) as pipeline:
                pipeline.submit(_chunk("a", [5.0, 6.0], schema))
                pipeline.submit(_chunk("a", [1.0], schema))
        assert pipeline.stats()["closed"]
        assert not pipeline._flusher.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.submit(_chunk("b", [1.0], schema))

    def test_counters_consistent_under_concurrent_producers(self, dataset):
        """Multiple producer threads + background flusher: every counter
        adds up after drain."""
        service = _service(dataset, "gru", flush_events=32)
        log = build_event_log(dataset, chunk_events=4, seed=13)
        pipeline = AsyncIngestPipeline(service, max_pending_events=64)
        errors = []

        def produce(chunks):
            try:
                for chunk in chunks:
                    # Per-entity chunk order is preserved per producer
                    # only; route each entity to one producer.
                    pipeline.submit(chunk)
            except Exception as error:
                errors.append(error)

        by_entity = {}
        for chunk in log:
            by_entity.setdefault(chunk.seq_id, []).append(chunk)
        shares = [[], [], []]
        for index, chunks in enumerate(by_entity.values()):
            shares[index % 3].extend(chunks)
        threads = [threading.Thread(target=produce, args=(share,))
                   for share in shares]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
        pipeline.drain()
        assert not errors
        stats = service.stats()
        total_events = sum(len(chunk) for chunk in log)
        assert stats["events_ingested"] == total_events
        assert stats["chunks_ingested"] == len(log)
        assert stats["pending_events"] == 0
        pipe_stats = pipeline.stats()
        assert pipe_stats["submitted_events"] == total_events
        assert pipe_stats["applied_chunks"] == len(log)
        assert pipe_stats["deferred_errors"] == 0
        assert pipe_stats["queued_events"] == 0
        pipeline.close()

    def test_latency_telemetry_covers_all_ops(self, dataset):
        service = _service(dataset, "gru", flush_events=16)
        with AsyncIngestPipeline(service) as pipeline:
            pipeline.submit(build_event_log(dataset, chunk_events=4,
                                            seed=2))
            pipeline.drain()
        service.query([dataset[0].seq_id])
        latency = service.stats()["latency_ms"]
        assert set(latency) >= {"ingest", "flush", "query"}
        for op in ("ingest", "flush", "query"):
            summary = latency[op]
            assert summary["count"] > 0
            assert 0.0 <= summary["p50"] <= summary["p95"] <= summary["p99"]


class CountingLock:
    """A service-lock stand-in that numbers its holds.

    ``holds`` counts acquisitions; a ``Condition`` built on it counts
    each wake-up from ``wait`` as a new hold, since ``wait`` releases
    the lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.holds = 0

    def acquire(self, blocking=True, timeout=-1):
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self.holds += 1
        return acquired

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


class TestHandoff:
    def test_one_chunk_per_service_lock_hold(self, dataset):
        """The flusher applies each queued chunk under its own service-lock
        hold, so a query waits for at most one chunk's append.  Chunks
        queue up behind a held lock; no hold may span two ``add`` calls."""
        service = _service(dataset, "gru", flush_events=10_000)
        lock = service._lock = CountingLock()
        service._published = threading.Condition(lock)
        holds = []
        add = service.batcher.add

        def counted_add(*args):
            holds.append(lock.holds)
            return add(*args)

        service.batcher.add = counted_add
        chunks = [_chunk("e%d" % (index % 3), [float(index)], dataset.schema)
                  for index in range(12)]
        with AsyncIngestPipeline(service) as pipeline:
            with lock:  # the flusher blocks; every later chunk queues
                pipeline.submit(chunks)
                assert _wait_until(lambda: pipeline.stats()["queued_chunks"]
                                   == len(chunks))
            pipeline.drain()
        assert len(holds) == len(chunks)
        assert len(set(holds)) == len(holds)
        assert service.chunks_ingested == len(chunks)

    def test_raising_submit_and_ingest_record_one_sample_each(self, dataset):
        """A rejected, refused or failed chunk still records its ``ingest``
        latency sample."""
        service = _service(dataset, "gru", flush_events=10_000)
        schema = dataset.schema

        def samples():
            return service.latency.summary().get("ingest", {}).get("count", 0)

        pipeline = AsyncIngestPipeline(service, max_pending_events=2,
                                       on_full="reject")
        try:
            with service._lock:  # keeps the first chunk's room taken
                pipeline.submit(_chunk("a", [1.0, 2.0], schema))
                with pytest.raises(BackpressureError):
                    pipeline.submit(_chunk("b", [1.0], schema))
                assert samples() == 2
            pipeline.drain()
        finally:
            pipeline.close()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.submit(_chunk("c", [1.0], schema))
        assert samples() == 3
        with pytest.raises(ValueError, match="out-of-order"):
            service.ingest(_chunk("a", [0.5], schema))
        assert samples() == 4
        assert service.events_ingested == 2


class TestLatencyRecorder:
    def test_percentiles_on_known_samples(self):
        recorder = LatencyRecorder()
        for millis in range(1, 101):  # 1..100 ms
            recorder.record("op", millis / 1e3)
        summary = recorder.summary()["op"]
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(50.5, abs=0.5)
        assert summary["p99"] == pytest.approx(99.01, abs=0.5)
        assert summary["max"] == pytest.approx(100.0)
        assert summary["mean"] == pytest.approx(50.5)

    def test_ring_buffer_keeps_most_recent_window(self):
        recorder = LatencyRecorder(capacity=10)
        for millis in range(1, 101):
            recorder.record("op", millis / 1e3)
        summary = recorder.summary()["op"]
        assert summary["count"] == 100  # lifetime
        assert summary["p50"] == pytest.approx(95.5, abs=0.5)  # window 91..100
        assert summary["mean"] == pytest.approx(50.5)  # lifetime

    def test_time_context_manager_records_failures_too(self):
        recorder = LatencyRecorder()
        with pytest.raises(RuntimeError):
            with recorder.time("op"):
                raise RuntimeError("boom")
        assert recorder.summary()["op"]["count"] == 1

    def test_reset_and_operations(self):
        recorder = LatencyRecorder()
        recorder.record("a", 0.001)
        recorder.record("b", 0.002)
        assert recorder.operations() == ["a", "b"]
        recorder.reset()
        assert recorder.operations() == []
        assert recorder.summary() == {}

    def test_concurrent_recording_loses_no_samples(self):
        recorder = LatencyRecorder()

        def hammer():
            for _ in range(500):
                recorder.record("op", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
        assert recorder.summary()["op"]["count"] == 2000

    def test_two_operations_recorded_concurrently_lose_no_samples(self):
        """Each operation has its own lock: two threads per operation,
        all starting on a fresh recorder (so they also race to create
        the operations' series), lose no sample of either."""
        recorder = LatencyRecorder(capacity=64)
        jobs = [("ingest", 0.001), ("query", 0.002)] * 2
        start = threading.Barrier(len(jobs))

        def hammer(op, seconds):
            start.wait()
            for _ in range(2500):
                recorder.record(op, seconds)

        threads = [threading.Thread(target=hammer, args=job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        summary = recorder.summary()
        assert summary["ingest"]["count"] == summary["query"]["count"] == 5000
        assert summary["ingest"]["mean"] == pytest.approx(1.0)
        assert summary["query"]["mean"] == pytest.approx(2.0)
        assert summary["query"]["p50"] == summary["query"]["max"] == 2.0

    def test_one_operation_never_waits_for_another(self):
        """While the ``ingest`` samples' lock is held, a query still
        records its ``lock_wait`` and ``query`` samples (the first of
        each creates its operation's series)."""
        recorder = LatencyRecorder()
        recorder.record("ingest", 0.001)
        recorded = threading.Event()

        def query():
            recorder.record("lock_wait", 0.001)
            recorder.record("query", 0.002)
            recorded.set()

        with recorder._series["ingest"].lock:
            thread = threading.Thread(target=query)
            thread.start()
            assert recorded.wait(WAIT)
        thread.join(WAIT)
        assert not thread.is_alive()
        assert [recorder.summary()[op]["count"]
                for op in ("ingest", "lock_wait", "query")] == [1, 1, 1]

    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            LatencyRecorder(capacity=0)
