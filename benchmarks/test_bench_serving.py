"""Online-serving throughput: micro-batched ingest vs per-entity updates.

PR 1 measured the *bulk* serving path (``BENCH_inference.json``).  This
bench measures the *online* path that follows it in production: a stream
of small per-entity event chunks arriving interleaved, folded into stored
recurrent states.  Two implementations of the same contract:

- **per-entity loop** — one ``EmbeddingStore.update`` call per chunk (the
  pre-serving-subsystem behaviour): every chunk pays collation, weight
  export, and a batch-of-one kernel launch;
- **micro-batched ingest** — chunks buffer in the
  :class:`~repro.serving.EmbeddingService` and flush as length-bucketed
  fused batches through ``update_many``.

A third path re-runs the micro-batched ingest with ``workers=2`` shard
flushes (the bucket-parallel execution policy) and is recorded as
``events_per_sec.parallel_flush``.  A fourth serves the same stream
**out-of-core**: per-shard on-disk :class:`~repro.runtime.StateBackend`
storage (shard capacity 16, LRU of 2 hot shards — small enough that the
stream forces evictions) with the ``int8`` state codec, recorded as
``events_per_sec.out_of_core_ingest``.

All paths must produce the same embeddings as the cold recompute within
their documented drift bound: the in-RAM paths within the float32 bound
of the default precision policy (the float64 paths are held to 1e-10 in
``tests/``), the quantized out-of-core path within the int8 codec bound
(states round-trip through per-shard linear quantization on every
eviction; observed drift on this workload is ~1e-3, asserted at 0.05),
and the parallel flush must be *bit-identical* to the serial service.

The at-rest state footprint is recorded under ``bytes_per_entity``:
the float64 identity-codec baseline, the float32 policy, and the on-disk
int8 layout — whose >= 4x reduction vs the float64 baseline is asserted
here and gated (lower-is-better) in CI.  The ``dict_*``/``memmap_int8``
key names are kept so the committed baselines stay comparable.  Speedups are recorded
via ``bench_record`` to ``BENCH_serving.json``; CI gates
``events_per_sec.microbatched_ingest``, ``events_per_sec.parallel_flush``
and ``bytes_per_entity.memmap_int8`` at the 30% budget, and the >= 2x
micro-batching floor is asserted below.

``test_million_entity_latency_slo`` is the ROADMAP's million-entity
scale point: a 1M-entity day-0 bulk load, then a live stream pushed
through the :class:`~repro.serving.AsyncIngestPipeline` (bounded queue
+ background flusher) while a concurrent reader thread queries cold
entities.  It records per-op latency percentiles under ``latency_ms``
(``ingest`` = producer-side submit, ``flush`` = fused batch flushes on
the flusher thread, ``query`` = concurrent reads) and asserts the async
contract: the drained state is **bit-identical** to the same stream
ingested synchronously (identical threshold-driven flush sequence; the
concurrent reader only touches cold entities, so it never triggers the
partial flushes that would regroup batches — those are drift-bounded,
not bit-identical, and exercised in ``tests/serving/``).  CI gates
``latency_ms.query.p99`` lower-is-better at the 30% budget.

Both tests merge into one ``BENCH_serving.json`` via the shared
``_TELEMETRY`` dict, so the file is complete when the whole module runs
and loudly partial when a single test is cherry-picked.
"""

import threading
import time

import numpy as np

from repro.core.inference import embed_dataset
from repro.data.sequences import EventSequence, SequenceDataset
from repro.data.synthetic import (make_churn_dataset, make_stress_history,
                                  make_stress_stream)
from repro.encoders import build_encoder
from repro.eval import ComparisonTable
from repro.runtime import EmbeddingStore, StateBackend
from repro.serving import AsyncIngestPipeline, EmbeddingService, build_event_log

# Out-of-core knobs: shard capacity and LRU size are deliberately tiny
# relative to the ~230-client workload so the stream forces evictions
# (states quantize + write back, then page back in) — the bench measures
# the paging path, not an all-hot cache.
OOC_SHARD_CAPACITY = 16
OOC_CACHE_SHARDS = 2
# int8 drift bound for the out-of-core path: each eviction round-trips a
# shard's states through per-dimension linear quantization (error <=
# span/255/2 per dim) and the recurrence contracts older error; observed
# end-to-end drift on this workload is ~1e-3.  50x headroom still
# catches a broken codec outright (identity drift is ~1e-7 here).
OOC_INT8_ATOL = 0.05

# (clients, mean events) cohorts: many light users, a heavy tail.
COHORTS = [(120, 20), (80, 60), (30, 200)]
HISTORY_FRACTION = 0.6  # events embedded in the day-0 bulk load
CHUNK_EVENTS = 6        # mean events per streamed arrival

# Million-entity SLO workload knobs.
SLO_ENTITIES = 1_000_000   # day-0 bulk-load population
SLO_ACTIVE = 50_000        # entities that stream post-load chunks
SLO_HIDDEN = 32            # encoder width (state cost dominates at 1M)
SLO_FLUSH_EVENTS = 4096    # micro-batcher threshold
SLO_MAX_PENDING = 8192     # async queue bound (on_full="block")
SLO_QUERY_BATCH = 512      # cold ids per concurrent reader query

# Both tests in this module record into one BENCH_serving.json; they
# accumulate here and re-record the merged dict (same pattern as
# benchmarks/test_bench_training.py).
_TELEMETRY = {}


def _deep_merge(into, update):
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _deep_merge(into[key], value)
        else:
            into[key] = value


def _record_serving(bench_record, update):
    _deep_merge(_TELEMETRY, update)
    return bench_record("serving", _TELEMETRY)


def _longtail_dataset(seed=0):
    sequences, offset, schema = [], 0, None
    for num_clients, mean_length in COHORTS:
        cohort = make_churn_dataset(num_clients=num_clients,
                                    mean_length=mean_length, min_length=8,
                                    max_length=300, seed=seed + mean_length)
        schema = cohort.schema
        for seq in cohort:
            sequences.append(EventSequence(seq_id=offset + seq.seq_id,
                                           fields=seq.fields, label=seq.label))
        offset += 10_000
    rng = np.random.default_rng(seed)
    rng.shuffle(sequences)
    return SequenceDataset(sequences, schema, name="longtail-stream")


def _best_of(func, repeats=3):
    """Best wall-clock of ``repeats`` runs; returns (result, seconds)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        outcome, elapsed = func()
        if elapsed < best:
            best, result = elapsed, outcome
    return result, best


def test_serving_ingest_throughput(run_once, bench_record, tmp_path):
    def experiment():
        dataset = _longtail_dataset()
        schema = dataset.schema
        history = SequenceDataset(
            [seq.slice(0, max(1, int(HISTORY_FRACTION * len(seq))))
             for seq in dataset], schema, name="history")
        tails = SequenceDataset(
            [seq.slice(max(1, int(HISTORY_FRACTION * len(seq))), len(seq))
             for seq in dataset if int(HISTORY_FRACTION * len(seq)) >= 1
             and len(seq) > int(HISTORY_FRACTION * len(seq))],
            schema, name="stream")
        log = build_event_log(tails, chunk_events=CHUNK_EVENTS, seed=1)
        stream_events = int(sum(len(chunk) for chunk in log))

        encoder = build_encoder(schema, 48, "gru",
                                rng=np.random.default_rng(0))
        encoder.eval()

        def per_entity_loop():
            store = EmbeddingStore(encoder)
            store.bulk_load(history)
            started = time.perf_counter()
            for chunk in log:
                store.update(chunk.seq_id, chunk, schema)
            return store, time.perf_counter() - started

        def microbatched_ingest(workers=1):
            service = EmbeddingService(encoder, schema, num_shards=8,
                                       flush_events=1024, cache_capacity=0,
                                       workers=workers)
            service.bulk_load(history)
            started = time.perf_counter()
            for chunk in log:
                service.ingest(chunk)
            service.flush()
            return service, time.perf_counter() - started

        runs = iter(range(100))

        def out_of_core_ingest():
            # A fresh directory per run: an on-disk backend adopts any
            # state bundle already present in its directory.
            root = tmp_path / ("ooc_run%02d" % next(runs))
            service = EmbeddingService(
                encoder, schema, num_shards=4, flush_events=1024,
                cache_capacity=0, codec="int8",
                backend=lambda index: StateBackend(
                    root / ("state_%04d" % index),
                    shard_capacity=OOC_SHARD_CAPACITY,
                    cache_shards=OOC_CACHE_SHARDS))
            service.bulk_load(history)
            started = time.perf_counter()
            for chunk in log:
                service.ingest(chunk)
            service.flush()
            return service, time.perf_counter() - started

        loop_store, loop_s = _best_of(per_entity_loop)
        service, micro_s = _best_of(microbatched_ingest)
        parallel_service, parallel_s = _best_of(
            lambda: microbatched_ingest(workers=2))
        ooc_service, ooc_s = _best_of(out_of_core_ingest)

        # Same contract: both streaming paths equal the cold recompute
        # within the float32 drift bound of the default precision policy
        # (the float64 paths are held to 1e-10 in tests/; observed f32
        # drift across batch shapes is ~1e-7).
        ids = [seq.seq_id for seq in dataset]
        reference = embed_dataset(encoder, dataset)
        np.testing.assert_allclose(loop_store.embeddings(ids), reference,
                                   atol=1e-5)
        np.testing.assert_allclose(service.query(ids), reference, atol=1e-5)
        # Parallel flushes are bit-identical to the serial service — the
        # determinism contract of the execution policy, not a tolerance.
        np.testing.assert_array_equal(parallel_service.query(ids),
                                      service.query(ids))
        # The out-of-core path actually paged (LRU evictions happened)
        # and still lands within the documented int8 codec bound.
        evictions = sum(stat["evictions"]
                        for stat in ooc_service.store.backend_stats())
        assert evictions > 0
        np.testing.assert_allclose(ooc_service.query(ids), reference,
                                   atol=OOC_INT8_ATOL)

        # At-rest footprint: the acceptance ratio of the out-of-core
        # redesign — int8 on-disk states are >= 4x smaller per entity
        # than the float64 identity-codec baseline.
        dim = encoder.output_dim
        dict_f64 = StateBackend().attach(
            dim, "gru", np.float64, "identity").bytes_per_entity()
        dict_f32 = StateBackend().attach(
            dim, "gru", np.float32, "identity").bytes_per_entity()
        memmap_int8 = ooc_service.store.bytes_per_entity()
        assert dict_f64 / memmap_int8 >= 4.0

        stats = service.stats()
        results = {
            "workload": {
                "clients": len(dataset),
                "stream_chunks": len(log),
                "stream_events": stream_events,
                "chunk_mean_events": stream_events / len(log),
            },
            "events_per_sec": {
                "per_entity_update": stream_events / loop_s,
                "microbatched_ingest": stream_events / micro_s,
                # Micro-batched ingest with workers=2 shard flushes —
                # bit-identical output, gated alongside the serial key.
                "parallel_flush": stream_events / parallel_s,
                # Same stream through on-disk shards + the int8 codec
                # (trend-only: paging cost depends on runner disk).
                "out_of_core_ingest": stream_events / ooc_s,
            },
            "speedup": {"microbatching": loop_s / micro_s},
            # At-rest bytes per entity (state values + amortised codec
            # metadata + timestamp); memmap_int8 is gated lower-is-better.
            "bytes_per_entity": {
                "dict_float64": dict_f64,
                "dict_float32": dict_f32,
                "memmap_int8": memmap_int8,
                "reduction_vs_float64": dict_f64 / memmap_int8,
            },
            "service": {
                "num_shards": service.store.num_shards,
                "flushes": stats["flushes"],
                "flush_batches": stats["flush_batches"],
                "shard_sizes": stats["shard_sizes"],
                "out_of_core_evictions": evictions,
            },
        }
        _record_serving(bench_record, results)

        table = ComparisonTable(
            "Online ingest throughput: micro-batched vs per-entity",
            ["path", "events/s", "speedup"],
        )
        base = results["events_per_sec"]["per_entity_update"]
        for key in ("per_entity_update", "microbatched_ingest",
                    "parallel_flush"):
            rate = results["events_per_sec"][key]
            table.add_row(key, "%.0f" % rate, "%.1fx" % (rate / base))
        table.print()
        return results

    results = run_once(experiment)
    # The acceptance floor of the serving subsystem: buffering arrivals
    # into length-bucketed fused batches must at least double the ingest
    # rate of the one-kernel-call-per-entity loop.  Typical speedup on
    # this workload is far higher (recorded in BENCH_serving.json); 2x
    # leaves headroom for noisy shared CI runners.
    assert results["speedup"]["microbatching"] >= 2.0


def test_million_entity_latency_slo(run_once, bench_record):
    def experiment():
        history = make_stress_history(SLO_ENTITIES, seed=0)
        schema = history.schema
        stream = make_stress_stream(history, SLO_ACTIVE, seed=1)
        stream_events = int(sum(len(chunk) for chunk in stream))
        active_ids = sorted({chunk.seq_id for chunk in stream})
        active_set = set(active_ids)

        encoder = build_encoder(schema, SLO_HIDDEN, "gru",
                                rng=np.random.default_rng(0))
        encoder.eval()

        def build_service():
            return EmbeddingService(encoder, schema, num_shards=4,
                                    flush_events=SLO_FLUSH_EVENTS,
                                    cache_capacity=0)

        # -- async path: bounded queue + background flusher, with a
        #    concurrent reader hammering *cold* entities (queries of
        #    cold ids never trigger partial flushes, so the threshold-
        #    driven flush sequence stays identical to sync ingest).
        service = build_service()
        bulk_started = time.perf_counter()
        service.bulk_load(history)
        bulk_s = time.perf_counter() - bulk_started
        service.latency.reset()  # SLOs cover the live phase only

        rng = np.random.default_rng(2)
        cold_pool = rng.choice(SLO_ENTITIES, size=200_000, replace=False)
        cold_pool = cold_pool[~np.isin(cold_pool, active_ids)]

        producer_done = threading.Event()
        reader_batches = [0]

        def reader():
            offset = 0
            while not producer_done.is_set():
                batch = cold_pool[offset:offset + SLO_QUERY_BATCH]
                if len(batch) < SLO_QUERY_BATCH:
                    offset = 0
                    continue
                offset += SLO_QUERY_BATCH
                service.query([int(entity) for entity in batch])
                reader_batches[0] += 1
                time.sleep(0.002)

        reader_thread = threading.Thread(target=reader, daemon=True)
        stream_started = time.perf_counter()
        with AsyncIngestPipeline(
                service, max_pending_events=SLO_MAX_PENDING,
                on_full="block") as pipeline:
            reader_thread.start()
            try:
                for chunk in stream:
                    pipeline.submit(chunk)
                pipeline.drain()
            finally:
                producer_done.set()
                reader_thread.join()
            pipe_stats = pipeline.stats()
        stream_s = time.perf_counter() - stream_started

        # -- sync reference: the same stream through plain ingest().
        reference = build_service()
        reference.bulk_load(history)
        for chunk in stream:
            reference.ingest(chunk)
        reference.flush()

        # The async drain contract at scale: bit-identical state to the
        # synchronous service — same chunks, same order, same threshold
        # flushes (identity storage; nothing quantizes in between).
        sample = [int(entity) for entity in cold_pool[:4096]]
        for ids in (active_ids, sample):
            np.testing.assert_array_equal(service.store.embeddings(ids),
                                          reference.store.embeddings(ids))
        assert service.flush_batches == reference.flush_batches

        # The bounded queue actually pushed back (the producer enqueues
        # far faster than fused flushes drain), and the reader really
        # ran concurrently with ingest.
        assert pipe_stats["blocked_submits"] > 0
        assert pipe_stats["applied_chunks"] == len(stream)
        assert reader_batches[0] > 0

        latency = service.stats()["latency_ms"]
        assert set(latency) >= {"ingest", "flush", "query"}
        for op in ("ingest", "flush", "query"):
            assert latency[op]["count"] > 0
            assert latency[op]["p50"] <= latency[op]["p99"]

        update = {
            "latency_ms": latency,
            "slo": {
                "entities": SLO_ENTITIES,
                "active_entities": len(active_ids),
                "stream_chunks": len(stream),
                "stream_events": stream_events,
                "bulk_load_s": bulk_s,
                "stream_s": stream_s,
                "stream_events_per_sec": stream_events / stream_s,
                "reader_query_batches": reader_batches[0],
                "query_batch_entities": SLO_QUERY_BATCH,
                "max_pending_events": SLO_MAX_PENDING,
                "blocked_submits": pipe_stats["blocked_submits"],
            },
        }
        _record_serving(bench_record, update)

        table = ComparisonTable(
            "Million-entity serving latency (ms, live phase)",
            ["op", "count", "p50", "p95", "p99"],
        )
        for op in ("ingest", "flush", "query"):
            row = latency[op]
            table.add_row(op, "%d" % row["count"], "%.3f" % row["p50"],
                          "%.3f" % row["p95"], "%.3f" % row["p99"])
        table.print()
        return update

    results = run_once(experiment)
    # The SLO floor: concurrent cold-entity queries must stay in
    # single-digit-seconds territory even while million-entity state is
    # being streamed into — the committed p99 is gated (lower-is-better,
    # 30% budget) in CI; this assertion only catches order-of-magnitude
    # regressions on noisy runners.
    assert results["latency_ms"]["query"]["p99"] < 10_000.0
