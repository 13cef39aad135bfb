"""The online embedding service: ingest -> flush -> query.

:class:`EmbeddingService` is the deployment-facing facade over the
serving stack:

- **ingest(events)** buffers per-entity event chunks in a
  :class:`~repro.serving.MicroBatcher`, auto-flushing once enough events
  accumulate;
- **flush()** drains the buffer through
  :func:`~repro.runtime.advance_entities` (length-bucketed fused
  batches over the sharded store's state) and invalidates the affected
  cache entries;
- **query(entity_ids)** serves embeddings through an LRU
  :class:`~repro.serving.EmbeddingCache`, flushing first whenever a
  requested entity has buffered events so a read is never stale;
- **save(dir)/load(dir)** persist the sharded state between workers.

Where state lives is a construction knob: ``backend_dir=...`` pages
per-shard states from disk instead of RAM, and
``codec="int8"``/``"uint4"``/``"float16"`` compresses them at rest —
see :mod:`repro.runtime.backends`.

The service is **thread-safe**: one lock guards the buffer, store, cache
and counters, which is what lets the
:class:`~repro.serving.AsyncIngestPipeline` apply chunks from its
background flusher thread while producers keep submitting and readers
keep querying.  A flush holds that lock only to drain the buffer and to
publish its result; the fused compute in between runs with the lock
released, one flush at a time.  A query holds the lock for its own
buffer checks, cache lookups and one store gather, and waits only when
one of its own entities is buffered or in the flush that is computing.
Every operation records its wall-clock latency into a
:class:`~repro.serving.LatencyRecorder` (ops ``ingest`` / ``flush`` /
``query``, plus ``lock_wait``: how long each query waited before it
could read), surfaced as the ``latency_ms`` subtree of :meth:`stats`.

Embeddings served this way match a cold
:meth:`~repro.runtime.FusedEncoderRuntime.embed_dataset` recompute of the
full history to < 1e-10 — asserted by ``tests/serving/``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..data.sequences import EventSequence
from ..runtime.store import advance_entities
from .cache import EmbeddingCache
from .microbatch import MicroBatcher, chunk_size
from .sharding import ShardedEmbeddingStore
from .telemetry import LatencyRecorder

__all__ = ["EmbeddingService"]


class EmbeddingService:
    """Sharded, micro-batched, cached online embedding serving.

    Parameters
    ----------
    encoder:
        A trained recurrent encoder (or a
        :class:`~repro.runtime.FusedEncoderRuntime`).
    schema:
        The :class:`~repro.data.EventSchema` incoming event chunks follow.
    num_shards:
        State partitions of the underlying
        :class:`~repro.serving.ShardedEmbeddingStore`.
    cache_capacity:
        Hot-embedding LRU size (0 disables caching).
    flush_events:
        Buffered-event threshold that triggers an automatic flush.
    batch_size:
        Rows per flush batch; bulk-load batches take at least this many
        rows, and more for sequences shorter than
        :data:`~repro.data.bucketing.BUDGET_STEPS` steps.
    precision:
        Dtype policy of the underlying fused runtime (None: the runtime
        default, float32).
    workers:
        Bucket-parallel worker count for flushes and bulk loads (None:
        the runtime default, serial; any value is bit-identical).
    backend:
        A one-arg factory ``index -> StateBackend`` forwarded to the
        sharded store (for example with small shards); None builds each
        shard's backend from ``backend_dir``.
    codec:
        At-rest :class:`~repro.runtime.StateCodec` (``"identity"``/None,
        ``"float16"``, ``"int8"``, ``"uint4"``); applies to shard files
        and state bundles, orthogonal to ``precision``.
    backend_dir:
        Where states live: None keeps them in RAM, a path keeps them in
        memory-mapped per-shard files under it (out-of-core).
    """

    def __init__(self, encoder, schema, num_shards=8, cache_capacity=1024,
                 flush_events=256, batch_size=64, precision=None,
                 workers=None, backend=None, codec=None, backend_dir=None):
        self.store = ShardedEmbeddingStore(encoder, num_shards=num_shards,
                                           precision=precision,
                                           workers=workers, backend=backend,
                                           codec=codec,
                                           backend_dir=backend_dir)
        self.schema = schema
        self.batch_size = int(batch_size)
        self.cache = EmbeddingCache(cache_capacity)
        # Entity id -> end time of its chunk in the flush that is
        # computing.  Until that flush publishes, the append-only check
        # reads an in-flight entity's end time from here, not the store.
        self._inflight = inflight = {}
        store = self.store

        def last_time_of(entity_id):
            # A closure, not a bound method: the batcher must not hold the
            # service, or each service lives until the cyclic collector.
            end = inflight.get(entity_id)
            return store.last_time(entity_id) if end is None else end

        self.batcher = MicroBatcher(flush_events=flush_events,
                                    time_field=schema.time_field,
                                    last_time_of=last_time_of)
        self.latency = LatencyRecorder()
        # One lock guards the batcher, store, cache, counters and the
        # in-flight map; no method re-enters it.  A flush releases it
        # while its fused kernels compute and notifies ``_published``
        # once its states are in the store.
        self._lock = threading.Lock()
        self._published = threading.Condition(self._lock)
        self.events_ingested = 0
        self.chunks_ingested = 0
        self.flushes = 0
        self.flush_batches = 0
        self.queries = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def bulk_load(self, dataset, batch_size=None):
        """Warm the store from a whole history dataset (day-0 ETL).

        Batches follow the cell-budget bulk plan: at least ``batch_size``
        (default: the service's) rows each, wider for short histories.
        Refuses while updates are buffered, like :meth:`load`: the next
        flush would apply them on top of states that already hold them.
        """
        with self._lock:
            self._refuse_pending("bulk-load")
            embeddings = self.store.bulk_load(
                dataset, batch_size=batch_size or self.batch_size
            )
            self.cache.invalidate(dataset.ids)
        return embeddings

    def ingest(self, events):
        """Buffer new events; flushes automatically past ``flush_events``.

        ``events`` is one :class:`~repro.data.EventSequence` chunk or an
        iterable of them.  Returns the number of events accepted.
        """
        chunks = [events] if isinstance(events, EventSequence) else events
        accepted = 0
        record, clock = self.latency.record, time.perf_counter
        for chunk in chunks:
            # Counters advance per accepted chunk so a rejected chunk
            # mid-iterable leaves telemetry consistent with the buffer;
            # the threshold check runs per chunk too, keeping the buffer
            # bounded even when one call ingests a whole stream.  A
            # chunk that raises still records its sample.
            start = clock()
            try:
                accepted += self._apply_chunk(chunk, chunk_size(chunk))
            finally:
                record("ingest", clock() - start)
        return accepted

    def _apply_chunk(self, chunk, size):
        """Buffer one ``size``-event chunk, auto-flushing past the threshold.

        The single write entry point shared by synchronous
        :meth:`ingest` and the
        :class:`~repro.serving.AsyncIngestPipeline` flusher thread —
        both replay the exact same ``batcher.add`` / threshold-flush
        sequence, which is what makes a drained async ingest
        bit-identical to the synchronous path.  The caller sized the
        chunk where it entered.  Returns ``size``.
        """
        with self._lock:
            self.batcher.add(chunk, size)
            self.chunks_ingested += 1
            self.events_ingested += size
            if self.batcher.should_flush:
                self._flush_locked()
        return size

    def flush(self, entity_ids=None):
        """Apply buffered updates as fused micro-batches.

        ``entity_ids=None`` flushes everything; passing ids flushes only
        those entities' chunks and leaves the rest buffered.  Returns the
        ids whose embeddings changed.  Their cache entries are
        invalidated, so the next query recomputes from the fresh state.
        """
        with self._lock:
            return self._flush_locked(entity_ids)

    def _flush_locked(self, entity_ids=None):
        """The flush body: entered and left holding the lock.

        Waits until no other flush is in flight, drains the buffer and
        marks the drained entities in flight, then releases the lock
        while :func:`~repro.runtime.advance_entities` computes.  The
        state gather and the publish (store scatter plus cache
        invalidation, one step) each take the lock again.
        """
        self._published.wait_for(lambda: not self._inflight)
        pending = self.batcher.drain(entity_ids)
        if not pending:
            return []
        time_field = self.schema.time_field
        for seq in pending:
            self._inflight[seq.seq_id] = float(seq.fields[time_field][-1])
        self._lock.release()
        try:
            with self.latency.time("flush"):
                result = advance_entities(self.store.runtime, pending,
                                          self.schema, self._gather,
                                          self._publish,
                                          batch_size=self.batch_size)
        finally:
            self._lock.acquire()
            self._inflight.clear()
            self._published.notify_all()
        self.flushes += 1
        # The real fused batch count, straight from the bucketed plan —
        # not re-derived as ceil(pending / batch_size) here.
        self.flush_batches += result.batches
        return [seq.seq_id for seq in pending]

    def _gather(self, entity_ids):
        """The flush's state source: a store gather under the lock."""
        with self._lock:
            return self.store.gather(entity_ids)

    def _publish(self, entity_ids, hidden, cell, last_times):
        """The flush's state sink: scatter ``(N, H)`` states, invalidate.

        ``hidden`` (``cell`` for LSTM) and the ``(N,)`` ``last_times``
        go to the store, and the ids' cache entries are dropped, under
        one lock hold: no reader sees the new state with an old cache
        entry, or the reverse.
        """
        with self._lock:
            self.store.scatter(entity_ids, hidden, cell, last_times)
            self.cache.invalidate(entity_ids)

    def _refuse_pending(self, action):
        """Wait out any in-flight flush, then refuse if events are buffered.

        The caller holds the lock; ``action`` names it in the error.
        """
        self._published.wait_for(lambda: not self._inflight)
        if self.batcher.pending_events:
            raise RuntimeError(
                "cannot %s with %d buffered events pending: call flush() "
                "first" % (action, self.batcher.pending_events)
            )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def query(self, entity_ids):
        """Current embeddings ``(N, d)`` for ``entity_ids``, never stale.

        A requested entity with buffered events gets those events flushed
        first (only the requested entities' chunks — the rest of the
        buffer keeps accumulating toward full micro-batches), and a
        requested entity in a flush that is computing is waited for;
        the read then reflects every event applied or buffered for
        those entities.  Remaining lookups go through the LRU cache,
        and misses are computed from the sharded store in one batch.
        ``entity_ids`` may repeat — each occurrence gets its own output
        row.  The wait until the read can start is recorded as op
        ``lock_wait``.
        """
        entity_ids = list(entity_ids)
        entered = time.perf_counter()
        try:
            with self._lock:
                self.queries += len(entity_ids)
                while True:
                    stale = [entity_id for entity_id in entity_ids
                             if self.batcher.has_pending(entity_id)]
                    if stale:
                        self._flush_locked(stale)
                    elif any(entity_id in self._inflight
                             for entity_id in entity_ids):
                        self._published.wait()
                    else:
                        break
                self.latency.record("lock_wait",
                                    time.perf_counter() - entered)
                out = np.zeros(
                    (len(entity_ids), self.store.runtime.output_dim),
                    dtype=self.store.runtime.dtype)
                missing_rows, missing_ids = [], []
                for row, entity_id in enumerate(entity_ids):
                    cached = self.cache.get(entity_id)
                    if cached is None:
                        missing_rows.append(row)
                        missing_ids.append(entity_id)
                    else:
                        out[row] = cached
                if missing_ids:
                    fresh = self.store.embeddings(missing_ids)
                    for row, entity_id, embedding in zip(missing_rows,
                                                         missing_ids, fresh):
                        out[row] = embedding
                        self.cache.put(entity_id, embedding)
        finally:
            self.latency.record("query", time.perf_counter() - entered)
        return out

    def query_one(self, entity_id):
        """Convenience scalar query: the ``(d,)`` embedding of one entity."""
        return self.query([entity_id])[0]

    def known_entities(self):
        """All entity ids with applied (flushed) state, globally sorted."""
        with self._lock:
            return self.store.known_entities()

    def __contains__(self, entity_id):
        with self._lock:
            return (entity_id in self.store
                    or entity_id in self._inflight
                    or self.batcher.has_pending(entity_id))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory):
        """Flush pending updates, then write the sharded state bundle."""
        with self._lock:
            self._flush_locked()
            self.store.save(directory)

    def load(self, directory):
        """Replace all serving state with a saved bundle; returns self.

        Waits out any in-flight flush, then refuses while updates are
        buffered — flush (or discard the service) first, restoring under
        pending events would silently apply them to state that is about
        to be replaced.
        """
        with self._lock:
            self._refuse_pending("restore")
            self.store.load(directory)
            self.cache.clear()
        return self

    # ------------------------------------------------------------------
    def stats(self):
        """Serving telemetry: counters, latency, cache, shard balance.

        ``latency_ms`` holds per-operation percentile summaries
        (``{op: {count, mean, p50, p95, p99, max}}`` — milliseconds) for
        ``ingest`` / ``flush`` / ``query`` / ``lock_wait``, from the
        service's :class:`~repro.serving.LatencyRecorder`.
        """
        with self._lock:
            return {
                "entities": len(self.store),
                "events_ingested": self.events_ingested,
                "chunks_ingested": self.chunks_ingested,
                "pending_events": self.batcher.pending_events,
                "flushes": self.flushes,
                "flush_batches": self.flush_batches,
                "queries": self.queries,
                "latency_ms": self.latency.summary(),
                "cache": self.cache.stats(),
                "shard_sizes": self.store.shard_sizes(),
                "bytes_per_entity": self.store.bytes_per_entity(),
            }
