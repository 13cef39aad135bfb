"""Production deployment pipeline: the ETL pattern of Section 4.3.1.

Shows the serving properties the paper engineered for scale (90M+ cards):

1. **Fused bulk embedding** — day-0 embeddings run through the graph-free
   :mod:`repro.runtime` kernels with a length-sorted batch plan instead
   of the training-time autograd machinery.
2. **Incremental inference** — when new transactions arrive, the GRU
   state c_t is advanced from where it stopped instead of re-reading the
   whole history.  We verify the refreshed embedding equals a full
   recompute bit-for-bit.
3. **Save/load** — the :class:`~repro.runtime.EmbeddingStore` persists
   per-entity states between ETL runs as a portable state bundle, so a
   restarted worker resumes streaming without recomputation.
4. **uint4 quantization** — embeddings compress 8x (a 256-dim float32
   vector: 1KB -> 128 bytes) with bounded reconstruction error.
5. **Out-of-core state** — the same bundle loads into an on-disk
   :class:`~repro.runtime.StateBackend` with the ``int8`` state codec:
   states page through disk-backed shards at a fraction of the in-RAM
   footprint, within a documented drift bound.
6. **Online serving** — an :class:`~repro.serving.EmbeddingService`
   (sharded state, micro-batched ingestion, LRU cache) replays an
   interleaved event log and serves query traffic that always matches a
   full recompute.

Run:  python examples/deployment_pipeline.py
"""

import os
import tempfile
import time

import numpy as np

from repro import CoLES
from repro.core import (
    embed_dataset,
    pack_uint4,
    quantize_embeddings,
    unpack_uint4,
)
from repro.core.inference import serve
from repro.data.sequences import SequenceDataset
from repro.data.synthetic import make_retail_customers_dataset
from repro.runtime import EmbeddingStore, StateBackend
from repro.serving import build_event_log, replay_event_log


def main():
    clients = make_retail_customers_dataset(num_clients=120, seed=11)
    print(clients.summary())

    model = CoLES(clients.schema, hidden_size=32, min_length=5,
                  max_length=120, seed=0)
    model.fit(clients, num_epochs=3, batch_size=16, learning_rate=0.01)
    encoder = model.encoder

    # ------------------------------------------------------------------
    # Day 0: bulk-embed every client's history through the fused runtime.
    # The store records each client's final GRU state alongside the
    # embedding, ready for incremental refresh.
    # ------------------------------------------------------------------
    split = {seq.seq_id: int(0.8 * len(seq)) for seq in clients}
    history = SequenceDataset(
        [seq.slice(0, split[seq.seq_id]) for seq in clients],
        clients.schema, name="day0",
    )
    store = EmbeddingStore(encoder)
    started = time.perf_counter()
    day0 = store.bulk_load(history)
    print("day-0 bulk embed of %d clients in %.1f ms (fused runtime, "
          "length-bucketed plan)"
          % (len(clients), (time.perf_counter() - started) * 1000))
    print("day-0 embeddings:", day0.shape)

    # ------------------------------------------------------------------
    # Overnight: persist the store; a fresh worker picks it up.  save()
    # writes a manifest-driven state bundle (mmap-loadable .npy blocks)
    # that a store in RAM or on disk, with any codec, can load.
    # ------------------------------------------------------------------
    bundle_dir = os.path.join(tempfile.mkdtemp(), "store_state")
    store.save(bundle_dir)
    worker = EmbeddingStore(encoder).load(bundle_dir)
    print("save/load: %d entities carried over" % len(worker))

    # ------------------------------------------------------------------
    # Day 1: each client produced a handful of new transactions.  The
    # restored store folds them into the saved GRU states.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    for seq in clients:  # stream in the "new" tail events
        worker.update(seq.seq_id, seq.slice(split[seq.seq_id], len(seq)),
                      clients.schema)
    elapsed = time.perf_counter() - started

    refreshed = np.stack([worker.embedding(seq.seq_id) for seq in clients])
    full = embed_dataset(encoder, clients)  # full recompute, fused path
    np.testing.assert_allclose(refreshed, full, rtol=1e-8)
    new_events = sum(len(seq) - split[seq.seq_id] for seq in clients)
    print("incremental refresh of %d clients (%d new events) in %.1f ms — "
          "embeddings match full recompute exactly"
          % (len(clients), new_events, elapsed * 1000))

    # ------------------------------------------------------------------
    # Storage: quantize to 16 levels and pack two codes per byte.
    # ------------------------------------------------------------------
    quantized = quantize_embeddings(full, levels=16)
    packed = pack_uint4(quantized.codes)
    raw_bytes = full.shape[0] * full.shape[1] * 4
    print("quantization: %d bytes -> %d bytes (%.1fx)"
          % (raw_bytes, quantized.packed_bytes(),
             raw_bytes / quantized.packed_bytes()))

    recovered_codes = unpack_uint4(packed, width=full.shape[1])
    np.testing.assert_array_equal(recovered_codes, quantized.codes)
    error = np.abs(quantized.dequantize() - full).max()
    print("max reconstruction error per coordinate: %.4f" % error)

    # ------------------------------------------------------------------
    # Out-of-core state: the same bundle loads into a memory-mapped
    # backend with the int8 state codec — states page through small
    # disk-backed shards instead of living in RAM, and the day-1 stream
    # folds in within the codec's drift bound.
    # ------------------------------------------------------------------
    ooc = EmbeddingStore(
        encoder, codec="int8",
        # Tiny shards + a 2-shard LRU so even 120 clients page through
        # disk (production would keep the 1024-row default).
        backend=StateBackend(
            os.path.join(tempfile.mkdtemp(), "ooc_state"),
            shard_capacity=16, cache_shards=2))
    ooc.load(bundle_dir)
    for seq in clients:
        ooc.update(seq.seq_id, seq.slice(split[seq.seq_id], len(seq)),
                   clients.schema)
    drift = np.abs(np.stack([ooc.embedding(seq.seq_id)
                             for seq in clients]) - full).max()
    print("out-of-core store (on-disk shards + int8 codec): %.0f bytes "
          "per entity at rest vs %.0f for the in-RAM identity store "
          "(%.1fx smaller), %d shard evictions, max drift %.2e"
          % (ooc.bytes_per_entity(), store.bytes_per_entity(),
             store.bytes_per_entity() / ooc.bytes_per_entity(),
             ooc.backend.stats()["evictions"], drift))

    # ------------------------------------------------------------------
    # Online serving: stand the embedding service up on day-0 history,
    # replay the day-1 stream as interleaved per-client arrivals with
    # read-your-writes query traffic, and verify the served embeddings.
    # ------------------------------------------------------------------
    service = serve(encoder, dataset=history, num_shards=4,
                    flush_events=128, cache_capacity=256)
    tails = SequenceDataset(
        [seq.slice(split[seq.seq_id], len(seq)) for seq in clients],
        clients.schema, name="day1-stream",
    )
    log = build_event_log(tails, chunk_events=4, seed=7)
    started = time.perf_counter()
    replay_event_log(service, log, query_every=5)
    elapsed = time.perf_counter() - started
    ids = [seq.seq_id for seq in clients]
    served = service.query(ids)
    service.query(ids)  # repeat read: served from the hot cache
    np.testing.assert_allclose(served, full, atol=1e-10)
    stats = service.stats()
    print("online service: %d chunks / %d events replayed in %.1f ms "
          "(%d micro-batch flushes) — serving matches full recompute"
          % (stats["chunks_ingested"], stats["events_ingested"],
             elapsed * 1000, stats["flushes"]))
    print("  shard sizes: %s" % stats["shard_sizes"])
    print("  cache: %.0f%% hit rate, %d invalidations"
          % (100 * stats["cache"]["hit_rate"],
             stats["cache"]["invalidations"]))

    service_dir = os.path.join(tempfile.mkdtemp(), "service-shards")
    service.save(service_dir)
    standby = serve(encoder, schema=clients.schema, num_shards=4)
    standby.load(service_dir)
    np.testing.assert_array_equal(standby.query(ids), service.query(ids))
    print("  sharded save -> standby worker: %d entities across %d "
          "shard bundles" % (len(standby.store), standby.store.num_shards))


if __name__ == "__main__":
    main()
