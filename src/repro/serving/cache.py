"""LRU cache of hot embeddings with staleness invalidation.

Production read traffic is heavily skewed: a small set of active entities
absorbs most queries.  :class:`EmbeddingCache` keeps their *head* outputs
(the post-normalisation embeddings) so repeat queries skip the store
entirely; ingestion invalidates an entity's entry the moment its state
advances, so a hit is always fresh.  Entries are frozen read-only copies
and every method is thread-safe, so the cache can sit between concurrent
query threads and a background ingest flusher.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["EmbeddingCache"]


class EmbeddingCache:
    """Bounded LRU mapping entity id -> embedding vector.

    ``capacity=0`` disables caching (every ``get`` misses, ``put`` is a
    no-op) — the service keeps one code path either way.  All methods
    take one internal lock, so concurrent readers and a writer never
    tear the LRU order or the counters.
    """

    def __init__(self, capacity=1024):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, entity_id):
        return entity_id in self._entries

    def get(self, entity_id):
        """The cached ``(d,)`` embedding, or None on a miss.

        The returned array is **read-only** (``writeable=False``): it is
        the cache's own stored copy, handed out without copying on every
        hit, so an accidental caller mutation raises instead of silently
        corrupting all later hits.  Callers that need a writable vector
        copy it.
        """
        with self._lock:
            entry = self._entries.get(entity_id)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(entity_id)
            self.hits += 1
            return entry

    def put(self, entity_id, embedding):
        """Insert/refresh an entry, evicting the least recently used.

        ``embedding`` is the entity's ``(d,)`` vector; the cache keeps a
        private copy in the embedding's own (policy) dtype, frozen
        read-only because :meth:`get` hands the same array to every hit.
        """
        if self.capacity == 0:
            return
        # reprolint: disable=RP001 -- defensive copy preserves the
        # embedding's policy dtype by construction.
        entry = np.array(embedding, copy=True)
        entry.flags.writeable = False
        with self._lock:
            if entity_id in self._entries:
                self._entries.move_to_end(entity_id)
            self._entries[entity_id] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, entity_ids):
        """Drop entries whose state advanced; returns how many were live."""
        dropped = 0
        with self._lock:
            if not self._entries:  # e.g. a day-0 bulk load: nothing to drop
                return 0
            for entity_id in entity_ids:
                if self._entries.pop(entity_id, None) is not None:
                    dropped += 1
            self.invalidations += dropped
        return dropped

    def clear(self):
        """Drop every entry (counters are kept — they describe lifetime)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self):
        """Lifetime fraction of lookups served from cache (0.0 when idle)."""
        lookups = self.hits + self.misses
        return 0.0 if lookups == 0 else self.hits / lookups

    def stats(self):
        """Counters snapshot: size/capacity, hits, misses, evictions, ..."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
