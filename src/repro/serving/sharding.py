"""Hash-partitioned embedding state: many shards, one runtime.

A single flat :class:`~repro.runtime.EmbeddingStore` dict stops scaling
long before the paper's 90M-card population: snapshots become one giant
file, and there is no unit of state that can be moved, restored, or owned
independently.  :class:`ShardedEmbeddingStore` splits the per-entity state
across ``num_shards`` stores by a stable hash of the entity id.  Every
shard shares the same :class:`~repro.runtime.FusedEncoderRuntime` (weights
are process-wide), so compute stays globally batched — only *state* is
partitioned:

- routing is deterministic across processes (CRC32 of the id's repr, not
  Python's salted ``hash``), so a snapshot written by one worker restores
  into any other;
- each routing shard owns its own :class:`~repro.runtime.StateBackend`
  (in RAM by default; ``backend_dir`` pages each shard's states from its
  own directory under it) and encodes at rest through a shared
  :class:`~repro.runtime.StateCodec`;
- state bundles are one sub-directory per shard plus a JSON manifest
  (:meth:`~ShardedEmbeddingStore.save` / :meth:`~ShardedEmbeddingStore.load`);
- bulk loads, micro-batched updates and embedding reads batch *across*
  shards — the fused kernels see the global length-bucketed plan, and
  :meth:`~ShardedEmbeddingStore.gather` /
  :meth:`~ShardedEmbeddingStore.scatter` route a whole id list in one
  pass (:func:`route_entities`), group it with one stable argsort and
  make one backend call per routing shard.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from ..runtime import EmbeddingStore, FusedEncoderRuntime
from ..runtime.backends import StateBackend
from ..runtime.store import advance_entities, bulk_load_states

__all__ = ["ShardedEmbeddingStore", "route_entity", "route_entities"]

_MANIFEST = "manifest.json"

#: Format tag of the sharded state bundle manifest.
SHARDED_FORMAT = "repro-sharded-state-v1"


def route_entity(entity_id, num_shards):
    """Deterministic shard index of an entity — stable across processes.

    Ids that compare equal as dict keys must route identically, so
    integer-like ids (``np.int64(5)``, ``5``) are canonicalised before
    hashing — a snapshot bulk-loaded under numpy ids stays reachable to
    plain-int queries.
    """
    if isinstance(entity_id, (bool, int, np.bool_, np.integer)):
        key = str(int(entity_id))
    elif isinstance(entity_id, (float, np.floating)):
        value = float(entity_id)
        key = str(int(value)) if value.is_integer() else repr(value)
    elif isinstance(entity_id, str):
        key = entity_id
    else:
        key = repr(entity_id)
    return zlib.crc32(key.encode("utf-8")) % num_shards


def route_entities(entity_ids, num_shards):
    """:func:`route_entity` of every id, as an ``(N,)`` int64 array.

    One pass: plain ``int`` ids hash inline (their canonical key is
    ``str(id)``), every other type goes through :func:`route_entity`.
    """
    crc = zlib.crc32
    return np.array([crc(str(e).encode()) % num_shards if type(e) is int
                     else route_entity(e, num_shards) for e in entity_ids],
                    dtype=np.int64)


def _shard_backends(backend, backend_dir, num_shards):
    """One :class:`StateBackend` per routing shard.

    ``backend`` is None (one backend per shard: in RAM, or in directory
    ``state_%04d`` under ``backend_dir`` when given) or a one-arg factory
    ``index -> StateBackend``.  A single shared instance is rejected:
    shards own disjoint state and cannot alias one backend.
    """
    if backend is None:
        return [StateBackend(None if backend_dir is None
                             else os.path.join(str(backend_dir),
                                               "state_%04d" % index))
                for index in range(num_shards)]
    if isinstance(backend, StateBackend):
        raise ValueError(
            "a sharded store needs one backend per shard — pass a factory "
            "callable (index -> StateBackend) instead of a single instance"
        )
    if not callable(backend):
        raise TypeError("backend must be a factory index -> StateBackend "
                        "(got %s)" % type(backend).__name__)
    if backend_dir is not None:
        raise ValueError("backend_dir conflicts with a backend factory — "
                         "the factory chooses each shard's directory")
    backends = [backend(index) for index in range(num_shards)]
    for candidate in backends:
        if not isinstance(candidate, StateBackend):
            raise TypeError("backend factory must return a StateBackend")
    if len(set(map(id, backends))) != num_shards:
        raise ValueError("backend factory returned the same instance "
                         "for multiple shards")
    return backends


class ShardedEmbeddingStore:
    """Entity states hash-partitioned over ``num_shards`` embedding stores.

    Mirrors the :class:`~repro.runtime.EmbeddingStore` API (membership,
    ``embedding``/``embeddings``, ``bulk_load``, ``update``,
    ``update_many``, ``save``/``load``) so callers can swap a flat store
    for a sharded one without code changes.

    Parameters
    ----------
    encoder:
        A trained recurrent encoder or an existing
        :class:`~repro.runtime.FusedEncoderRuntime`.
    num_shards:
        Routing partitions (fixed for the store's lifetime — routing is
        a function of the count).
    precision, workers:
        Runtime policy knobs, as on :class:`~repro.runtime.EmbeddingStore`.
    backend:
        A one-arg factory ``index -> StateBackend`` building each shard's
        backend (for example with small shards); None builds them from
        ``backend_dir``.
    codec:
        At-rest :class:`~repro.runtime.StateCodec` shared by all shards.
    backend_dir:
        Where states live: None keeps them in RAM, a path keeps each
        shard's states in memory-mapped files under ``state_%04d/``.
    """

    def __init__(self, encoder, num_shards=8, precision=None, workers=None,
                 backend=None, codec=None, backend_dir=None):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.runtime = FusedEncoderRuntime.of(encoder, precision, workers)
        self.num_shards = int(num_shards)
        self.shards = [
            EmbeddingStore(self.runtime, backend=shard_backend, codec=codec)
            for shard_backend in _shard_backends(backend, backend_dir,
                                                 self.num_shards)
        ]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, entity_id):
        """Index of the shard owning ``entity_id``."""
        return route_entity(entity_id, self.num_shards)

    def shard_for(self, entity_id):
        """The :class:`EmbeddingStore` owning ``entity_id``."""
        return self.shards[self.shard_of(entity_id)]

    def shard_sizes(self):
        """Entities per shard — balance telemetry."""
        return [len(shard) for shard in self.shards]

    def backend_stats(self):
        """Per-shard backend telemetry (entities, LRU counters, ...)."""
        return [shard.backend.stats() for shard in self.shards]

    def bytes_per_entity(self):
        """At-rest bytes per entity (all shards share codec + layout)."""
        return self.shards[0].bytes_per_entity()

    # ------------------------------------------------------------------
    # introspection (the flat-store API, routed)
    # ------------------------------------------------------------------
    def __len__(self):
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, entity_id):
        return entity_id in self.shard_for(entity_id)

    def known_entities(self):
        """All entity ids across shards, globally sorted."""
        merged = []
        for shard in self.shards:
            merged.extend(shard.known_entities())
        return sorted(merged)

    def last_time(self, entity_id):
        """Timestamp of the entity's most recent folded event (or None)."""
        return self.shard_for(entity_id).last_time(entity_id)

    def state_of(self, entity_id):
        """``(hidden, cell, last_time)`` from the owning shard, else None."""
        return self.shard_for(entity_id).state_of(entity_id)

    def _by_shard(self, entity_ids):
        """``(shard, positions)`` per routing shard, positions ascending."""
        routes = route_entities(entity_ids, self.num_shards)
        order = np.argsort(routes, kind="stable")
        routes = routes[order]
        cuts = (routes[1:] != routes[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), len(order)]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if stop > start:
                yield int(routes[start]), order[start:stop]

    def gather(self, entity_ids):
        """Batch state read across shards: ``(hidden, cell, last_times, known)``.

        The :meth:`~repro.runtime.StateBackend.gather` contract — fresh
        ``(N, H)`` state arrays (``cell`` None unless LSTM), ``(N,)``
        float64 last-event times and an ``(N,)`` bool mask of stored ids,
        row-aligned with ``entity_ids`` — with one backend call per
        routing shard.
        """
        count = len(entity_ids)
        hidden = np.empty((count, self.runtime.output_dim),
                          dtype=self.runtime.dtype)
        cell = np.empty_like(hidden) if self.runtime.is_lstm else None
        last_times = np.empty(count, dtype=np.float64)
        known = np.empty(count, dtype=bool)
        for shard, positions in self._by_shard(entity_ids):
            part = self.shards[shard].backend.gather(
                [entity_ids[i] for i in positions.tolist()])
            for out, values in zip((hidden, cell, last_times, known), part):
                if out is not None:
                    out[positions] = values
        return hidden, cell, last_times, known

    def scatter(self, entity_ids, hidden, cell, last_times):
        """Batch state write across shards, as sequential puts would.

        The :meth:`~repro.runtime.StateBackend.scatter` contract:
        ``(N, H)`` ``hidden`` (and ``cell`` for LSTM) arrays and ``(N,)``
        ``last_times``, row-aligned with ``entity_ids``.  Each routing
        shard receives its ids in input order, in one backend call.
        """
        last_times = np.asarray(last_times, dtype=np.float64)
        for shard, positions in self._by_shard(entity_ids):
            self.shards[shard].backend.scatter(
                [entity_ids[i] for i in positions.tolist()],
                hidden[positions], None if cell is None else cell[positions],
                last_times[positions])

    def put_state(self, entity_id, hidden, cell=None, last_time=None):
        """Record an entity's recurrent state on its owning shard.

        ``hidden`` (and ``cell`` for LSTM runtimes) are ``(H,)`` buffers,
        copied into the owning shard's policy dtype on the way in.
        """
        self.shard_for(entity_id).put_state(entity_id, hidden, cell=cell,
                                            last_time=last_time)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def embedding(self, entity_id):
        """Current embedding of one entity, ``(d,)``, shard-routed."""
        return self.shard_for(entity_id).embedding(entity_id)

    def embeddings(self, entity_ids=None):
        """Embedding matrix for ``entity_ids`` (default: all, sorted)."""
        if entity_ids is None:
            entity_ids = self.known_entities()
        hidden, _, _, known = self.gather(entity_ids)
        if not known.all():
            raise KeyError("unknown entity %r"
                           % entity_ids[int(np.argmin(known))])
        return self.runtime.head(hidden)

    # ------------------------------------------------------------------
    # writes: globally batched compute, shard-scattered state
    # ------------------------------------------------------------------
    def bulk_load(self, dataset, batch_size=64, workers=None):
        """Embed a whole dataset; states scatter to their owning shards.

        Batches follow the cell-budget bulk plan of
        :func:`~repro.runtime.bulk_load_states`: at least ``batch_size``
        rows each, more for short sequences.
        """
        return bulk_load_states(self.runtime, dataset, self.scatter,
                                batch_size=batch_size, workers=workers)

    def update(self, entity_id, events, schema):
        """Per-entity incremental refresh, routed to the owning shard."""
        return self.shard_for(entity_id).update(entity_id, events, schema)

    def update_many(self, sequences, schema, batch_size=64, workers=None):
        """Micro-batched advance across shards.

        Entities from different shards share fused batches (the plan is
        global); only the state gather/scatter routes per shard.  Returns
        the refreshed ``(N, d)`` embeddings in input order; callers that
        need the fused batch count call
        :func:`~repro.runtime.advance_entities` directly.
        """
        return advance_entities(self.runtime, sequences, schema,
                                self.gather, self.scatter,
                                batch_size=batch_size,
                                workers=workers).embeddings

    # ------------------------------------------------------------------
    # persistence: one state bundle per shard + a JSON manifest
    # ------------------------------------------------------------------
    def _shard_dir(self, directory, index):
        return os.path.join(str(directory), "shard_%04d" % index)

    def flush(self):
        """Make every shard backend's pending writes durable."""
        for shard in self.shards:
            shard.flush()

    def save(self, directory):
        """Write every shard's state bundle under ``directory``.

        Layout: ``manifest.json`` (format tag, shard count, state kind)
        plus one ``shard_%04d/`` bundle directory per routing shard —
        each of those is a flat-store bundle, so individual shards can be
        moved or loaded independently.
        """
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        manifest = {"format": SHARDED_FORMAT, "num_shards": self.num_shards,
                    "kind": self.runtime.state_kind}
        with open(os.path.join(directory, _MANIFEST), "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for index, shard in enumerate(self.shards):
            shard.save(self._shard_dir(directory, index))

    def load(self, directory):
        """Load a sharded bundle written by :meth:`save`; returns self.

        The bundle's shard count must match this store's — routing is a
        function of ``num_shards``, so loading across a reshard would
        silently misroute every lookup.
        """
        manifest_path = os.path.join(str(directory), _MANIFEST)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(
                "no sharded snapshot manifest at %r" % manifest_path
            )
        with open(manifest_path) as handle:
            snapshot_shards = int(json.load(handle)["num_shards"])
        if snapshot_shards != self.num_shards:
            raise ValueError(
                "snapshot holds %d shards but this store routes over %d; "
                "construct the store with num_shards=%d to restore it"
                % (snapshot_shards, self.num_shards, snapshot_shards)
            )
        for index, shard in enumerate(self.shards):
            shard.load(self._shard_dir(directory, index))
        return self
