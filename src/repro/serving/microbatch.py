"""Micro-batched ingestion: buffer per-entity updates, flush fused batches.

One-entity-at-a-time :meth:`~repro.runtime.EmbeddingStore.update` calls
pay the full per-call overhead (collate, weight export, kernel launch) for
a handful of events.  The :class:`MicroBatcher` absorbs incoming event
chunks instead: chunks accumulate per entity (and coalesce in arrival
order), and a flush drains the whole buffer through
:func:`repro.runtime.advance_entities` — length-bucketed fused batches,
one kernel call per ~``batch_size`` entities.
"""

from __future__ import annotations

import numpy as np

from ..data.sequences import EventSequence

__all__ = ["MicroBatcher", "coalesce_chunks"]


def coalesce_chunks(chunks):
    """Merge an entity's buffered chunks into one ordered event chunk.

    Chunk boundaries must be time-ordered (a later chunk may not start
    before the previous one ended) — the same append-only contract the
    incremental store relies on.

    The merged label is the latest **non-None** label among the chunks
    (a label arriving mid-stream annotates the whole entity, it is not
    dropped just because the first buffered chunk predates it).  Two
    *different* non-None labels are a hard conflict — there is no
    defensible winner for a single entity — and raise ``ValueError``.
    """
    if len(chunks) == 1:
        return chunks[0]
    first = chunks[0]
    label = None
    for chunk in chunks:
        if chunk.label is None:
            continue
        if label is not None and chunk.label != label:
            raise ValueError(
                "conflicting labels for entity %r in one buffer: %r vs %r"
                % (first.seq_id, label, chunk.label)
            )
        label = chunk.label
    return EventSequence(
        seq_id=first.seq_id,
        fields={name: np.concatenate([chunk.fields[name]
                                      for chunk in chunks])
                for name in first.fields},
        label=label,
    )


class MicroBatcher:
    """Pending-update buffer in front of an embedding store.

    ``add`` enqueues one entity's new events; ``drain`` empties the buffer
    as a list of coalesced per-entity chunks ready for
    ``store.update_many``.  ``should_flush`` trips once
    ``pending_events >= flush_events`` — the service's auto-flush signal.
    """

    def __init__(self, flush_events=256, time_field=None, last_time_of=None):
        if flush_events < 1:
            raise ValueError("flush_events must be >= 1")
        self.flush_events = int(flush_events)
        self.time_field = time_field
        self.last_time_of = last_time_of
        self._chunks = {}  # entity id -> [EventSequence, ...] arrival order
        self._pending_events = 0

    # ------------------------------------------------------------------
    def add(self, events):
        """Buffer one entity's new events; returns pending-event count."""
        if not isinstance(events, EventSequence):
            raise TypeError("ingest expects EventSequence chunks, got %s"
                            % type(events).__name__)
        if len(events) == 0:
            raise ValueError("cannot ingest an empty event chunk")
        queue = self._chunks.get(events.seq_id)
        if self.time_field is not None:
            # The append-only contract: a chunk may not start before the
            # entity's buffered tail — or, when the buffer is empty, before
            # its last event already drained from it (``last_time_of``:
            # applied state, or a flush still computing).  Checked before
            # any buffer mutation so a rejected chunk leaves no empty
            # queue behind.
            if queue:
                previous_end = queue[-1].fields[self.time_field][-1]
            elif self.last_time_of is not None:
                previous_end = self.last_time_of(events.seq_id)
            else:
                previous_end = None
            if previous_end is not None:
                next_start = events.fields[self.time_field][0]
                if next_start < previous_end:
                    raise ValueError(
                        "out-of-order ingest for entity %r: chunk starts "
                        "at %s before already-ingested events ending at %s"
                        % (events.seq_id, next_start, previous_end)
                    )
        if queue is None:
            queue = self._chunks[events.seq_id] = []
        queue.append(events)
        self._pending_events += len(events)
        return self._pending_events

    # ------------------------------------------------------------------
    @property
    def pending_events(self):
        """Total buffered events across all entities."""
        return self._pending_events

    @property
    def should_flush(self):
        """True once the buffer reached ``flush_events`` pending events."""
        return self._pending_events >= self.flush_events

    def has_pending(self, entity_id):
        """Whether this entity has buffered (not yet applied) events."""
        return entity_id in self._chunks

    # ------------------------------------------------------------------
    def drain(self, entity_ids=None):
        """Drain buffered chunks; returns one coalesced chunk per entity.

        ``entity_ids=None`` empties the whole buffer.  Passing ids drains
        only those entities and leaves the rest buffered — the service
        uses this so a query flushes just the entities it needs instead
        of collapsing everyone else's micro-batches.
        """
        if entity_ids is None:
            merged = [coalesce_chunks(chunks)
                      for chunks in self._chunks.values()]
            self._chunks = {}
            self._pending_events = 0
            return merged
        merged = []
        for entity_id in entity_ids:
            chunks = self._chunks.pop(entity_id, None)
            if chunks:
                merged.append(coalesce_chunks(chunks))
                self._pending_events -= sum(len(chunk) for chunk in chunks)
        return merged
