"""The serving-side state store: per-entity embeddings + recurrent states.

Section 4.3.1 of the paper describes the production ETL: embed every
entity's history once in bulk, then *refresh incrementally* as new events
arrive — a recurrent encoder needs only the stored state ``c_t`` and the
new events to produce ``c_{t+k}``.  :class:`EmbeddingStore` owns that
state:

- :meth:`bulk_load` embeds a whole dataset through the fused runtime with
  a globally length-sorted plan cut by padded cells (near-zero padded
  steps; short histories share wide batches) and records every entity's
  final state;
- :meth:`update` folds a chunk of new events into one entity's state,
  bit-equal to a full recompute (the boundary time-delta is carried over);
- :meth:`update_many` does the same for a *batch* of heterogeneous
  entities at once through :func:`advance_entities` — the micro-batched
  ingestion path of :mod:`repro.serving`;
- :meth:`save` / :meth:`load` persist the store between ETL runs as a
  manifest-driven state bundle.

*Where* the states live — and how they are encoded at rest — is delegated
to a :class:`~repro.runtime.StateBackend` +
:class:`~repro.runtime.StateCodec` pair (:mod:`repro.runtime.backends`):
states stay in RAM by default, while ``backend_dir`` pages them from
disk so entity count is no longer bounded by RAM.  The batch paths —
bulk load, ``update_many``, ``embeddings``, ``load`` — move states
through the backend's ``gather``/``scatter`` in a few numpy calls;
``state_of``/``put_state``/``update`` stay per-entity.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from ..data.batches import collate
from ..data.bucketing import plan_batches
from .backends import StateBackend
from .engine import FusedEncoderRuntime

__all__ = ["EmbeddingStore", "AdvanceResult", "advance_entities",
           "bulk_load_states"]


class AdvanceResult(NamedTuple):
    """What one :func:`advance_entities` call produced.

    ``embeddings`` is the refreshed ``(N, d)`` matrix in input order (the
    runtime's policy dtype); ``batches`` is the number of fused kernel
    batches the length-bucketed plan actually ran.  Serving telemetry
    (``flush_batches``) counts this value straight from the plan instead
    of re-deriving ``ceil(N / batch_size)`` on the side — the two stay
    equal only as long as the planner never drops, merges or re-windows
    batches, which is the planner's decision to make, not the caller's.
    """

    embeddings: np.ndarray
    batches: int


#: Rows per state scatter in :func:`bulk_load_states`: enough to amortise
#: the per-call numpy work, few enough that the pending block stays a
#: small second copy of the states.
BULK_SCATTER_ROWS = 4096


def bulk_load_states(runtime, dataset, scatter, batch_size=64, workers=None):
    """Embed a whole dataset and hand every final state to ``scatter``.

    The single bulk loop behind :meth:`EmbeddingStore.bulk_load` and the
    sharded store's variant: batches follow the runtime's bulk plan
    (:meth:`~repro.runtime.FusedEncoderRuntime.run_dataset`: at least
    ``batch_size`` rows each, more for short sequences of a recurrent
    encoder; run bucket-parallel per the runtime's ``workers`` policy),
    and
    ``scatter(entity_ids, hidden, cell, last_times)`` — the
    :meth:`~repro.runtime.StateBackend.scatter` contract — decides where
    the states live.  Ids and last event times come from each collated
    batch's ``seq_ids`` and time field.  States are handed over in plan
    order, in blocks of about :data:`BULK_SCATTER_ROWS` rows, on the
    calling thread, so results are deterministic for any worker count.
    Returns the ``(N, d)`` embedding matrix in dataset order.
    """
    time_field = dataset.schema.time_field
    embeddings = np.zeros((len(dataset), runtime.output_dim),
                          dtype=runtime.dtype)
    pending, rows = [], 0

    def hand_over():
        """Scatter the pending batches' states as one block."""
        ids, hidden, cell, ends = zip(*pending)
        scatter(np.concatenate(ids).tolist(), np.concatenate(hidden),
                np.concatenate(cell) if runtime.is_lstm else None,
                np.concatenate(ends))
        pending.clear()

    for chunk, batch, last in runtime.run_dataset(dataset, batch_size,
                                                  workers=workers):
        hidden = runtime.hidden_of(last)
        embeddings[chunk] = runtime.head(hidden)
        times = batch.fields[time_field]
        pending.append((batch.seq_ids, hidden,
                        last[1] if runtime.is_lstm else None,
                        times[np.arange(len(times), dtype=np.intp),
                              batch.lengths - 1]))
        rows += len(chunk)
        if rows >= BULK_SCATTER_ROWS:
            hand_over()
            rows = 0
    if pending:
        hand_over()
    return embeddings


def advance_entities(runtime, sequences, schema, gather, scatter,
                     batch_size=64, workers=None):
    """Batched heterogeneous advance: one state transition per entity.

    ``sequences`` holds one pending event chunk per entity (one entity may
    appear only once — coalesce multiple chunks first, the state after
    chunk *k* feeds chunk *k+1*).  Entities are planned into
    length-bucketed batches and advanced through the fused kernels in one
    call per batch instead of one call per entity; rows mix entities with
    stored states and entities never seen before (seeded from the learnt
    initial state).

    Execution is staged so parallelism never races the state callables:
    one ``gather`` of every entity's state happens up front on the
    calling thread, the per-batch kernel calls run concurrently
    (``workers`` defaults to the runtime's policy; BLAS releases the
    GIL), and one ``scatter`` of every final state follows in plan order
    — results are bit-identical for any worker count, and new entities
    get their slots in plan order.

    Parameters
    ----------
    runtime:
        A :class:`~repro.runtime.FusedEncoderRuntime`.
    sequences:
        List of :class:`~repro.data.EventSequence`, one per entity.
    gather:
        Callable ``entity_ids -> (hidden, cell, last_times, known)`` —
        the state source, with the
        :meth:`~repro.runtime.StateBackend.gather` contract.
    scatter:
        Callable ``(entity_ids, hidden, cell, last_times)`` — the state
        sink, with the :meth:`~repro.runtime.StateBackend.scatter`
        contract.  The two callables let one routine serve both a flat
        :class:`EmbeddingStore` and the shard-routed store of
        :mod:`repro.serving`.
    batch_size:
        Rows per fused batch (the bucketed plan's batch size).
    workers:
        Concurrent fused batches (None: the runtime's ``workers``).

    Returns an :class:`AdvanceResult`: the refreshed ``(N, d)``
    embeddings in ``sequences`` order, plus the number of fused batches
    the plan ran.
    """
    ids = [seq.seq_id for seq in sequences]
    if len(set(ids)) != len(ids):
        raise ValueError(
            "duplicate entity ids in one advance: coalesce each entity's "
            "chunks before advancing (state after chunk k feeds chunk k+1)"
        )
    lengths = [len(seq) for seq in sequences]
    if any(length == 0 for length in lengths):
        raise ValueError("advance requires at least one new event per entity")
    workers = runtime.workers if workers is None else max(1, int(workers))
    time_field = schema.time_field
    embeddings = np.zeros((len(sequences), runtime.output_dim),
                          dtype=runtime.dtype)
    chunks = plan_batches(lengths, batch_size)
    if not chunks:
        return AdvanceResult(embeddings, 0)

    # Phase 1 (serial): one gather of the stored states, then collate
    # every planned batch.  New entities start from the learnt c_0 with a
    # boundary delta of zero (their first event time).
    hidden, cell, last_times, known = gather(ids)
    initial = runtime.default_state(len(ids))
    stored = np.flatnonzero(known)
    runtime.hidden_of(initial)[stored] = hidden[stored]
    if runtime.is_lstm:
        initial[1][stored] = cell[stored]
    prev_times = np.array([seq.fields[time_field][0] for seq in sequences],
                          dtype=np.float64)
    prev_times[stored] = last_times[stored]
    tasks = []
    for chunk in chunks:
        batch = collate([sequences[i] for i in chunk], schema)
        rows = ((initial[0][chunk], initial[1][chunk]) if runtime.is_lstm
                else initial[chunk])
        tasks.append((batch, rows, prev_times[chunk]))

    # Phase 2 (parallel): the fused kernel calls — pure compute.
    def run(task):
        """Advance one prepared bucket through the fused kernels."""
        batch, rows, times = task
        return runtime.advance(batch, initial=rows, prev_times=times)

    if workers == 1 or len(tasks) <= 1:
        results = [run(task) for task in tasks]
    else:
        runtime.weight_plan()
        runtime.encode_plan()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks))

    # Phase 3 (serial): embeddings per batch, then one scatter of every
    # final state in plan order.
    finals = [runtime.hidden_of(last) for last in results]
    for chunk, final in zip(chunks, finals):
        embeddings[chunk] = runtime.head(final)
    order = np.concatenate(chunks)
    ends = np.array([seq.fields[time_field][-1] for seq in sequences],
                    dtype=np.float64)
    scatter([ids[i] for i in order.tolist()], np.concatenate(finals),
            (np.concatenate([last[1] for last in results])
             if runtime.is_lstm else None),
            ends[order])
    return AdvanceResult(embeddings, len(tasks))


class EmbeddingStore:
    """Per-entity embedding/state registry backed by a fused runtime.

    States are stored in the runtime's policy dtype (float32 halves the
    per-entity footprint; float64 is the parity reference) inside a
    :class:`~repro.runtime.StateBackend`; a
    :class:`~repro.runtime.StateCodec` controls the at-rest encoding
    (shard files and state bundles) independently of the compute
    precision.

    Transformer encoders are served too: :meth:`bulk_load` records each
    entity's pooled embedding state and the read paths work unchanged,
    but the *incremental* methods (:meth:`update`, :meth:`update_many`)
    raise ``TypeError`` — attention reads the whole history, so there is
    no recurrent state to fold new events into.

    Parameters
    ----------
    encoder:
        A trained :class:`~repro.encoders.RnnSeqEncoder` or
        :class:`~repro.encoders.TransformerSeqEncoder`, or an already
        constructed :class:`FusedEncoderRuntime`.
    precision:
        Dtype policy forwarded to the runtime (None: the runtime
        default).  When handed an existing runtime the policies must
        agree — the store has exactly one state dtype.
    workers:
        Bucket-parallel worker count forwarded to the runtime.
    backend:
        An injected :class:`~repro.runtime.StateBackend` instance (for
        example one with small shards); None builds one from
        ``backend_dir``.
    codec:
        At-rest encoding: ``"identity"``/None (lossless, the default),
        ``"float16"``, ``"int8"``, ``"uint4"``, or a
        :class:`~repro.runtime.StateCodec` instance.
    backend_dir:
        Where states live: None keeps them in RAM, a path keeps them in
        memory-mapped shard files under it (out-of-core).
    """

    def __init__(self, encoder, precision=None, workers=None, backend=None,
                 codec=None, backend_dir=None):
        self.runtime = FusedEncoderRuntime.of(encoder, precision, workers)
        if backend is None:
            backend = StateBackend(backend_dir)
        elif not isinstance(backend, StateBackend):
            raise TypeError("backend must be a StateBackend instance "
                            "(got %s)" % type(backend).__name__)
        elif backend_dir is not None:
            raise ValueError(
                "backend_dir conflicts with an explicit StateBackend "
                "instance — the instance already owns its directory"
            )
        self.backend = backend.attach(
            self.runtime.output_dim, self.runtime.state_kind,
            self.runtime.dtype, codec,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.backend)

    def __contains__(self, entity_id):
        return entity_id in self.backend

    def known_entities(self):
        """Sorted ids of every entity with stored state."""
        return sorted(self.backend.entity_ids())

    def last_time(self, entity_id):
        """Timestamp of the entity's most recent folded event (or None)."""
        return self.backend.last_time(entity_id)

    def bytes_per_entity(self):
        """At-rest bytes per entity under the backend's codec + layout."""
        return self.backend.bytes_per_entity()

    # ------------------------------------------------------------------
    # per-entity state access (the batch paths use backend.gather/scatter)
    # ------------------------------------------------------------------
    def state_of(self, entity_id):
        """``(hidden, cell, last_time)`` of a known entity, else None.

        ``cell`` is None for GRU runtimes.  The buffers are fresh
        copies, so a later :meth:`put_state` never changes them.
        """
        return self.backend.get(entity_id)

    def put_state(self, entity_id, hidden, cell=None, last_time=None):
        """Record an entity's recurrent state (copies the buffers).

        ``hidden`` (and ``cell`` for LSTM runtimes) are ``(H,)`` buffers,
        copied into the store's policy dtype by the backend's row write.
        ``last_time`` — the timestamp of the entity's latest folded event
        — is mandatory: without it the boundary time-delta of the next
        incremental update (and the state bundle format) would be
        undefined.
        """
        if last_time is None:
            raise ValueError("put_state requires the entity's last event "
                             "timestamp (last_time)")
        if cell is None and self.backend.is_lstm:
            raise ValueError("LSTM states require a cell buffer")
        self.backend.put(entity_id, hidden, cell, last_time)

    # ------------------------------------------------------------------
    # bulk path
    # ------------------------------------------------------------------
    def bulk_load(self, dataset, batch_size=64, workers=None):
        """Embed every sequence of ``dataset`` and persist all final states.

        Batches follow a globally length-sorted plan, so each batch pads
        to a near-uniform length; each takes at least ``batch_size`` rows,
        and a recurrent encoder's more for sequences shorter than
        :data:`~repro.data.bucketing.BUDGET_STEPS` steps (see
        :func:`bulk_load_states`).  Returns the ``(N, d)`` embedding
        matrix in dataset order.
        """
        return bulk_load_states(self.runtime, dataset, self.backend.scatter,
                                batch_size=batch_size, workers=workers)

    # ------------------------------------------------------------------
    # incremental path
    # ------------------------------------------------------------------
    def update(self, entity_id, events, schema):
        """Fold new ``events`` (an :class:`EventSequence`) into the state.

        Returns the refreshed embedding.  The previous chunk's last
        timestamp seeds the boundary time-delta so the result matches a
        full recompute exactly.
        """
        if len(events) == 0:
            raise ValueError("update requires at least one new event")
        batch = collate([events], schema)
        initial = prev_times = None
        stored = self.backend.get(entity_id)
        if stored is not None:
            hidden, cell, last_time = stored
            initial = ((hidden[None, :], cell[None, :]) if self.runtime.is_lstm
                       else hidden[None, :])
            prev_times = np.array([last_time], dtype=np.float64)
        state = self.runtime.advance(batch, initial=initial,
                                     prev_times=prev_times)
        self.put_state(
            entity_id, self.runtime.hidden_of(state)[0],
            state[1][0] if self.runtime.is_lstm else None,
            float(events.fields[schema.time_field][-1]),
        )
        return self.embedding(entity_id)

    def update_many(self, sequences, schema, batch_size=64, workers=None):
        """Fold pending event chunks of many entities in fused batches.

        The batched counterpart of :meth:`update`: ``sequences`` carries
        one chunk per entity, a length-bucketed plan groups them, and each
        planned batch advances through one fused kernel call.  Returns the
        refreshed ``(N, d)`` embeddings in input order, identical to
        looping :meth:`update` (< 1e-10).  Callers that need the fused
        batch count call :func:`advance_entities` directly.
        """
        return advance_entities(self.runtime, sequences, schema,
                                self.backend.gather, self.backend.scatter,
                                batch_size=batch_size,
                                workers=workers).embeddings

    def embedding(self, entity_id):
        """Current embedding of one entity, ``(d,)``."""
        state = self.backend.get(entity_id)
        if state is None:
            raise KeyError("unknown entity %r" % entity_id)
        return self.runtime.head(state[0][None, :])[0]

    def embeddings(self, entity_ids=None):
        """Embedding matrix for ``entity_ids`` (default: all known, sorted)."""
        if entity_ids is None:
            entity_ids = self.known_entities()
        hidden, _, _, known = self.backend.gather(entity_ids)
        if not known.all():
            raise KeyError("unknown entity %r"
                           % entity_ids[int(np.argmin(known))])
        return self.runtime.head(hidden)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def flush(self):
        """Make pending backend writes durable (disk write-back)."""
        self.backend.flush()

    def save(self, path):
        """Write the store's state bundle to directory ``path``.

        The bundle is the manifest-driven layout of
        :mod:`repro.runtime.backends` (``state_manifest.json`` plus
        per-shard ``.npy``/``.npz`` files), encoded through the store's
        codec.  A store in either mode can :meth:`load` it.
        """
        self.backend.snapshot(path)

    def load(self, path):
        """Load a state bundle directory written by :meth:`save`; returns self."""
        self.backend.restore(path)
        return self
