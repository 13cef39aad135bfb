"""Vectorized million-entity stress workloads for serving SLO benchmarks.

The class-conditioned generators (:mod:`.transactions`) build rich
per-client Markov structure in a python loop — fine at benchmark scale
(thousands of clients), far too slow at the ROADMAP's million-entity
scale point.  This module trades structure for scale: types, amounts
and inter-event gaps for *all* entities are drawn in O(total events)
numpy calls, and per-entity event times come from one segmented
cumulative sum, so generating a million short histories takes seconds.
The schema matches the churn shape (13 transaction types + an amount),
so any churn-style encoder serves the stress world unchanged.

Two pieces compose the workload of ``benchmarks/test_bench_serving.py``:

- :func:`make_stress_history` — the day-0 bulk-load dataset (entity ids
  are plain ints ``0..num_entities-1``);
- :func:`make_stress_stream` — post-load event chunks for a random
  subset of entities, times continuing strictly after each entity's
  history, interleaved in global arrival order — a valid input for both
  ``EmbeddingService.ingest`` and ``AsyncIngestPipeline.submit``.
"""

from __future__ import annotations

import numpy as np

from ..schema import EventSchema
from ..sequences import EventSequence, SequenceDataset

__all__ = ["STRESS_SCHEMA", "make_stress_history", "make_stress_stream"]

#: Churn-shaped schema of the stress world: 12 real transaction types
#: (codes 1..12; 13 includes the reserved padding code 0) + an amount.
STRESS_SCHEMA = EventSchema(categorical={"trx_type": 13},
                            numerical=("amount",))


def _segmented_times(lengths, gaps, starts_at):
    """Per-segment cumulative event times from flat inter-event gaps.

    ``lengths`` (``(S,)`` ints) split the flat ``gaps`` array (``(sum,)``
    floats) into segments; segment ``s`` starts at ``starts_at[s]`` and
    each event lands one gap after the previous.  One global ``cumsum``
    plus a per-segment offset subtraction — no python loop.  Returns the
    flat ``(sum,)`` float64 time array.
    """
    firsts = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(lengths[:-1], dtype=np.int64)))
    totals = np.cumsum(gaps)
    # Rebase each segment: subtract the cumsum just *before* its first
    # gap, so segment times become the within-segment gap cumsum.
    bases = totals[firsts] - gaps[firsts]
    return np.repeat(starts_at - bases, lengths) + totals


def make_stress_history(num_entities, min_events=1, max_events=3,
                        mean_gap=0.5, seed=0):
    """Day-0 histories: ``num_entities`` short sequences, fully vectorized.

    Each entity gets ``min_events..max_events`` events (uniform); event
    times start at a per-entity uniform day in ``[0, 30)`` and advance
    by exponential gaps of mean ``mean_gap`` days; amounts are
    log-normal, types uniform over ``1..12``.  Returns a
    :class:`~repro.data.SequenceDataset` over :data:`STRESS_SCHEMA`
    whose entity ids are the ints ``0..num_entities-1``.
    """
    if num_entities < 1:
        raise ValueError("num_entities must be >= 1")
    if not 1 <= min_events <= max_events:
        raise ValueError("need 1 <= min_events <= max_events")
    rng = np.random.default_rng(seed)
    lengths = rng.integers(min_events, max_events + 1, size=num_entities)
    total = int(lengths.sum())
    types = rng.integers(1, 13, size=total, dtype=np.int64)
    amounts = np.exp(rng.normal(3.0, 1.0, size=total))
    gaps = rng.exponential(mean_gap, size=total)
    starts_at = rng.uniform(0.0, 30.0, size=num_entities)
    times = _segmented_times(lengths, gaps, starts_at)
    bounds = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(lengths, dtype=np.int64)))
    return SequenceDataset.from_columns(
        STRESS_SCHEMA, bounds,
        {"event_time": times, "trx_type": types, "amount": amounts},
        ids=np.arange(num_entities), name="stress")


def make_stress_stream(history, num_active, chunks_per_entity=2,
                       min_events=2, max_events=6, mean_gap=0.25, seed=1):
    """Post-load event chunks for a random subset of ``history`` entities.

    ``num_active`` entities are sampled without replacement; each gets
    ``chunks_per_entity`` chunks of ``min_events..max_events`` events
    whose times continue strictly after the entity's last history event
    (the incremental store's append-only contract).  The returned list
    of :class:`~repro.data.EventSequence` chunks is sorted by each
    chunk's first event time — a realistic global arrival order that
    still preserves every entity's own chunk order.
    """
    if not 1 <= num_active <= len(history):
        raise ValueError("num_active must be in [1, len(history)]")
    if not 1 <= min_events <= max_events:
        raise ValueError("need 1 <= min_events <= max_events")
    rng = np.random.default_rng(seed)
    time_field = history.schema.time_field
    active = rng.choice(len(history), size=num_active, replace=False)
    last_times = np.asarray(
        history.columns[time_field][history.offsets[active + 1] - 1],
        dtype=np.float64)
    num_chunks = num_active * int(chunks_per_entity)
    lengths = rng.integers(min_events, max_events + 1, size=num_chunks)
    total = int(lengths.sum())
    types = rng.integers(1, 13, size=total, dtype=np.int64)
    amounts = np.exp(rng.normal(3.0, 1.0, size=total))
    gaps = rng.exponential(mean_gap, size=total)
    # Chunks lay out entity-major: entity e owns chunks
    # [e * chunks_per_entity, (e + 1) * chunks_per_entity).  One
    # segmented cumsum over *entities* (concatenating their chunks)
    # makes each chunk continue where the previous one ended.
    per_entity = lengths.reshape(num_active, chunks_per_entity)
    entity_lengths = per_entity.sum(axis=1)
    times = _segmented_times(entity_lengths, gaps, last_times)
    bounds = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(lengths, dtype=np.int64)))
    chunks = [
        EventSequence(
            seq_id=int(active[index // chunks_per_entity]),
            fields={"trx_type": types[bounds[index]:bounds[index + 1]],
                    "amount": amounts[bounds[index]:bounds[index + 1]],
                    "event_time": times[bounds[index]:bounds[index + 1]]},
            label=None,
        )
        for index in range(num_chunks)
    ]
    # A stable sort on first event time preserves per-entity chunk order
    # (an entity's later chunk always starts later by construction).
    chunks.sort(key=lambda chunk: float(chunk.fields[time_field][0]))
    return chunks
