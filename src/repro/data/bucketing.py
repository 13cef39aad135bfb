"""Length-bucketed batch planning.

Padded batches waste work on every step past a sequence's true length: a
batch mixing a 10-event and a 200-event sequence runs 190 frozen steps for
the short one.  The planner orders sequences so that batch-mates have
similar lengths, eliminating most padded steps, while a *shuffle window*
keeps enough randomness for training:

1. shuffle all indices (when training);
2. cut the shuffled order into windows of ``window_batches * batch_size``;
3. sort each window by length, longest first;
4. cut the concatenated windows into consecutive batches.

``window_batches=None`` sorts globally (one window) — the right plan for
inference, where batch composition is free to be anything because
eval-mode encoders process sequences independently.

:func:`plan_cell_batches` cuts that global order by padded cells instead
of rows, for bulk passes: short histories ride in wide batches, so a
pass over many short sequences makes far fewer collate and kernel calls.

:func:`epoch_plan` is the training side: one epoch's shuffled chunks,
length-bucketed only when a ``bucket_window`` is set.  Every training
loop draws its epochs from it.
"""

from __future__ import annotations

import numpy as np

from .batches import collate

#: Steps per row of a bulk batch's cell budget: :func:`plan_cell_batches`
#: fills a batch up to ``batch_size * BUDGET_STEPS`` padded cells.  Chosen
#: by measurement on ``stream_query``'s day-0 load (100k histories of 1-3
#: events, ``batch_size`` 64): a 4,096-cell budget cut set-up time 31%, a
#: 16,384-cell one only 18%, with 2% more peak memory.
BUDGET_STEPS = 64

__all__ = [
    "BUDGET_STEPS",
    "epoch_plan",
    "plan_batches",
    "plan_cell_batches",
    "bucketed_order",
    "iterate_bucketed_batches",
    "padded_step_fraction",
]


def _shuffled(count, rng, shuffle):
    """``arange(count)``, shuffled in place by ``rng`` when ``shuffle``."""
    order = np.arange(count)
    if shuffle:
        rng = rng or np.random.default_rng()
        rng.shuffle(order)
    return order


def _chunks(order, batch_size, drop_last):
    """Consecutive ``batch_size`` slices of ``order``."""
    chunks = [order[start:start + batch_size]
              for start in range(0, len(order), batch_size)]
    if drop_last and chunks and len(chunks[-1]) < batch_size:
        chunks.pop()
    return chunks


def bucketed_order(lengths, batch_size, rng=None, shuffle=True,
                   window_batches=8):
    """Index order with similar-length sequences adjacent.

    Returns a permutation of ``arange(len(lengths))``; consecutive slices
    of ``batch_size`` form the planned batches.
    """
    lengths = np.asarray(lengths)
    order = _shuffled(len(lengths), rng, shuffle)
    if window_batches is not None and window_batches < 1:
        raise ValueError("window_batches must be >= 1 or None")
    window = (max(len(order), 1) if window_batches is None
              else int(window_batches) * int(batch_size))
    pieces = []
    for start in range(0, len(order), window):
        chunk = order[start:start + window]
        # Stable sort on negated lengths: longest first, ties keep the
        # shuffled order.
        pieces.append(chunk[np.argsort(-lengths[chunk], kind="stable")])
    return np.concatenate(pieces) if pieces else order


def plan_batches(lengths, batch_size, rng=None, shuffle=False,
                 window_batches=None, drop_last=False):
    """Plan length-bucketed batches; returns a list of index arrays.

    Every input index appears in exactly one batch (unless ``drop_last``
    trims a final short batch).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = bucketed_order(lengths, batch_size, rng=rng, shuffle=shuffle,
                           window_batches=window_batches)
    return _chunks(order, batch_size, drop_last)


def plan_cell_batches(lengths, batch_size):
    """Plan bulk batches by padded cells; returns a list of index arrays.

    Rows are taken in the global longest-first order of
    :func:`plan_batches` (stable, so equal lengths keep input order).  A
    batch takes at least ``batch_size`` rows, and more while ``rows *
    longest`` stays within ``batch_size * BUDGET_STEPS`` cells, where
    ``longest`` is its first row's length.  Sequences of ``BUDGET_STEPS``
    steps or more so keep ``batch_size`` rows per batch, and shorter ones
    share wider batches of at most the budget's cells.  Every index
    appears in exactly one batch.  Bulk passes use this plan; flushes
    keep the row plan of :func:`plan_batches`.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    lengths = np.asarray(lengths)
    order = bucketed_order(lengths, batch_size, shuffle=False,
                           window_batches=None)
    budget = batch_size * BUDGET_STEPS
    chunks, start = [], 0
    while start < len(order):
        # A zero-length row costs no cells; it reaches collate, which
        # rejects it.
        longest = max(int(lengths[order[start]]), 1)
        stop = start + max(batch_size, budget // longest)
        chunks.append(order[start:stop])
        start = stop
    return chunks


def epoch_plan(lengths, batch_size, rng=None, shuffle=True,
               bucket_window=None, drop_last=False):
    """One training epoch's batches as index arrays.

    The indices are shuffled (when ``shuffle``; one ``rng.shuffle`` draw,
    made before anything else of the epoch) and cut into consecutive
    ``batch_size`` chunks.  With ``bucket_window`` set (in batches) each
    window of that many batches is first sorted by length, longest
    first, so batch-mates pad far less; ``None`` keeps the shuffled
    order.  ``drop_last`` drops a final short chunk.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if bucket_window is None:
        order = _shuffled(len(lengths), rng, shuffle)
    else:
        order = bucketed_order(lengths, batch_size, rng=rng,
                               shuffle=shuffle, window_batches=bucket_window)
    return _chunks(order, batch_size, drop_last)


def iterate_bucketed_batches(sequences, schema, batch_size, rng=None,
                             shuffle=True, window_batches=8,
                             drop_last=False):
    """Yield collated :class:`~repro.data.PaddedBatch` objects, bucketed.

    Drop-in alternative to :func:`repro.data.iterate_batches` that pads
    each batch only to its own (near-uniform) max length.
    """
    lengths = [len(seq) for seq in sequences]
    for chunk in plan_batches(lengths, batch_size, rng=rng, shuffle=shuffle,
                              window_batches=window_batches,
                              drop_last=drop_last):
        yield collate([sequences[i] for i in chunk], schema)


def padded_step_fraction(lengths, batches):
    """Fraction of padded (wasted) steps under a batch plan — plan telemetry."""
    lengths = np.asarray(lengths)
    total = 0
    real = 0
    for chunk in batches:
        chunk_lengths = lengths[chunk]
        if len(chunk_lengths) == 0:
            continue  # an empty chunk pads nothing
        total += int(chunk_lengths.max()) * len(chunk)
        real += int(chunk_lengths.sum())
    return 0.0 if total == 0 else 1.0 - real / total
