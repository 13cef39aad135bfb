"""Padded batches: the tensor form of a dataset's rows or of event chunks.

A batch stores its events as flat per-field arrays, row after row (the
layout of the dataset's event table), plus the rows' lengths.  The
padded ``(B, T)`` view — sequences right-padded to the longest row,
categorical fields with the reserved code 0, numerical fields with 0.0,
and a boolean mask marking real events — is built on first read.  The
fused recurrent training step reads the flat arrays only; inference,
transformers and the autograd modules read the padded view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schema import PADDING_CODE
from .sequences import SequenceDataset, _event_index, _id_array, _take_ids

__all__ = ["PaddedBatch", "collate", "iterate_batches"]


@dataclass
class PaddedBatch:
    """A batch of event sequences, stored flat and padded on demand.

    Attributes
    ----------
    flat_fields:
        Mapping field name -> array of shape ``(N,)``, ``N =
        lengths.sum()``: row 0's events, then row 1's, and so on, in the
        padded view's row-major cell order.
    lengths:
        True sequence lengths, shape ``(B,)``.
    seq_ids:
        Entity ids, shape ``(B,)`` — used to build positive pairs.
    labels:
        Object array of labels (None where unlabeled).

    :attr:`fields` and :attr:`mask` are built from these on first read
    and cached: change a batch by building a new one, not by writing
    into either view.
    """

    flat_fields: dict
    lengths: np.ndarray
    seq_ids: np.ndarray
    labels: np.ndarray
    schema: object = None  # the EventSchema the batch was collated under
    # The cached padded views.  Not functools.cached_property: before
    # Python 3.12 it serialises first reads of all instances on one lock,
    # and bulk-pass workers each build their own batch's grid.
    _mask: np.ndarray = field(default=None, init=False, repr=False,
                              compare=False)
    _fields: dict = field(default=None, init=False, repr=False,
                          compare=False)

    @property
    def batch_size(self):
        return len(self.lengths)

    @property
    def max_length(self):
        """The padded width ``T``, the longest row (builds no grid)."""
        return int(self.lengths.max()) if len(self.lengths) else 0

    @property
    def mask(self):
        """Boolean ``(B, T)``: True at real (non-padded) positions."""
        if self._mask is None:
            self._mask = np.arange(self.max_length) < self.lengths[:, None]
        return self._mask

    @property
    def fields(self):
        """Mapping field name -> padded array of shape ``(B, T)``.

        Real events fill each row from the left, so the mask's True
        cells, in row-major order, take the flat values.  Padding is
        :data:`PADDING_CODE` for integer fields and 0.0 for the others.
        """
        if self._fields is None:
            mask, grid = self.mask, {}
            for name, flat in self.flat_fields.items():
                if flat.dtype.kind in "iu":
                    padded = np.full(mask.shape, PADDING_CODE, dtype=flat.dtype)
                else:
                    padded = np.zeros(mask.shape, dtype=flat.dtype)
                padded[mask] = flat
                grid[name] = padded
            self._fields = grid
        return self._fields

    def label_array(self):
        if any(label is None for label in self.labels):
            raise ValueError("batch contains unlabeled sequences")
        return np.asarray(self.labels.tolist())


def collate(source, schema=None, rows=None, positions=None):
    """Gather event sequences into one :class:`PaddedBatch`.

    From a :class:`~repro.data.SequenceDataset` (``schema`` defaults to
    its own) the batch holds ``rows`` (default: all; a row may repeat),
    and with ``positions`` row ``k`` holds only the sorted positions
    ``positions[k]`` of its row (a CoLES view): one take per field.  From
    a list of :class:`~repro.data.EventSequence` chunks (flushes) the
    chunks' fields are concatenated.  Either way the gathered flat arrays
    are the batch's storage, categorical fields as int64 and the others
    as float64; the padded ``(B, T)`` grid is built when first read.
    ``seq_ids`` follow the ``_id_array`` rule and ``labels`` is a 1-D
    object array.  Raises ``ValueError`` for no rows or a row without
    events.
    """
    if not (len(source) if rows is None else len(rows)):
        raise ValueError("cannot collate an empty list of sequences")
    if isinstance(source, SequenceDataset):
        schema = source.schema if schema is None else schema
        rows = np.arange(len(source)) if rows is None else np.asarray(rows, dtype=np.int64)
        if positions is None:
            index, lengths = _event_index(source.offsets, rows)
        else:
            lengths = np.fromiter(map(len, positions), np.int64, count=len(rows))
            index = np.concatenate(positions) + np.repeat(source.offsets[rows], lengths)
        values = {name: source.columns[name][index] for name in schema.field_names}
        seq_ids, labels = _take_ids(source.ids, rows), source.labels[rows]
    else:
        columns = {name: [seq.fields[name] for seq in source] for name in schema.field_names}
        # Every field of a sequence has its length (EventSequence checks).
        lengths = np.fromiter(map(len, columns[schema.time_field]), np.int64,
                              count=len(source))
        values = {name: np.concatenate(column) for name, column in columns.items()}
        seq_ids = _id_array([seq.seq_id for seq in source])
        labels = np.fromiter((seq.label for seq in source), dtype=object, count=len(source))
    if lengths.min() < 1:
        raise ValueError("cannot collate empty sequences")
    flat_fields = {name: flat.astype(np.int64 if name in schema.categorical
                                     else np.float64, copy=False)
                   for name, flat in values.items()}
    return PaddedBatch(flat_fields=flat_fields, lengths=lengths,
                       seq_ids=seq_ids, labels=labels, schema=schema)


def iterate_batches(dataset, batch_size, rng=None, shuffle=True,
                    drop_last=False, bucket_window=None):
    """Yield :class:`PaddedBatch` objects, each one gather of a dataset's rows.

    Shuffles between epochs when ``rng`` is given; the generator covers one
    epoch per call, planned by :func:`repro.data.bucketing.epoch_plan`.
    ``bucket_window`` (in batches) sorts sequences by length within each
    shuffle window so batches pad far less.
    """
    from .bucketing import epoch_plan

    for chunk in epoch_plan(dataset.lengths(), batch_size, rng=rng,
                            shuffle=shuffle, bucket_window=bucket_window,
                            drop_last=drop_last):
        yield collate(dataset, rows=chunk)
