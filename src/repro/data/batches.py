"""Padded batches: the tensor form of a dataset's rows or of event chunks.

Sequences of different lengths are right-padded to the batch maximum.
Categorical fields pad with the reserved code 0, numerical fields with 0.0,
and a boolean mask marks real events.  All downstream modules (encoders,
losses, baselines) consume this structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import PADDING_CODE
from .sequences import SequenceDataset, _event_index, _id_array, _take_ids

__all__ = ["PaddedBatch", "collate", "iterate_batches"]


@dataclass
class PaddedBatch:
    """A batch of padded sequences.

    Attributes
    ----------
    fields:
        Mapping field name -> array of shape ``(B, T)``.
    lengths:
        True sequence lengths, shape ``(B,)``.
    seq_ids:
        Entity ids, shape ``(B,)`` — used to build positive pairs.
    labels:
        Object array of labels (None where unlabeled).
    """

    fields: dict
    lengths: np.ndarray
    seq_ids: np.ndarray
    labels: np.ndarray
    schema: object = None  # the EventSchema the batch was collated under

    @property
    def batch_size(self):
        return len(self.lengths)

    @property
    def max_length(self):
        return 0 if not self.fields else next(iter(self.fields.values())).shape[1]

    @property
    def mask(self):
        """Boolean ``(B, T)``: True at real (non-padded) positions."""
        steps = np.arange(self.max_length)
        return steps[None, :] < self.lengths[:, None]

    def label_array(self):
        if any(label is None for label in self.labels):
            raise ValueError("batch contains unlabeled sequences")
        return np.asarray(self.labels.tolist())


def collate(source, schema=None, rows=None, positions=None):
    """Pad event sequences into one :class:`PaddedBatch`.

    From a :class:`~repro.data.SequenceDataset` (``schema`` defaults to
    its own) the batch holds ``rows`` (default: all; a row may repeat),
    and with ``positions`` row ``k`` holds only the sorted positions
    ``positions[k]`` of its row (a CoLES view): one take per field.  From
    a list of :class:`~repro.data.EventSequence` chunks (flushes) the
    chunks' fields are concatenated.  Either way one assignment per field
    fills the ``(B, T)`` grid: categorical fields as int64 padded with
    :data:`PADDING_CODE`, others as float64 padded with 0.0.  ``seq_ids``
    follow the ``_id_array`` rule and ``labels`` is a 1-D object array.
    Raises ``ValueError`` for no rows or a row without events.
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
    shape = (len(lengths), int(lengths.max()))
    # Real events fill each row from the left: in row-major order the
    # True cells of the mask take the flat field values.
    mask = np.arange(shape[1]) < lengths[:, None]
    batch_fields = {}
    for name, flat in values.items():
        if name in schema.categorical:
            padded = np.full(shape, PADDING_CODE, dtype=np.int64)
        else:
            padded = np.zeros(shape, dtype=np.float64)
        padded[mask] = flat
        batch_fields[name] = padded
    return PaddedBatch(fields=batch_fields, lengths=lengths, seq_ids=seq_ids,
                       labels=labels, schema=schema)


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
