"""Padded batches: the tensor form of a list of event sequences.

Sequences of different lengths are right-padded to the batch maximum.
Categorical fields pad with the reserved code 0, numerical fields with 0.0,
and a boolean mask marks real events.  All downstream modules (encoders,
losses, baselines) consume this structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import PADDING_CODE

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


def _id_array(ids):
    """``ids`` as a 1-D array whose ``tolist()`` gives them back.

    Homogeneous ids keep numpy's dtype; ids numpy would stack (tuples),
    coerce (ints mixed with strs) or reject (ragged) stay objects.
    """
    try:
        array = np.array(ids)
        if array.ndim == 1 and array.tolist() == ids:
            return array
    except ValueError:
        pass
    return np.fromiter(ids, dtype=object, count=len(ids))


def collate(sequences, schema):
    """Stack a list of :class:`EventSequence` into a :class:`PaddedBatch`."""
    if not sequences:
        raise ValueError("cannot collate an empty list of sequences")
    columns = {name: [seq.fields[name] for seq in sequences]
               for name in schema.field_names}
    # Every field of a sequence has its length (EventSequence checks).
    lengths = np.array([len(values) for values in columns[schema.time_field]])
    if lengths.min() < 1:
        raise ValueError("cannot collate empty sequences")
    shape = (len(sequences), int(lengths.max()))
    # Real events fill each row from the left: in row-major order the
    # True cells of the mask take the concatenated field values.
    mask = np.arange(shape[1]) < lengths[:, None]
    batch_fields = {}
    for name, column in columns.items():
        if name in schema.categorical:
            padded = np.full(shape, PADDING_CODE, dtype=np.int64)
        else:
            padded = np.zeros(shape, dtype=np.float64)
        padded[mask] = np.concatenate(column)
        batch_fields[name] = padded
    return PaddedBatch(
        fields=batch_fields,
        lengths=lengths,
        seq_ids=_id_array([seq.seq_id for seq in sequences]),
        labels=np.array([seq.label for seq in sequences], dtype=object),
        schema=schema,
    )


def iterate_batches(sequences, schema, batch_size, rng=None, shuffle=True,
                    drop_last=False, bucket_window=None):
    """Yield :class:`PaddedBatch` objects over ``sequences``.

    Shuffles between epochs when ``rng`` is given; the generator covers one
    epoch per call, planned by :func:`repro.data.bucketing.epoch_plan`.
    ``bucket_window`` (in batches) sorts sequences by length within each
    shuffle window so batches pad far less.
    """
    from .bucketing import epoch_plan

    lengths = [len(seq) for seq in sequences]
    for chunk in epoch_plan(lengths, batch_size, rng=rng, shuffle=shuffle,
                            bucket_window=bucket_window,
                            drop_last=drop_last):
        yield collate([sequences[i] for i in chunk], schema)
