"""Event sequences and datasets.

An :class:`EventSequence` is one entity's observed lifetime activity
``{x_e(t)}`` (Section 3.1 of the paper): parallel arrays of event fields,
ordered by event time.  A :class:`SequenceDataset` is a collection of
sequences sharing a schema, with optional labels on a subset of entities
(the paper's datasets are partially labeled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

import numpy as np

from .schema import EventSchema

__all__ = ["EventSequence", "SequenceDataset"]


@dataclass
class EventSequence:
    """One entity's ordered event stream.

    Parameters
    ----------
    seq_id:
        Entity identifier (stable across slices of the same entity).
    fields:
        Mapping field name -> array of per-event values, all equal length,
        sorted by the schema's time field.
    label:
        Optional downstream target; None when the entity is unlabeled.
    """

    seq_id: int
    fields: dict
    label: object = None

    def __post_init__(self):
        self.fields = {name: np.asarray(values) for name, values in self.fields.items()}
        lengths = {len(values) for values in self.fields.values()}
        if len(lengths) > 1:
            raise ValueError("field arrays have differing lengths: %s" % lengths)

    def __len__(self):
        if not self.fields:
            return 0
        return len(next(iter(self.fields.values())))

    @property
    def is_labeled(self):
        return self.label is not None

    def slice(self, start, stop):
        """Contiguous sub-sequence [start, stop) keeping id and label."""
        if not 0 <= start <= stop <= len(self):
            raise IndexError(
                "slice [%d, %d) out of bounds for length %d" % (start, stop, len(self))
            )
        return EventSequence(
            seq_id=self.seq_id,
            fields={name: values[start:stop] for name, values in self.fields.items()},
            label=self.label,
        )

    def take(self, indices):
        """Non-contiguous sub-sequence given sorted positional indices."""
        indices = np.asarray(indices)
        return EventSequence(
            seq_id=self.seq_id,
            fields={name: values[indices] for name, values in self.fields.items()},
            label=self.label,
        )


class SequenceDataset:
    """A list of :class:`EventSequence` plus the shared :class:`EventSchema`."""

    def __init__(self, sequences, schema, name="dataset"):
        self.sequences = list(sequences)
        self.schema = schema
        self.name = name

    def __len__(self):
        return len(self.sequences)

    def __getitem__(self, index):
        if isinstance(index, (list, np.ndarray)):
            return SequenceDataset(
                [self.sequences[i] for i in index], self.schema, self.name
            )
        return self.sequences[index]

    def __iter__(self):
        return iter(self.sequences)

    def validate(self):
        """Check every sequence against the schema; returns self."""
        for seq in self.sequences:
            self.schema.validate_sequence(seq.fields, len(seq))
        return self

    # ------------------------------------------------------------------
    @property
    def labels(self):
        """Array of labels with None for unlabeled entities."""
        return np.array([seq.label for seq in self.sequences], dtype=object)

    def labeled(self):
        """Subset of sequences with a known target."""
        return SequenceDataset(
            [seq for seq in self.sequences if seq.is_labeled],
            self.schema,
            self.name + ":labeled",
        )

    def unlabeled(self):
        return SequenceDataset(
            [seq for seq in self.sequences if not seq.is_labeled],
            self.schema,
            self.name + ":unlabeled",
        )

    def label_array(self):
        """Integer label array; raises if any sequence is unlabeled."""
        labels = []
        for seq in self.sequences:
            if not seq.is_labeled:
                raise ValueError("sequence %d is unlabeled" % seq.seq_id)
            labels.append(seq.label)
        return np.asarray(labels)

    def lengths(self):
        """Events per sequence: ``(N,)`` int64, each time field's length.

        Read through C-level iterators rather than one ``len(seq)`` call
        per sequence, which took twice as long over 100k histories.
        """
        times = map(itemgetter(self.schema.time_field),
                    map(attrgetter("fields"), self.sequences))
        return np.fromiter(map(len, times), dtype=np.int64,
                           count=len(self.sequences))

    def summary(self):
        """Human-readable dataset statistics."""
        lengths = self.lengths()
        labeled = sum(seq.is_labeled for seq in self.sequences)
        return (
            "%s: %d sequences (%d labeled), %d events, "
            "length min/median/max = %d/%d/%d"
            % (
                self.name,
                len(self),
                labeled,
                int(lengths.sum()),
                lengths.min() if len(lengths) else 0,
                int(np.median(lengths)) if len(lengths) else 0,
                lengths.max() if len(lengths) else 0,
            )
        )
