"""Event sequences and datasets.

An :class:`EventSequence` is one entity's observed lifetime activity
``{x_e(t)}`` (Section 3.1 of the paper): parallel arrays of event fields,
ordered by event time.  A :class:`SequenceDataset` is a collection of
sequences sharing a schema, with optional labels on a subset of entities
(the paper's datasets are partially labeled), stored as Apache Arrow
stores variable-size lists: offsets plus one flat array per field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EventSequence", "SequenceDataset"]


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


def _take_ids(ids, rows):
    """``ids[rows]`` by the :func:`_id_array` rule (integer ids pass as is)."""
    taken = ids[rows]
    return taken if taken.dtype.kind in "biu" else _id_array(taken.tolist())


def _known(labels):
    """Boolean mask of the labels that are not None."""
    return np.array([label is not None for label in labels], dtype=bool)


def _event_index(offsets, rows):
    """Flat positions of every event of ``rows``, row after row, and the
    rows' lengths (a ragged ``arange``)."""
    starts, lengths = offsets[rows], offsets[rows + 1] - offsets[rows]
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - ends + lengths, lengths), lengths


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


class SequenceDataset:
    """Sequences sharing one :class:`EventSchema`, stored as an event table.

    Row ``i``'s events sit at ``offsets[i]:offsets[i + 1]`` of every flat
    array in ``columns`` (one per ``schema.field_names``); ``ids`` follow
    the :func:`_id_array` rule and ``labels`` is a 1-D object array (None
    where unlabeled).  ``dataset[i]``, iteration and :attr:`sequences`
    give :class:`EventSequence` views; ``dataset[rows]`` (an index array
    or a slice) gathers a new table, :func:`repro.data.collate` a batch.
    Only :mod:`repro.data` reads ``offsets`` and ``columns``.
    """

    def __init__(self, sequences, schema, name="dataset"):
        sequences = list(sequences)
        parts = {field: [seq.fields[field] for seq in sequences] for field in schema.field_names}
        lengths = np.fromiter(map(len, parts[schema.time_field]), np.int64, count=len(sequences))
        # One constructor builds on the other: adopt the arrays built here.
        vars(self).update(vars(self.from_columns(
            schema, np.concatenate(([0], np.cumsum(lengths))),
            {field: np.concatenate(values) if values else np.zeros(0)
             for field, values in parts.items()},
            [seq.seq_id for seq in sequences], [seq.label for seq in sequences], name)))

    @classmethod
    def from_columns(cls, schema, offsets, columns, ids, labels=None, name="dataset"):
        """Adopt an event table's arrays without copying them (an ``ids``
        list goes through :func:`_id_array`; ``labels`` default to None)."""
        dataset = cls.__new__(cls)
        dataset.schema, dataset.name = schema, name
        dataset.offsets = np.asarray(offsets, dtype=np.int64)
        dataset.columns = {field: columns[field] for field in schema.field_names}
        dataset.ids = ids if isinstance(ids, np.ndarray) else _id_array(list(ids))
        labels = [None] * len(dataset.ids) if labels is None else labels
        dataset.labels = np.fromiter(labels, dtype=object, count=len(labels))
        return dataset

    def __len__(self):
        return len(self.ids)

    def _view(self, seq_id, label, start, stop):
        """Events ``[start, stop)`` as an unvalidated :class:`EventSequence`."""
        view = object.__new__(EventSequence)
        view.seq_id, view.label, view.fields = seq_id, label, {
            field: column[start:stop] for field, column in self.columns.items()}
        return view

    def _take(self, rows, name):
        """The table of ``rows``, in that order, gathered into new arrays."""
        rows = np.asarray(rows, dtype=np.int64)
        index, lengths = _event_index(self.offsets, rows)
        return self.from_columns(
            self.schema, np.concatenate(([0], np.cumsum(lengths))),
            {field: column[index] for field, column in self.columns.items()},
            _take_ids(self.ids, rows), self.labels[rows], name)

    def __getitem__(self, index):
        if isinstance(index, slice):
            index = np.arange(len(self))[index]
        if isinstance(index, (list, np.ndarray)):
            return self._take(index, self.name)
        row = range(len(self))[index]
        start, stop = self.offsets[row:row + 2].tolist()
        return self._view(self.ids[row:row + 1].tolist()[0],
                          self.labels[row], start, stop)

    def __iter__(self):
        bounds = self.offsets.tolist()
        for row, (seq_id, label) in enumerate(zip(self.ids.tolist(), self.labels)):
            yield self._view(seq_id, label, bounds[row], bounds[row + 1])

    @property
    def sequences(self):
        """A new list of views, one per row: hoist it out of loops."""
        return list(self)

    def validate(self):
        """Check column sizes and categorical codes; returns self."""
        for field, values in self.columns.items():
            if len(values) != self.offsets[-1]:
                raise ValueError("field %r has %d events, expected %d"
                                 % (field, len(values), self.offsets[-1]))
            cardinality = self.schema.categorical.get(field)
            if cardinality and len(values) and (values.min() < 1 or values.max() >= cardinality):
                raise ValueError(
                    "categorical field %r out of range [1, %d)" % (field, cardinality)
                )
        return self

    # ------------------------------------------------------------------
    def labeled(self):
        """Subset of sequences with a known target."""
        return self._take(np.flatnonzero(_known(self.labels)),
                          self.name + ":labeled")

    def unlabeled(self):
        return self._take(np.flatnonzero(~_known(self.labels)),
                          self.name + ":unlabeled")

    def label_array(self):
        """Integer label array; raises if any sequence is unlabeled."""
        for seq_id, label in zip(self.ids.tolist(), self.labels):
            if label is None:
                raise ValueError("sequence %r is unlabeled" % (seq_id,))
        return np.asarray(self.labels.tolist())

    def lengths(self):
        """Events per sequence: ``(N,)`` int64."""
        return np.diff(self.offsets)

    def summary(self):
        """Human-readable dataset statistics."""
        lengths = self.lengths()
        return (
            "%s: %d sequences (%d labeled), %d events, "
            "length min/median/max = %d/%d/%d"
            % (
                self.name,
                len(self),
                _known(self.labels).sum(),
                int(lengths.sum()),
                lengths.min() if len(lengths) else 0,
                int(np.median(lengths)) if len(lengths) else 0,
                lengths.max() if len(lengths) else 0,
            )
        )
