"""Event-level encoder phi_evt (Section 3.4).

Each event's categorical attributes pass through embedding tables (the
linear-layer-on-one-hot of the paper) and its numerical attributes through
batch normalisation; the results are concatenated into the event
representation ``z_t``.  A derived time-delta feature (days since the
previous event) is added by default — activity tempo is the one signal the
raw attributes do not carry.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import EventSchema
from ..nn import BatchNorm1d, Embedding, Module, ModuleDict, Tensor, concat

__all__ = ["TrxEncoder", "default_embedding_dim"]


def default_embedding_dim(cardinality):
    """Heuristic embedding width: grows slowly with cardinality, capped."""
    return int(min(16, max(2, round(cardinality**0.5) + 1)))


class TrxEncoder(Module):
    """Encode a :class:`PaddedBatch` into per-event vectors ``(B, T, D)``."""

    def __init__(self, schema, embedding_dims=None, use_time_delta=True,
                 numeric_transform="log1p", rng=None):
        super().__init__()
        if not isinstance(schema, EventSchema):
            raise TypeError("schema must be an EventSchema")
        if numeric_transform not in ("log1p", "identity"):
            raise ValueError("unknown numeric_transform %r" % numeric_transform)
        rng = rng or np.random.default_rng()
        self.schema = schema
        self.use_time_delta = use_time_delta
        self.numeric_transform = numeric_transform

        embedding_dims = dict(embedding_dims or {})
        self.embeddings = ModuleDict()
        self._embedding_dims = {}
        for name, cardinality in schema.categorical.items():
            dim = embedding_dims.get(name, default_embedding_dim(cardinality))
            self.embeddings[name] = Embedding(cardinality, dim, padding_idx=0, rng=rng)
            self._embedding_dims[name] = dim

        self._numeric_fields = list(schema.numerical)
        num_numeric = len(self._numeric_fields) + int(use_time_delta)
        self.numeric_norm = BatchNorm1d(num_numeric) if num_numeric else None

    @property
    def output_dim(self):
        numeric = len(self._numeric_fields) + int(self.use_time_delta)
        return sum(self._embedding_dims.values()) + numeric

    def _numeric_array(self, batch, prev_times=None):
        """Stack numeric features into ``(B, T, F)`` with the transform applied.

        ``prev_times`` optionally supplies the timestamp preceding each
        sequence's first event (used by incremental inference so the
        boundary time-delta matches a full recompute).
        """
        deltas = None
        if self.use_time_delta:
            times = batch.fields[self.schema.time_field]
            if prev_times is None:
                prepend = times[:, :1]
            else:
                prepend = np.asarray(prev_times, dtype=np.float64).reshape(-1, 1)
            deltas = np.diff(times, axis=1, prepend=prepend)
            deltas = deltas * batch.mask  # zero deltas at padding
        return self._stack_numeric(batch.fields, deltas)

    def _numeric_cells(self, batch):
        """``_numeric_array(batch)[batch.mask]`` as ``(N, F)`` rows, read
        from the batch's flat fields without building its grid."""
        deltas = None
        if self.use_time_delta:
            times = batch.flat_fields[self.schema.time_field]
            deltas = np.diff(times, prepend=times[:1])
            # Each row's first event has no predecessor in the row.
            lengths = batch.lengths
            firsts = np.cumsum(lengths) - lengths
            deltas[firsts[lengths > 0]] = 0.0
        return self._stack_numeric(batch.flat_fields, deltas)

    def _stack_numeric(self, fields, deltas):
        """The transformed numeric fields and the time deltas, stacked on
        a new last axis; elementwise, so any layout of ``fields``."""
        columns = []
        for name in self._numeric_fields:
            values = fields[name]
            if self.numeric_transform == "log1p":
                values = np.sign(values) * np.log1p(np.abs(values))
            columns.append(values)
        if deltas is not None:
            columns.append(np.log1p(np.maximum(deltas, 0.0)))
        return np.stack(columns, axis=-1)

    def check_batch_schema(self, batch):
        """Reject batches collated under a different schema.

        Shared by the autograd forward and the fused serving kernels so
        the validation cannot drift between the two paths.
        """
        if batch.schema is not None and batch.schema != self.schema:
            raise ValueError(
                "batch was collated under a different schema than this "
                "encoder was built for (fields %s vs %s)"
                % (sorted(batch.flat_fields), list(self.schema.field_names))
            )

    def forward(self, batch, prev_times=None):
        self.check_batch_schema(batch)
        parts = []
        for name, _ in self.schema.categorical.items():
            parts.append(self.embeddings[name](batch.fields[name]))
        if self.numeric_norm is not None:
            numeric = Tensor(self._numeric_array(batch, prev_times=prev_times))
            parts.append(self.numeric_norm(numeric, mask=batch.mask))
        if not parts:
            raise ValueError("schema has no event fields to encode")
        return concat(parts, axis=-1) if len(parts) > 1 else parts[0]
