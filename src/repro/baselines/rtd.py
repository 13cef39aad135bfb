"""Replaced token detection (ELECTRA-style) — Section 4.1.3.

15% of the events in each sequence are replaced by events taken from
other sequences in the batch, and a per-event binary head on the RNN
states learns to detect the replacements.  The encoder must model what is
"normal" for the entity — an anomaly-detection flavour the paper notes
works well for credit scoring.

The detection head reads *per-step* states, so the head + BCE run
through autograd on a leaf tensor over the fused forward's cached
states and the leaf gradient feeds back through
``FusedTrainStep.backward(d_states=...)``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..encoders import RnnSeqEncoder, TrxEncoder
from ..nn import Linear, Tensor
from ..nn import functional as F
from .pretrain_common import Pretrainer, leaf_grad

__all__ = ["RTD", "corrupt_batch"]


def corrupt_batch(batch, schema, replace_prob, rng):
    """Replace a fraction of events with events from other rows.

    Event times are kept (replacement would break monotonicity); all other
    fields of the chosen events are overwritten by a random *valid*
    donor event from a different row.  Returns the corrupted twin of
    ``batch`` (a new batch over corrupted copies of its flat fields) and
    the boolean ``(B, T)`` replacement-target matrix.

    Works on the batch's flat fields, whose events run in the mask's
    row-major order.  Donors are drawn vectorised: one uniform draw over
    all valid events per target, with same-row picks redrawn (rejection
    sampling) — the donor distribution is exactly uniform over the other
    rows' valid events, as the old per-position loop produced, without
    the O(replacements x valid_events) Python work.
    """
    if not 0.0 < replace_prob < 1.0:
        raise ValueError("replace_prob must be in (0, 1)")
    lengths = batch.lengths
    cell_rows = np.repeat(np.arange(len(lengths)), lengths)
    fields = {name: values.copy() for name, values in batch.flat_fields.items()}
    replaced = np.zeros(len(cell_rows), dtype=bool)
    if batch.batch_size >= 2:
        chosen = np.flatnonzero(rng.random(len(cell_rows)) < replace_prob)
        # A target is only corruptible when some OTHER row has a valid
        # event to donate (collated batches always do; hand-built ones
        # may concentrate every valid event in one row) — without this
        # filter the redraw loop below could never terminate.
        targets = chosen[lengths[cell_rows[chosen]] < len(cell_rows)]
        if len(targets):
            donors = rng.integers(0, len(cell_rows), size=len(targets))
            same_row = np.flatnonzero(cell_rows[donors] == cell_rows[targets])
            while len(same_row):
                donors[same_row] = rng.integers(0, len(cell_rows),
                                                size=len(same_row))
                same_row = same_row[cell_rows[donors[same_row]]
                                    == cell_rows[targets[same_row]]]
            for name in fields:
                if name != schema.time_field:
                    fields[name][targets] = batch.flat_fields[name][donors]
            replaced[targets] = True
    grid = np.zeros(batch.mask.shape, dtype=bool)
    grid[batch.mask] = replaced
    return replace(batch, flat_fields=fields), grid


class RTD(Pretrainer):
    """RTD pre-training for event sequences.

    ``cell`` selects the recurrent encoder (``"gru"``, the paper
    default, or ``"lstm"``).
    """

    def __init__(self, schema, hidden_size=64, replace_prob=0.15, cell="gru",
                 seed=0):
        rng = np.random.default_rng(seed)
        trx = TrxEncoder(schema, rng=rng)
        self.encoder = RnnSeqEncoder(trx, hidden_size, cell=cell,
                                     normalize=False, rng=rng)
        self.schema = schema
        self.replace_prob = replace_prob
        self.head = Linear(hidden_size, 1, rng=rng)
        self.history = []

    def _detection_loss(self, states, replaced, mask):
        """Per-event BCE of the detection head over valid positions.

        ``states`` is the ``(B, T, H)`` state tensor, a leaf over the
        fused cache.
        """
        logits = self.head(states).reshape(states.shape[0], states.shape[1])
        rows, cols = np.nonzero(mask)
        picked_logits = logits[rows, cols]
        targets = replaced[rows, cols].astype(np.float64)
        return F.binary_cross_entropy_with_logits(picked_logits, targets)

    def _backward(self, fused_step, batch, rng):
        """Detection loss on a corrupted twin of the batch: the head gets
        its gradients from the autograd graph, which stops at the states
        leaf, and the encoder gets them from the fused BPTT."""
        corrupted, replaced = corrupt_batch(batch, self.schema,
                                            self.replace_prob, rng)
        cache = fused_step.forward(corrupted)
        states = Tensor(cache.states, requires_grad=True)
        loss = self._detection_loss(states, replaced, batch.mask)
        loss.backward()
        fused_step.backward(cache, d_states=leaf_grad(states))
        return loss.item()
