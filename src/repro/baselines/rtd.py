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

import numpy as np

from ..data.sequences import SequenceDataset
from ..encoders import RnnSeqEncoder, TrxEncoder
from ..nn import Adam, Linear, Tensor, clip_grad_norm
from ..nn import functional as F
from ..runtime.training import FusedTrainStep
from .pretrain_common import (PretrainConfig, leaf_grad, pretrain_batches,
                              truncate_tail)

__all__ = ["RTD", "corrupt_batch"]


def corrupt_batch(batch, schema, replace_prob, rng):
    """Replace a fraction of events with events from other rows.

    Event times are kept (replacement would break monotonicity); all other
    fields of the chosen positions are overwritten by a random *valid*
    donor position from a different row.  Returns the corrupted fields and
    the boolean replacement-target matrix.

    Donors are drawn vectorised: one uniform draw over all valid
    positions per target, with same-row picks redrawn (rejection
    sampling) — the donor distribution is exactly uniform over the other
    rows' valid events, as the old per-position loop produced, without
    the O(replacements x valid_events) Python work.
    """
    if not 0.0 < replace_prob < 1.0:
        raise ValueError("replace_prob must be in (0, 1)")
    mask = batch.mask
    valid_b, valid_t = np.nonzero(mask)
    replaced = np.zeros_like(mask)
    fields = {name: values.copy() for name, values in batch.fields.items()}
    if batch.batch_size < 2:
        return fields, replaced

    chosen = rng.random(len(valid_b)) < replace_prob
    target_rows = valid_b[chosen]
    target_cols = valid_t[chosen]
    # A target is only corruptible when some OTHER row has a valid
    # event to donate (collated batches always do; hand-built ones may
    # concentrate every valid event in one row) — without this filter
    # the redraw loop below could never terminate.
    row_valid = mask.sum(axis=1)
    has_donor = row_valid[target_rows] < len(valid_b)
    target_rows = target_rows[has_donor]
    target_cols = target_cols[has_donor]
    if len(target_rows) == 0:
        return fields, replaced
    picks = rng.integers(0, len(valid_b), size=len(target_rows))
    same_row = np.flatnonzero(valid_b[picks] == target_rows)
    while len(same_row):
        picks[same_row] = rng.integers(0, len(valid_b), size=len(same_row))
        same_row = same_row[valid_b[picks[same_row]] == target_rows[same_row]]
    donor_rows, donor_cols = valid_b[picks], valid_t[picks]
    for name in fields:
        if name == schema.time_field:
            continue
        fields[name][target_rows, target_cols] = \
            batch.fields[name][donor_rows, donor_cols]
    replaced[target_rows, target_cols] = True
    return fields, replaced


class RTD:
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

    def _parameters(self):
        return list(self.encoder.parameters()) + list(self.head.parameters())

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

    def _corrupted(self, batch, rng):
        """The corrupted twin of ``batch`` plus its replacement targets."""
        corrupted_fields, replaced = corrupt_batch(
            batch, self.schema, self.replace_prob, rng
        )
        corrupted = type(batch)(
            fields=corrupted_fields,
            lengths=batch.lengths,
            seq_ids=batch.seq_ids,
            labels=batch.labels,
            schema=batch.schema,
        )
        return corrupted, replaced

    def fit(self, dataset, config=None):
        """Pre-train on all sequences (labels unused)."""
        config = config or PretrainConfig()
        fused_step = FusedTrainStep(self.encoder, precision=config.precision)
        rng = np.random.default_rng(config.seed)
        truncated = SequenceDataset(
            [truncate_tail(seq, config.max_seq_length) for seq in dataset],
            dataset.schema,
        )
        optimizer = Adam(self._parameters(), lr=config.learning_rate)
        self.encoder.train()
        for epoch in range(config.num_epochs):
            losses = []
            for batch in pretrain_batches(truncated, config, rng):
                if batch.batch_size < 2:
                    continue
                corrupted, replaced = self._corrupted(batch, rng)
                cache = fused_step.forward(corrupted)
                states = Tensor(cache.states, requires_grad=True)
                loss = self._detection_loss(states, replaced, batch.mask)
                optimizer.zero_grad()
                # This graph stops at the states leaf: the head gets its
                # gradients here and the encoder gets them from the
                # fused BPTT below.
                loss.backward()
                fused_step.backward(cache, d_states=leaf_grad(states))
                if config.clip_norm:
                    clip_grad_norm(self._parameters(), config.clip_norm)
                optimizer.step()
                losses.append(loss.item())
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            self.history.append(mean_loss)
            if config.verbose:
                print("rtd epoch %3d  loss %.4f" % (epoch, mean_loss))
        self.encoder.eval()
        return self

    def embed(self, dataset, batch_size=64):
        from ..core.inference import embed_dataset

        return embed_dataset(self.encoder, dataset, batch_size=batch_size)
