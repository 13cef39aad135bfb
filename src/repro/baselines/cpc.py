"""Contrastive Predictive Coding (van den Oord et al., 2018) — Section 4.1.3.

The autoregressive context ``c_t = GRU(z_{1..t})`` predicts future event
representations ``z_{t+k}`` through per-horizon linear maps ``W_k``; the
InfoNCE objective scores the true future against the other sequences'
events at the same offset (the in-batch negatives).

After pre-training, the RNN's final context state is the sequence
embedding used for downstream tasks.

The objective consumes *per-step* context states and event
representations, so the loss runs through autograd on two leaf tensors
over the fused forward's cached arrays (``FusedForwardCache.states`` /
``.events``) and the leaf gradients feed back through
``FusedTrainStep.backward(d_states=..., d_events=...)`` — the per-step
counterpart of the loss-gradient interface.
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

__all__ = ["CPC"]


class CPC:
    """CPC pre-training for event sequences.

    Parameters
    ----------
    schema:
        Dataset schema.
    hidden_size:
        Context (and embedding) dimensionality.
    num_horizons:
        How many future steps K are predicted (W_1 ... W_K).
    cell:
        Recurrent context network: ``"gru"`` (paper default) or
        ``"lstm"``.
    """

    def __init__(self, schema, hidden_size=64, num_horizons=3, cell="gru",
                 seed=0):
        if num_horizons < 1:
            raise ValueError("num_horizons must be >= 1")
        rng = np.random.default_rng(seed)
        trx = TrxEncoder(schema, rng=rng)
        # The context network; embeddings are raw final states (no
        # unit-norm head — CPC's scores are unnormalised dot products).
        self.encoder = RnnSeqEncoder(trx, hidden_size, cell=cell,
                                     normalize=False, rng=rng)
        self.schema = schema
        self.num_horizons = num_horizons
        self.predictors = [
            Linear(hidden_size, trx.output_dim, rng=rng)
            for _ in range(num_horizons)
        ]
        self.history = []

    def _parameters(self):
        params = list(self.encoder.parameters())
        for predictor in self.predictors:
            params.extend(predictor.parameters())
        return params

    def _info_nce(self, states, events, mask):
        """InfoNCE loss from per-step context states and event targets.

        ``states`` is the ``(B, T, H)`` context tensor, ``events`` the
        ``(B, T, D)`` event representations ``z`` — leaf tensors over the
        fused forward's cached arrays.  Returns ``(loss, num_terms)``.

        An anchor ``(b, t)`` for horizon ``k`` counts only when *both*
        position ``t`` (the context read) and position ``t+k`` (the
        target) are real events — the two conditions are checked
        explicitly, so the loss stays correct for any mask shape, not
        just right-padded prefix masks where ``mask[t+k]`` implies
        ``mask[t]``.
        """
        batch_size, steps = mask.shape
        total, terms = None, 0
        for k, predictor in enumerate(self.predictors, start=1):
            if steps <= k:
                continue
            pred = predictor(states[:, :steps - k, :])   # (B, T-k, D)
            target = events[:, k:, :]                     # (B, T-k, D)
            # (T-k, B, D) x (T-k, D, B) -> per-offset score matrices.
            scores = pred.transpose(0, 1) @ target.transpose(0, 1).transpose(-1, -2)
            target_valid = mask[:, k:]                    # (B, T-k)
            # Anchor t contributes iff its context t AND target t+k are
            # real events.
            anchor_valid = mask[:, :steps - k] & mask[:, k:]
            # Mask out columns whose target is padding.
            col_mask = ~target_valid.T[:, None, :]        # (T-k, 1, B)
            scores = scores.masked_fill(
                np.broadcast_to(col_mask, scores.shape), -1e9
            )
            logp = F.log_softmax(scores, axis=-1)
            t_idx, b_idx = np.nonzero(anchor_valid.T)     # valid (t, b) anchors
            if len(t_idx) == 0:
                continue
            picked = logp[t_idx, b_idx, b_idx]
            term = -picked.sum()
            total = term if total is None else total + term
            terms += len(t_idx)
        if total is None:
            raise ValueError("batch too short for any prediction horizon")
        return total * (1.0 / terms), terms

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
                cache = fused_step.forward(batch)
                states = Tensor(cache.states, requires_grad=True)
                events = Tensor(cache.events, requires_grad=True)
                loss, _ = self._info_nce(states, events, batch.mask)
                optimizer.zero_grad()
                # This graph stops at the two leaves: the predictors get
                # their gradients here and the encoder gets them from
                # the fused BPTT below.
                loss.backward()
                fused_step.backward(cache, d_states=leaf_grad(states),
                                    d_events=leaf_grad(events))
                if config.clip_norm:
                    clip_grad_norm(self._parameters(), config.clip_norm)
                optimizer.step()
                losses.append(loss.item())
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            self.history.append(mean_loss)
            if config.verbose:
                print("cpc epoch %3d  loss %.4f" % (epoch, mean_loss))
        self.encoder.eval()
        return self

    def embed(self, dataset, batch_size=64):
        from ..core.inference import embed_dataset

        return embed_dataset(self.encoder, dataset, batch_size=batch_size)
