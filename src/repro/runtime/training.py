"""Fused training runtime: graph-free forward+backward for the encoder.

This is the only training engine.  :class:`FusedTrainStep` runs a repro
sequence encoder's whole training forward — event encoding with
*training-mode* batch norm, the recurrence over a length-sorted packed
batch (or the attention stack for transformers), the unit-norm head — in
raw numpy, and then backpropagates a loss gradient through hand-derived
BPTT (:func:`repro.runtime.kernels.rnn_backward`) or the attention
reverse pass into the very :class:`~repro.nn.Parameter` objects the
optimisers update.  No Tensor graph is ever built for the encoder.

The split of labour is the **loss-gradient interface**: the encoder side
(the ``(B, T)`` hot path) is fused, while the loss itself still runs
through autograd on leaf tensors.  Two families of objectives fit the
interface:

- **final-embedding** objectives — a function of the small ``(B, H)``
  embedding matrix (every metric-learning loss in :mod:`repro.losses`,
  the NSP/SOP pair heads) — driven via :func:`loss_gradient` and
  :meth:`FusedTrainStep.backward`'s ``d_embeddings``;
- **per-step** objectives — functions of the cached per-step hidden
  states and (for CPC) the trx-encoder event representations — driven by
  wrapping :attr:`FusedForwardCache.states` / ``.events`` in leaf
  tensors and feeding the leaf gradients back through ``d_states`` /
  ``d_events``, which route into
  :func:`repro.runtime.kernels.rnn_backward`'s per-step ``d_outputs``
  interface and the embedding scatter path.

The supervised fine-tuning head (softmax over classes) is simpler than
either: cross-entropy through a single ``Linear`` has a closed-form
gradient, so :func:`softmax_head_gradient` /
:meth:`FusedTrainStep.backward_classification` hand-derive it too and no
autograd graph is built at all.

Equivalence contract: gradients match reverse-mode autograd through the
:mod:`repro.nn` modules to < 1e-8 and batch-norm running statistics
update identically, so a fused optimisation trajectory is the autograd
one — property-tested by ``tests/runtime/test_fused_training.py`` and,
loop by loop, against the test-side autograd oracle in
``tests/oracles.py``.  The weights live in the same
:class:`~repro.nn.CellWeights` layout, so a fused-trained encoder drops
directly into :class:`~repro.runtime.FusedEncoderRuntime` and the serving
stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.tensor import Tensor
from . import attention, kernels
from .engine import FusedEncoderRuntime

__all__ = ["FusedTrainStep", "FusedForwardCache", "loss_gradient",
           "softmax_head_gradient", "softmax_head_probabilities"]


def loss_gradient(loss_fn, embeddings, groups, rng=None):
    """Evaluate a loss and its gradient wrt a raw embedding matrix.

    The adapter between the fused encoder and the autograd losses: wraps
    the ``(B, H)`` numpy ``embeddings`` in a leaf
    :class:`~repro.nn.Tensor`, calls ``loss_fn(leaf, groups, rng=rng)``
    and backpropagates through the (small) loss graph only.  Returns
    ``(loss_value, d_embeddings)``.

    Because the loss sees the same embedding values and the same ``rng``,
    negative sampling, pair mining and every loss variant behave exactly
    as they would on the encoder's own autograd output.
    """
    leaf = Tensor(embeddings, requires_grad=True)
    loss = loss_fn(leaf, groups, rng=rng)
    loss.backward()
    grad = leaf.grad
    if grad is None:
        grad = np.zeros_like(leaf.data)
    return loss.item(), grad


def _head_softmax_parts(head, embeddings):
    """The one softmax-head forward: ``(shifted_logits, exp, row_sums)``.

    Shared by :func:`softmax_head_gradient` (training) and
    :func:`softmax_head_probabilities` (inference) so the two paths can
    never drift numerically: max-shifted logits of ``head(embeddings)``
    in raw numpy, their exponentials, and the per-row partition sums.
    """
    logits = embeddings @ head.weight.data.T
    if head.bias is not None:
        logits = logits + head.bias.data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return shifted, exp, exp.sum(axis=-1, keepdims=True)


def softmax_head_probabilities(head, embeddings):
    """Class probabilities of a softmax ``Linear`` head, raw numpy.

    ``embeddings`` is the ``(B, H)`` embedding matrix in any float
    dtype (promoted to float64: head math is always reference
    precision).  The inference half of the fused classification path (what
    ``SequenceClassifier.predict_proba`` applies to fused-runtime
    embeddings).  Matches ``F.softmax(head(embeddings))`` on the Tensor
    path to float64 rounding.
    """
    _, exp, total = _head_softmax_parts(
        head, np.asarray(embeddings, dtype=np.float64))
    return exp / total


def softmax_head_gradient(head, embeddings, targets):
    """Hand-derived forward+backward of a softmax classification head.

    The fine-tuning analogue of :func:`loss_gradient`, with no autograd
    graph at all: runs the ``(B, H)`` embedding matrix through the
    :class:`~repro.nn.Linear` ``head`` and the mean cross-entropy in raw
    numpy, accumulates the head's weight/bias gradients (additive into
    ``param.grad``, like everything on the fused path), and returns
    ``(loss_value, d_embeddings)`` ready for
    :meth:`FusedTrainStep.backward`.

    The closed form: with ``p = softmax(e W^T + b)`` and one-hot targets
    ``y``, the logit gradient of the mean NLL is ``(p - y) / B``; the
    head gradients and ``d_embeddings`` follow by the linear-layer chain
    rule.  Matches ``F.cross_entropy(head(embeddings), targets)`` +
    ``Tensor.backward`` to float64 rounding.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    targets = np.asarray(targets)  # reprolint: disable=RP001 -- int labels
    shifted, exp, total = _head_softmax_parts(head, embeddings)
    rows = np.arange(len(targets), dtype=np.intp)
    loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, targets]))
    d_logits = exp / total
    d_logits[rows, targets] -= 1.0
    d_logits /= len(targets)
    _accumulate(head.weight, d_logits.T @ embeddings)
    if head.bias is not None:
        _accumulate(head.bias, d_logits.sum(axis=0))
    return loss, d_logits @ head.weight.data


@dataclass
class FusedForwardCache:
    """Everything one fused training forward retains for its backward.

    ``embeddings`` (the post-head ``(B, H)`` matrix, batch order) plus
    the :attr:`states` / :attr:`events` views are the only things
    callers should read; the rest is consumed by
    :meth:`FusedTrainStep.backward` exactly once.
    """

    batch: object            # the PaddedBatch the step ran on
    rnn_cache: object        # kernels.RnnTrainCache or
    #                          attention.TransformerTrainCache
    hidden: np.ndarray       # (B, H) final states, batch order, pre-head
    embeddings: np.ndarray   # (B, H) post-head embeddings, batch order
    bn_scaled: np.ndarray    # (B, T, F) normalised numericals (or None)

    @property
    def states(self):
        """Per-step hidden states ``(B, T, H)`` in batch order.

        Identical to the autograd ``encoder.rnn(x, mask=...)`` outputs:
        states at padded steps hold the frozen value of the last real
        step.  Per-step objectives (CPC, RTD) wrap this in a leaf tensor
        and feed the leaf gradient back as ``d_states``.
        """
        return self.rnn_cache.states

    @property
    def events(self):
        """Trx-encoder event representations ``(B, T, D)``, batch order.

        The same array the recurrence consumed (training-mode batch
        norm included).  CPC scores its predictions against these;
        gradients taken wrt them feed back as ``d_events``.
        """
        return self.rnn_cache.x


class FusedTrainStep:
    """Graph-free forward+backward for a recurrent sequence encoder.

    Usage (what ``ContrastiveTrainer.train_step`` does)::

        step = FusedTrainStep(encoder)
        cache = step.forward(batch)
        value, d_emb = loss_gradient(loss_fn, cache.embeddings,
                                     batch.seq_ids, rng)
        optimizer.zero_grad()
        step.backward(cache, d_emb)
        optimizer.step()

    Training batches from the CoLES augmentation pipeline arrive
    unsorted, and their random slices leave much of the ``(B, T)`` grid
    padded.  The recurrent kernels sort the rows longest-first and pack
    the batch's real cells themselves, so the input projection, the
    recurrence, its activation cache and its BPTT touch only the real
    cells, on shrinking active row prefixes, while batch statistics,
    loss inputs and all gradients stay in the batch's own row order.

    The packed plans come from a
    :class:`~repro.runtime.FusedEncoderRuntime` of the same encoder and
    precision that the step owns (:attr:`runtime`), so training and
    serving share one plan cache.  Gradients are written through
    :meth:`~repro.runtime.FusedEncoderRuntime.plan_parameters`, the map
    that also keys the cached weight plan, so the step always trains the
    encoder's current parameters.  The optimizer rebinds ``param.data``
    each step, which invalidates the cached plan, so training always
    runs on the freshly updated weights.

    Transformer encoders run the same contract through the fused
    attention kernels (:mod:`repro.runtime.attention`): graph-free
    forward with training-mode batch norm and stream-aligned dropout
    draws, hand-derived backward (softmax-Jacobian attention, LayerNorm,
    GELU), gradients into the same live parameters.  Attention cost is
    set by the padded batch shape, not by active row prefixes.

    ``precision`` selects the compute/cache dtype of the fused step:
    ``"float64"`` (the default — gradient-equivalent to autograd, the
    parity reference) or ``"float32"`` (mixed precision: forward,
    cache and gradients in float32, master weights and optimizer state
    stay float64).

    Raises ``TypeError`` for encoders outside the two fused families.
    """

    def __init__(self, encoder, precision="float64"):
        # Raises TypeError for encoders outside the two families.
        self.runtime = FusedEncoderRuntime(encoder, precision=precision)
        self.encoder = encoder
        self.dtype = self.runtime.dtype
        self.precision = self.runtime.precision

    @property
    def is_recurrent(self):
        """Whether the step drives the RNN kernels (else the attention path)."""
        return self.runtime.is_recurrent

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(self, batch):
        """Run the training forward; returns a :class:`FusedForwardCache`.

        Training-mode semantics match ``encoder.embed(batch)`` with the
        encoder in train mode: batch norm uses (and updates) the masked
        batch statistics.  In eval mode the running statistics are used,
        exactly like the autograd modules.
        """
        x, bn_scaled = kernels.encode_events_train(
            self.encoder.trx_encoder, batch, plan=self.runtime.encode_plan())
        if self.is_recurrent:
            cache = kernels.rnn_forward_train(
                self.runtime.weight_plan(), x, lengths=batch.lengths)
            hidden = cache.last[0] if cache.kind == "lstm" else cache.last
        else:
            cache = attention.transformer_forward_train(
                self.runtime.weight_plan(), x, mask=batch.mask)
            hidden = cache.pooled
        if self.encoder.normalize:
            embeddings = kernels.l2_normalize_rows(hidden)
        else:
            # reprolint: disable=RP001 -- defensive copy preserves the
            # kernel's policy dtype by construction.
            embeddings = np.array(hidden, copy=True)
        return FusedForwardCache(batch=batch, rnn_cache=cache, hidden=hidden,
                                 embeddings=embeddings, bn_scaled=bn_scaled)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(self, cache, d_embeddings=None, d_states=None,
                 d_events=None):
        """Accumulate encoder gradients from an objective's gradients.

        ``d_embeddings`` is dLoss/dEmbeddings, ``(B, H)`` in batch order
        (what :func:`loss_gradient` returns).  Per-step objectives pass
        ``d_states`` — dLoss/dStates ``(B, T, H)`` over the cached
        per-step hidden states (routed through the kernels' ``d_outputs``
        BPTT interface) — and/or ``d_events`` — dLoss/dEvents
        ``(B, T, D)`` over the event representations the objective read
        directly (CPC's targets), added to the recurrence's input
        gradient before the embedding/batch-norm scatter.  All three are
        optional and additive, in batch order.

        Gradients accumulate into ``param.grad`` of the live encoder
        parameters — additive, like ``Tensor.backward`` — so clipping
        and the optimisers work unchanged.  A cache must not be used
        twice.
        """
        if d_embeddings is None:
            d_hidden = np.zeros_like(cache.hidden)
        else:
            d_hidden = np.asarray(d_embeddings, dtype=self.dtype)
            if self.encoder.normalize:
                d_hidden = kernels.l2_normalize_rows_backward(cache.hidden,
                                                              d_hidden)
        if d_states is not None:
            d_states = np.asarray(d_states, dtype=self.dtype)
        if self.is_recurrent:
            grads = kernels.rnn_backward(cache.rnn_cache.plan,
                                         cache.rnn_cache, d_hidden,
                                         d_outputs=d_states)
        else:
            grads = attention.transformer_backward(
                self.runtime.weight_plan(), cache.rnn_cache, d_hidden,
                d_states=d_states)
        for name, param in self.runtime.plan_parameters().items():
            _accumulate(param, grads.get(name))
        d_x = grads["d_x"]
        if d_events is not None:
            d_x = d_x + np.asarray(d_events, dtype=self.dtype)
        self._encode_events_backward(cache.batch, d_x, cache.bn_scaled)

    def backward_classification(self, cache, head, targets):
        """Supervised fine-tuning backward: softmax head + cross-entropy.

        Runs :func:`softmax_head_gradient` on the cached embeddings (the
        head's gradients accumulate into its live parameters) and routes
        the resulting ``d_embeddings`` through :meth:`backward` into the
        encoder — the whole fine-tuning step is hand-derived, no Tensor
        graph anywhere.  ``targets`` are integer class labels ``(B,)`` in
        batch order.  Returns the scalar cross-entropy value.  Like
        :meth:`backward`, a cache must not be used twice.
        """
        loss, d_embeddings = softmax_head_gradient(head, cache.embeddings,
                                                   targets)
        self.backward(cache, d_embeddings)
        return loss

    def _encode_events_backward(self, batch, d_x, bn_scaled):
        """Route ``dLoss/dx`` into the embedding tables and batch norm.

        Splits the event-representation gradient along the concat layout
        of ``_encode_events_train``: per-field scatter-adds into the
        embedding tables (the ``take_rows`` gradient) and the affine batch
        norm gradients.  The batch statistics are constants in the
        autograd path, so — exactly like there — no gradient flows into
        the raw numeric features.
        """
        trx = self.encoder.trx_encoder
        offset = 0
        for name in trx.schema.categorical:
            weight = trx.embeddings[name].weight
            dim = weight.data.shape[1]
            d_table = np.zeros_like(weight.data)
            _scatter_add_rows(d_table, batch.fields[name],
                              d_x[..., offset:offset + dim])
            _accumulate(weight, d_table)
            offset += dim
        norm = trx.numeric_norm
        if norm is not None:
            d_out = d_x[..., offset:]
            _accumulate(norm.weight, (d_out * bn_scaled).sum(axis=(0, 1)))
            _accumulate(norm.bias, d_out.sum(axis=(0, 1)))


def _scatter_add_rows(table, indices, grads):
    """Sum ``grads`` rows into ``table`` rows by index (``np.add.at``
    semantics, segment-sum implementation).

    A stable argsort groups occurrences of each index, and
    ``np.add.reduceat`` sums every group left-to-right — the same
    addition order per table row as ``np.add.at``'s sequential walk, so
    same-dtype results are bitwise identical (under the mixed float32
    policy the segment sum rounds in float32 before the float64 table
    add, within the policy's drift bound), but the inner loop is
    vectorised C instead of per-element dispatch (~10x on the training
    hot path).
    """
    idx = np.asarray(indices).ravel()  # reprolint: disable=RP001 -- int ids
    if idx.size == 0:
        return
    flat = np.ascontiguousarray(grads).reshape(idx.size, -1)
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.diff(sorted_idx)) + 1
    starts = np.concatenate([[0], starts])
    sums = np.add.reduceat(flat[order], starts, axis=0)
    table[sorted_idx[starts]] += sums


def _accumulate(param, grad):
    """Add a raw-numpy gradient into a Parameter (None-safe both sides)."""
    if param is None or grad is None:
        return
    if param.grad is None:
        param.grad = grad
    else:
        param.grad = param.grad + grad
