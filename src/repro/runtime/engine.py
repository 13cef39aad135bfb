"""The fused inference engine: one encoder, two execution paths.

:class:`FusedEncoderRuntime` wraps a trained sequence encoder — a
recurrent :class:`RnnSeqEncoder` or a
:class:`~repro.encoders.TransformerSeqEncoder` — and runs its forward
pass through the graph-free kernels of :mod:`repro.runtime.kernels`
(RNN cells) or :mod:`repro.runtime.attention` (the transformer stack).
Weights are read through live parameter views on every call — each
packed plan (pre-cast, pre-transposed, bias-folded) sits in one cache
keyed on the live parameter buffers it reads and is rebuilt whenever
one of them changes identity — so the runtime always serves the
encoder's current parameters: fine-tune, then keep serving, no re-wrap
needed.

Two execution knobs make up the serving policy:

- ``precision`` — ``"float32"`` (the default: half the bytes per GEMM,
  roughly double the throughput, embedding drift vs the float64
  reference property-bounded by the precision tests) or ``"float64"``
  (bit-comparable to the Tensor path, the parity-test reference);
- ``workers`` — independent length-buckets of a dataset pass run
  concurrently on a thread pool (BLAS releases the GIL).  ``workers=1``
  is the serial path; results are bit-identical for any worker count
  because each planned batch is computed exactly as in the serial order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from operator import is_

import numpy as np

from ..data.batches import collate
from ..data.bucketing import plan_batches, plan_cell_batches
from ..encoders.seq_encoder import RnnSeqEncoder, TransformerSeqEncoder
from . import attention, kernels

__all__ = ["FusedEncoderRuntime"]

#: Serving-side default of the precision policy (training defaults to
#: float64 — see ``TrainConfig.precision``).
DEFAULT_PRECISION = "float32"


class FusedEncoderRuntime:
    """Graph-free serving runtime for any repro sequence encoder.

    Recurrent encoders run the RNN kernels of
    :mod:`repro.runtime.kernels`; transformer encoders run the fused
    attention kernels of :mod:`repro.runtime.attention` (no autograd
    graph either way).  The *incremental* surface — :meth:`advance`,
    :meth:`default_state` — stays recurrence-specific: a transformer
    cannot fold new events into a carried state (which is exactly why
    the paper deploys GRUs for the streaming ETL, Section 4.3.1), so
    those methods raise ``TypeError`` for transformer runtimes while the
    bulk paths work for every encoder.

    The encoder's train/eval mode is left untouched: the kernels always
    read the batch-norm *running* statistics and never apply dropout
    (eval semantics), so the runtime serves correctly even mid-training
    and never freezes the encoder's training-mode statistics as a side
    effect.

    Parameters
    ----------
    encoder:
        The :class:`~repro.encoders.RnnSeqEncoder` or
        :class:`~repro.encoders.TransformerSeqEncoder` to serve.
    precision:
        Compute/state dtype policy: ``"float32"`` (default) or
        ``"float64"`` (the parity reference).
    workers:
        Thread-pool width for bucket-parallel dataset passes (1 = serial,
        any value is bit-identical to serial).
    """

    def __init__(self, encoder, precision=DEFAULT_PRECISION, workers=1):
        if not isinstance(encoder, (RnnSeqEncoder, TransformerSeqEncoder)):
            raise TypeError(
                "the fused runtime requires an RnnSeqEncoder or "
                "TransformerSeqEncoder (got %s)" % type(encoder).__name__
            )
        self.encoder = encoder
        self.dtype = kernels.resolve_precision(precision)
        self.precision = kernels.precision_name(self.dtype)
        self.workers = max(1, int(workers))
        self._weight_plan = None
        self._encode_plan = None

    @classmethod
    def of(cls, encoder, precision=None, workers=None):
        """``encoder`` as a runtime: wrapped, or reused if it is one.

        ``precision`` and ``workers`` of None keep the defaults (or the
        reused runtime's own).  A reused runtime keeps its precision —
        asking it for a different one raises ``ValueError`` — and takes
        ``workers`` when one is given.
        """
        if not isinstance(encoder, cls):
            return cls(encoder,
                       DEFAULT_PRECISION if precision is None else precision,
                       1 if workers is None else workers)
        if precision is not None and encoder.precision != precision:
            raise ValueError("precision %r conflicts with the runtime's %r"
                             % (precision, encoder.precision))
        if workers is not None:
            encoder.workers = max(1, int(workers))
        return encoder

    # ------------------------------------------------------------------
    @property
    def is_recurrent(self):
        """Whether the wrapped encoder carries recurrent state."""
        return isinstance(self.encoder, RnnSeqEncoder)

    @property
    def state_kind(self):
        """The stored-state family: ``"gru"``, ``"lstm"`` or ``"transformer"``."""
        return self.encoder.cell if self.is_recurrent else "transformer"

    @property
    def is_lstm(self):
        """Whether states are ``(h, c)`` pairs (LSTM) or plain ``(B, H)``."""
        return self.state_kind == "lstm"

    @property
    def output_dim(self):
        """Embedding dimensionality ``d`` of the wrapped encoder."""
        return self.encoder.output_dim

    def plan_parameters(self):
        """Name -> live :class:`~repro.nn.Parameter` map of the weight plan.

        :meth:`~repro.nn.rnn._RecurrentBase.cell_parameters` for recurrent
        encoders (a parameter that is not learnt maps to None),
        :func:`~repro.runtime.attention.transformer_parameters` for
        transformers.  Walked from the live module tree on every call:
        it is both the key of :meth:`weight_plan` and the map
        :meth:`~repro.runtime.FusedTrainStep.backward` accumulates
        gradients into.
        """
        if self.is_recurrent:
            return self.encoder.rnn.cell_parameters()
        return attention.transformer_parameters(self.encoder)

    def weight_plan(self):
        """The cached packed weight plan of the wrapped encoder.

        A :class:`~repro.runtime.kernels.WeightPlan` for recurrent
        encoders, a :class:`~repro.runtime.attention.TransformerPlan` for
        transformers, keyed on :meth:`plan_parameters` (see
        :meth:`_cached`), so the runtime keeps serving live weights with
        zero per-call repacking in the steady state.
        """
        def build():
            """Pack the live weights in the policy dtype."""
            if self.is_recurrent:
                return kernels.build_weight_plan(
                    self.encoder.rnn.export_weights(), self.precision)
            return attention.build_transformer_plan(self.encoder,
                                                    self.precision)

        return self._cached("_weight_plan", self.plan_parameters().values(),
                            build)

    def encode_plan(self):
        """The cached :class:`~repro.runtime.kernels.EncodePlan`.

        Keyed on the categorical embedding tables (see :meth:`_cached`).
        """
        trx = self.encoder.trx_encoder
        tables = [trx.embeddings[name].weight
                  for name in trx.schema.categorical]
        return self._cached(
            "_encode_plan", tables,
            lambda: kernels.build_encode_plan(trx, self.precision))

    def _cached(self, slot, params, build):
        """The plan in ``slot``, rebuilt by ``build()`` when its key moved.

        The key is the identity of each live ``param.data`` buffer (None
        for a parameter that is not learnt), read from the module tree on
        every call.  The optimisers, ``load_state_dict`` and a replaced
        submodule all bind fresh buffers, so the plan is rebuilt exactly
        when one of them changed the weights it reads.  The slot holds
        ``(key, plan)``, None until first use.
        """
        key = [None if param is None else param.data for param in params]
        cached = getattr(self, slot)
        if (cached is not None and len(cached[0]) == len(key)
                and all(map(is_, cached[0], key))):
            return cached[1]
        plan = build()
        setattr(self, slot, (key, plan))
        return plan

    # ------------------------------------------------------------------
    def encode_events(self, batch, prev_times=None):
        """Event representations ``z_t`` as raw ``(B, T, D)`` numpy."""
        return kernels.encode_events(self.encoder.trx_encoder, batch,
                                     prev_times=prev_times,
                                     plan=self.encode_plan())

    def forward(self, batch, initial=None, prev_times=None,
                return_outputs=False):
        """Run the fused encoder forward over a padded batch.

        Returns ``(outputs, last_state)``.  For recurrent encoders
        ``last_state`` is ``(B, H)`` (or an ``(h, c)`` pair for LSTM)
        *before* the normalisation head — the state to persist for
        incremental updates.  For transformers ``last_state`` is the
        masked-mean pooled ``(B, H)`` embedding (pre-head) and
        ``initial`` must be None (no state carry exists to seed).
        """
        events = self.encode_events(batch, prev_times=prev_times)
        if not self.is_recurrent:
            if initial is not None:
                raise TypeError(
                    "transformer encoders accept no initial state: "
                    "incremental state carry is recurrence-specific"
                )
            states, pooled = attention.transformer_forward(
                self.weight_plan(), events, mask=batch.mask)
            return (states if return_outputs else None), pooled
        return kernels.rnn_forward(self.weight_plan(), events,
                                   lengths=batch.lengths, initial=initial,
                                   return_outputs=return_outputs)

    def hidden_of(self, state):
        """The ``(B, H)`` hidden buffer of a state (drops the LSTM cell)."""
        return state[0] if self.is_lstm else state

    def default_state(self, batch_size):
        """The learnt initial state broadcast to ``batch_size`` rows.

        Returns the same structure :meth:`forward` accepts as ``initial``:
        a ``(B, H)`` buffer in the policy dtype, or an ``(h, c)`` pair for
        LSTM.  Used to seed rows of entities the serving layer has never
        seen, so known and unknown entities can share one batched
        :meth:`advance` call.  Raises ``TypeError`` for transformer
        runtimes, which have no carryable state.
        """
        if not self.is_recurrent:
            raise TypeError(
                "transformer encoders have no carryable state: "
                "incremental state advance is recurrence-specific"
            )
        plan = self.weight_plan()
        hidden = np.tile(plan.init_state, (batch_size, 1))
        if self.is_lstm:
            return hidden, np.tile(plan.init_cell, (batch_size, 1))
        return hidden

    def head(self, hidden):
        """Embedding head on ``(B, H)`` hidden states: l2 when configured."""
        if self.encoder.normalize:
            return kernels.l2_normalize_rows(hidden)
        # reprolint: disable=RP001 -- defensive copy preserves the stored
        # state's policy dtype by construction.
        return np.array(hidden, copy=True)

    def embed_batch(self, batch):
        """Whole-sequence embeddings for a padded batch, ``(B, d)`` numpy."""
        _, last = self.forward(batch)
        return self.head(self.hidden_of(last))

    def run_dataset(self, dataset, batch_size=64, workers=None):
        """Run the whole dataset under a length-sorted batch plan.

        Recurrent encoders follow the cell-budget plan of
        :func:`~repro.data.bucketing.plan_cell_batches`: at least
        ``batch_size`` rows per batch, and wider for sequences shorter
        than :data:`~repro.data.bucketing.BUDGET_STEPS` steps.
        Transformers keep ``batch_size`` rows per batch
        (:func:`~repro.data.bucketing.plan_batches`).  Yields
        ``(indices, batch, final_state)`` per planned batch, where
        ``batch`` is the collated :class:`~repro.data.PaddedBatch` (its
        ``seq_ids``, ``lengths`` and fields row-aligned with
        ``indices``) — the single bulk loop shared by
        :func:`repro.core.embed_dataset` and
        :meth:`repro.runtime.EmbeddingStore.bulk_load`.  With
        ``workers > 1`` (default: the runtime's ``workers``) independent
        buckets run concurrently; yield order and every result are
        bit-identical to the serial pass.
        """
        workers = self.workers if workers is None else max(1, int(workers))
        # Attention's (B, heads, T, T) scores grow with the rows: wide
        # batches of short sequences ran the transformer 9% slower.
        plan = plan_cell_batches if self.is_recurrent else plan_batches
        chunks = plan(dataset.lengths(), batch_size)

        def run(chunk):
            """Gather and embed one planned bucket."""
            batch = collate(dataset, rows=chunk)
            _, last = self.forward(batch)
            return chunk, batch, last

        if workers == 1 or len(chunks) <= 1:
            for chunk in chunks:
                yield run(chunk)
            return
        # Build the plans once before fanning out: workers only read them.
        self.weight_plan()
        self.encode_plan()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(run, chunks):
                yield result

    def embed_dataset(self, dataset, batch_size=64, workers=None):
        """Bulk embeddings ``(N, d)`` in dataset order.

        Batches follow :meth:`run_dataset`'s plan: ``batch_size`` rows or
        more per batch for recurrent encoders.
        """
        embeddings = np.zeros((len(dataset), self.output_dim),
                              dtype=self.dtype)
        for chunk, _, last in self.run_dataset(dataset, batch_size,
                                               workers=workers):
            embeddings[chunk] = self.head(self.hidden_of(last))
        return embeddings

    def advance(self, batch, initial=None, prev_times=None):
        """Fold a chunk of new events into per-entity states.

        ``initial`` is a ``(B, H)`` state buffer (an ``(h, c)`` pair for
        LSTM) and ``prev_times`` a ``(B,)`` float64 array of boundary
        timestamps, both row-aligned with ``batch``.  Like
        :meth:`forward` but named for the streaming use: the returned
        state is ``c_{t+k}`` computed from ``c_t`` (``initial``) and the new
        events only — the paper's incremental ETL property.  Raises
        ``TypeError`` for transformer runtimes: attention reads the whole
        history, so there is no state from which to advance.
        """
        if not self.is_recurrent:
            raise TypeError(
                "transformer encoders cannot advance incrementally: "
                "attention reads the whole event history (use the bulk "
                "paths, or a recurrent encoder for streaming updates)"
            )
        _, last = self.forward(batch, initial=initial, prev_times=prev_times)
        return last
