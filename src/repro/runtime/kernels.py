"""Fused, graph-free numpy kernels for the training and inference hot paths.

The autograd :class:`~repro.nn.Tensor` builds one Python graph node per op
and per timestep.  These kernels drop to raw numpy instead:

- the input projection of *all* timesteps is computed as one matmul
  (``(B*T, D) @ (D, G*H)``) instead of T small ones, and is stored
  time-major (``(T, B, G*H)``) so every step reads a contiguous block;
- per step only the hidden projection remains, written into preallocated
  scratch buffers (no per-step allocations on the packed path);
- padding is never computed when the batch is sorted by length (the batch
  planner's output): each step operates on the *active* row prefix only —
  the numpy analogue of cuDNN's packed sequences.  Unsorted batches fall
  back to mask-freezing, exactly like the Tensor path.

**Precision policy.**  Every kernel consumes a :class:`WeightPlan` — the
per-weight work (dtype cast, transposes, bias folding) precomputed once
per ``CellWeights`` generation:

- ``float64`` plans preserve the historical op order exactly (biases stay
  per-step), so results match the Tensor path to float64 rounding
  (< 1e-10) and gradients to < 1e-8 — the parity-test reference;
- ``float32`` plans additionally fold the recurrent bias into the input
  projection where algebraically exact (all LSTM gates; the GRU r/z
  gates — the n-gate bias must stay inside the reset multiply), halving
  bytes per GEMM for ~2x throughput at a property-bounded drift vs the
  float64 reference.

A raw :class:`~repro.nn.CellWeights` passed where a plan is expected is
promoted to a float64 plan on the fly (:func:`as_plan`), so direct kernel
callers keep reference semantics.  Plans hold *references* to their
source parameter buffers; :func:`plan_matches` detects optimiser steps
(optimisers rebind ``param.data``) so cached plans are rebuilt exactly
when the weights change.

Two kernel families share those tricks:

- **inference**: :func:`gru_forward` / :func:`lstm_forward` /
  :func:`rnn_forward` and :func:`encode_events` — forward only, nothing
  retained;
- **training**: :func:`gru_forward_train` / :func:`lstm_forward_train`
  stash the per-step activations a backward pass needs (time-major, in
  the plan dtype), and :func:`gru_backward` / :func:`lstm_backward` run
  hand-derived BPTT over that cache — loss gradient in, weight gradients
  out, no graph ever built.  Per-gate input gradients accumulate into one
  time-major buffer so the weight_ih/bias_ih/input gradients are three
  fused matmuls at the end, mirroring the fused input projection of the
  forward.

Weight layout is *not* re-declared here: plans are built from the
:class:`~repro.nn.CellWeights` view exported by the ``nn.rnn`` modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PRECISIONS",
    "resolve_precision",
    "sigmoid",
    "l2_normalize_rows",
    "l2_normalize_rows_backward",
    "WeightPlan",
    "build_weight_plan",
    "plan_matches",
    "as_plan",
    "EncodePlan",
    "build_encode_plan",
    "encode_plan_matches",
    "rnn_forward",
    "gru_forward",
    "lstm_forward",
    "encode_events",
    "encode_events_train",
    "RnnTrainCache",
    "rnn_forward_train",
    "gru_forward_train",
    "lstm_forward_train",
    "rnn_backward",
    "gru_backward",
    "lstm_backward",
]

#: The two supported compute dtypes of the precision policy.
PRECISIONS = {"float32": np.float32, "float64": np.float64}

#: ``|x|`` beyond which the logistic saturates exactly in both dtypes
#: (``1 + exp(-60)`` rounds to ``1.0`` even in float64), so clipping the
#: exponent changes nothing representable while preventing ``np.exp``
#: overflow warnings in float32.
_SIGMOID_CLIP = 60.0


def resolve_precision(precision):
    """Canonicalise a precision knob to a numpy dtype.

    Accepts the policy strings ``"float32"``/``"float64"`` (or the
    corresponding numpy dtypes); anything else raises ``ValueError``.
    """
    if isinstance(precision, str):
        try:
            return np.dtype(PRECISIONS[precision])
        except KeyError:
            raise ValueError(
                "unknown precision %r (use 'float32' or 'float64')"
                % precision
            ) from None
    dtype = np.dtype(precision)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            "unknown precision %r (use 'float32' or 'float64')" % precision
        )
    return dtype


def precision_name(dtype):
    """The policy string of a resolved dtype (``"float32"``/``"float64"``)."""
    return "float32" if np.dtype(dtype) == np.dtype(np.float32) else "float64"


def sigmoid(x, out=None):
    """Numerically-safe logistic function.

    The exponent is clipped to ``±60`` before ``exp``: past that point
    ``1 + exp(-|x|)`` already rounds to ``1.0`` in float64 (let alone
    float32), so the clip is value-preserving while keeping float32
    forwards free of overflow ``RuntimeWarning``s on saturated gates.
    With ``out`` the computation runs fully in-place (``out is x`` is
    allowed).
    """
    # Negate first, then cap the exponent from above only: exp of a
    # large *negative* argument underflows silently to 0.0 (numpy's
    # default underflow handling), which already yields the exact
    # result 1.0 downstream — so a single-sided cap gives bit-identical
    # values to a symmetric clip with one fewer ufunc dispatch.  This
    # runs once per timestep on the serving hot path, where np.clip's
    # python wrapper was measurable.
    out = np.negative(x, out=out)
    np.minimum(out, _SIGMOID_CLIP, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def l2_normalize_rows(x, eps=1e-12):
    """Unit-normalise rows; mirrors ``nn.functional.l2_normalize``."""
    norm = np.sqrt(np.maximum((x * x).sum(axis=-1, keepdims=True), eps))
    return x / norm


def l2_normalize_rows_backward(x, grad, eps=1e-12):
    """Gradient of :func:`l2_normalize_rows` wrt ``x``.

    For ``y = x / ||x||``: ``dx = g/||x|| - x (g·x)/||x||^3``, with the
    norm term dropped where the squared norm hit the ``eps`` clip —
    exactly the gradient the autograd ``nn.functional.l2_normalize``
    produces (its clipped sqrt passes no gradient when clipping).
    """
    sq = (x * x).sum(axis=-1, keepdims=True)
    norm = np.sqrt(np.maximum(sq, eps))
    dot = (grad * x).sum(axis=-1, keepdims=True)
    return grad / norm - x * (dot * (sq > eps) / norm**3)


# ----------------------------------------------------------------------
# weight plans: per-generation precompute (cast, transpose, bias folding)
# ----------------------------------------------------------------------

@dataclass
class WeightPlan:
    """Packed, dtype-cast view of one :class:`~repro.nn.CellWeights`.

    Built once per weight generation by :func:`build_weight_plan`; every
    kernel call then runs off the pre-transposed, pre-cast buffers.  The
    per-gate blocks stay stacked, so each timestep is a single recurrent
    GEMM (``(B, H) @ (H, G*H)``) instead of slice-and-dispatch.

    ``sources`` keeps references to the live parameter buffers the plan
    was built from; :func:`plan_matches` compares identities, which is
    exactly the granularity at which the optimisers invalidate weights
    (they rebind ``param.data`` rather than writing in place).

    Bias handling is dtype-dependent (see the module docstring):
    ``bias_step`` is the full per-step recurrent bias for float64 plans
    (None when folded), ``b_hn`` is the GRU n-gate recurrent bias kept
    per-step under float32 folding (None otherwise).
    """

    kind: str                 # "gru" | "lstm"
    hidden_size: int
    dtype: np.dtype
    w_ih_t: np.ndarray        # (D, G*H) contiguous, policy dtype
    w_hh_t: np.ndarray        # (H, G*H) contiguous, policy dtype
    bias_x: np.ndarray        # (G*H,) input-side bias (+ folded parts)
    bias_step: np.ndarray     # (G*H,) per-step recurrent bias, or None
    b_hn: np.ndarray          # (H,) GRU n-gate recurrent bias, or None
    init_state: np.ndarray    # (H,) policy dtype
    init_cell: np.ndarray = None   # (H,) policy dtype, LSTM only
    sources: tuple = field(default=(), repr=False)

    @property
    def input_size(self):
        """Width ``D`` of the event representations the plan consumes."""
        return self.w_ih_t.shape[0]

    @property
    def num_gates(self):
        """Gate count ``G`` of the cell (3 for GRU, 4 for LSTM)."""
        return self.w_ih_t.shape[1] // self.hidden_size


def _weight_sources(weights):
    """The live arrays whose identities define a weight generation."""
    return (weights.weight_ih, weights.weight_hh, weights.bias_ih,
            weights.bias_hh, weights.init_state, weights.init_cell)


def build_weight_plan(weights, precision="float64"):
    """Precompute the per-weight work of the kernels for one generation.

    ``weights`` is a :class:`~repro.nn.CellWeights` view of the live
    float64 parameter buffers; the plan stores pre-cast, pre-transposed
    copies in the ``precision`` dtype.  ``float64`` keeps the recurrent
    bias per-step (historical op order, bit-comparable to the Tensor
    path); ``float32`` folds it into the input projection where exact
    (everything except the GRU n-gate).
    """
    dtype = resolve_precision(precision)
    size = weights.hidden_size
    fold = dtype == np.dtype(np.float32)
    bias_x = np.asarray(weights.bias_ih, dtype=dtype)
    bias_step = np.asarray(weights.bias_hh, dtype=dtype)
    b_hn = None
    if fold:
        bias_x = bias_x.copy()
        if weights.kind == "gru":
            bias_x[:2 * size] += bias_step[:2 * size]
            b_hn = np.ascontiguousarray(bias_step[2 * size:])
        else:
            bias_x += bias_step
        bias_step = None
    return WeightPlan(
        kind=weights.kind,
        hidden_size=size,
        dtype=dtype,
        w_ih_t=np.ascontiguousarray(weights.weight_ih.T, dtype=dtype),
        w_hh_t=np.ascontiguousarray(weights.weight_hh.T, dtype=dtype),
        bias_x=bias_x,
        bias_step=bias_step,
        b_hn=b_hn,
        init_state=np.ascontiguousarray(weights.init_state, dtype=dtype),
        init_cell=(None if weights.init_cell is None else
                   np.ascontiguousarray(weights.init_cell, dtype=dtype)),
        sources=_weight_sources(weights),
    )


def plan_matches(plan, weights):
    """Whether ``plan`` was built from exactly these live weight buffers.

    ``weights`` is the current :class:`~repro.nn.CellWeights` view; the
    comparison is by array *identity* (``is``), which is exactly the
    granularity at which the optimisers invalidate (they rebind
    ``param.data`` to a fresh buffer every step).
    """
    if plan is None:
        return False
    current = _weight_sources(weights)
    if len(plan.sources) != len(current):
        return False
    return all(a is b for a, b in zip(plan.sources, current))


def as_plan(weights, precision=None):
    """Promote a :class:`~repro.nn.CellWeights` to a plan (pass plans through).

    Raw weights default to a **float64** plan — direct kernel callers
    (the parity tests) keep reference semantics without opting in to a
    precision policy.
    """
    if isinstance(weights, WeightPlan):
        return weights
    return build_weight_plan(weights, precision or "float64")


# ----------------------------------------------------------------------
# encode plans: pre-cast embedding tables + batch-norm affine
# ----------------------------------------------------------------------

@dataclass
class EncodePlan:
    """Dtype-cast view of a ``TrxEncoder``'s lookup tables.

    Under float64 the tables *are* the live parameter buffers (no copy,
    bit-identical encoding); under float32 they are pre-cast copies so
    the big per-event gathers move half the bytes.  Invalidated by
    source-identity checks like :class:`WeightPlan`.
    """

    dtype: np.dtype
    tables: dict                   # field name -> (V, d) table, policy dtype
    sources: tuple = field(default=(), repr=False)


def _encode_sources(trx_encoder):
    parts = [trx_encoder.embeddings[name].weight.data
             for name in trx_encoder.schema.categorical]
    return tuple(parts)


def build_encode_plan(trx_encoder, precision="float64"):
    """Pre-cast the categorical embedding tables to the policy dtype."""
    dtype = resolve_precision(precision)
    tables = {}
    for name in trx_encoder.schema.categorical:
        table = trx_encoder.embeddings[name].weight.data
        tables[name] = (table if table.dtype == dtype
                        else np.ascontiguousarray(table, dtype=dtype))
    return EncodePlan(dtype=dtype, tables=tables,
                      sources=_encode_sources(trx_encoder))


def encode_plan_matches(plan, trx_encoder):
    """Whether ``plan`` still mirrors the encoder's live tables."""
    if plan is None:
        return False
    current = _encode_sources(trx_encoder)
    if len(plan.sources) != len(current):
        return False
    return all(a is b for a, b in zip(plan.sources, current))


# ----------------------------------------------------------------------
# shared forward plumbing
# ----------------------------------------------------------------------

def _plan_input_gates(plan, x):
    """Fused input projection, time-major: ``(B, T, D) -> (T, B, G*H)``.

    One GEMM over all timesteps against the pre-transposed contiguous
    ``w_ih_t``, bias added in place, then laid out time-major so each
    step of the recurrence reads one contiguous ``(B, G*H)`` block.
    """
    batch, steps, dim = x.shape
    # Transpose the *input* to time-major before the GEMM rather than
    # the projected gates after it: the copy moves (T, B, D) elements
    # instead of (T, B, G*H) — D is a fraction of G*H — and the GEMM
    # then writes the time-major layout directly.  Each output row is
    # the same dot product either way, so the float64 parity contract
    # is unaffected.
    xt = x.swapaxes(0, 1)
    if xt.dtype != plan.dtype:
        xt = xt.astype(plan.dtype, order="C", copy=False)
    else:
        xt = np.ascontiguousarray(xt)
    gates = xt.reshape(steps * batch, dim) @ plan.w_ih_t
    gates += plan.bias_x
    return gates.reshape(steps, batch, -1)


def _initial(vector, batch, dtype=np.float64):
    """Broadcast a learnt ``(H,)`` initial state to a ``(B, H)`` buffer."""
    return np.tile(np.asarray(vector, dtype=dtype), (batch, 1))


def _initial_hidden(plan, batch, initial):
    """The caller's initial state (cast+copied) or the learnt c_0."""
    if initial is not None:
        return np.array(initial, dtype=plan.dtype, copy=True)
    return np.tile(plan.init_state, (batch, 1))


def _active_counts(lengths, steps):
    """Per-step active row count for a batch sorted longest-first.

    Returns None when the batch is not sorted by non-increasing length
    (the caller then uses the mask-freezing path).  Computed via
    ``searchsorted`` over the (reversed, ascending) lengths — O(T log B)
    with no B×T intermediate.
    """
    if lengths is None:
        return None
    lengths = np.asarray(lengths, dtype=np.intp)
    if len(lengths) > 1 and np.any(np.diff(lengths) > 0):
        return None
    return len(lengths) - np.searchsorted(
        lengths[::-1], np.arange(steps, dtype=np.intp), side="right")


def _mask_from_lengths(lengths, steps):
    return (np.arange(steps, dtype=np.intp)[None, :]
            < np.asarray(lengths, dtype=np.intp)[:, None])


# ----------------------------------------------------------------------
# inference forwards
# ----------------------------------------------------------------------

def gru_forward(weights, x, lengths=None, mask=None, initial=None,
                return_outputs=False):
    """Fused GRU forward over a padded batch.

    Parameters
    ----------
    weights:
        A :class:`WeightPlan` (or a raw :class:`~repro.nn.CellWeights`,
        promoted to a float64 plan).
    x:
        Event representations ``(B, T, D)`` (raw numpy, any float dtype).
    lengths:
        True sequence lengths ``(B,)``.  When sorted longest-first (the
        batch planner's output) each step runs on the active prefix only.
    mask:
        Optional boolean ``(B, T)``; used when ``lengths`` is absent or
        unsorted.  False entries freeze the state.
    initial:
        Optional ``(B, H)`` state overriding the learnt c_0.
    return_outputs:
        When True also return the per-step states ``(B, T, H)``.

    Returns
    -------
    (outputs, last): outputs is None unless requested; last is ``(B, H)``
    in the plan dtype, the state after each sequence's final real event.
    """
    plan = as_plan(weights)
    dt = plan.dtype
    batch, steps, _ = x.shape
    size = plan.hidden_size
    two = 2 * size
    hidden = _initial_hidden(plan, batch, initial)
    gates_x = _plan_input_gates(plan, x)
    outputs = (np.empty((batch, steps, size), dtype=dt)
               if return_outputs else None)
    counts = _active_counts(lengths, steps)
    if counts is None and lengths is not None and mask is None:
        mask = _mask_from_lengths(lengths, steps)
    gh = np.empty((batch, 3 * size), dtype=dt)
    rz = np.empty((batch, two), dtype=dt)
    new_h = np.empty((batch, size), dtype=dt)
    tmp = np.empty((batch, size), dtype=dt)
    # Hoisted loop invariants: attribute loads and per-plan branches are
    # measurable at one python-level iteration per timestep.
    w_hh_t = plan.w_hh_t
    bias_step = plan.bias_step
    b_hn = plan.b_hn
    count_list = None if counts is None else counts.tolist()
    # float64 keeps the seed's exact h-update op order (the 1e-10 parity
    # contract); float32 uses the algebraically-equal 3-op form
    # ``h + z*(h_prev - h_cand)`` — one fewer dispatch per step, and the
    # float32 path is drift-bounded rather than order-pinned.
    fast_update = dt == np.dtype(np.float32)
    for t in range(steps):
        active = batch if count_list is None else count_list[t]
        if active == 0:
            if outputs is not None:
                outputs[:, t:] = hidden[:, None, :]
            break
        h_act = hidden[:active]
        gx = gates_x[t, :active]
        gh_a = gh[:active]
        np.dot(h_act, w_hh_t, out=gh_a)
        if bias_step is not None:
            gh_a += bias_step
        # One sigmoid over the contiguous (r, z) block — identical
        # elementwise values, half the ufunc dispatches.
        g = rz[:active]
        np.add(gx[:, :two], gh_a[:, :two], out=g)
        sigmoid(g, out=g)
        reset = g[:, :size]
        update = g[:, size:]
        ghn = gh_a[:, two:]
        if b_hn is not None:
            ghn += b_hn
        ghn *= reset
        ghn += gx[:, two:]
        candidate = np.tanh(ghn, out=ghn)
        out_h = new_h[:active]
        if fast_update:
            # new_h = candidate + update * (h_prev - candidate)
            np.subtract(h_act, candidate, out=out_h)
            out_h *= update
            out_h += candidate
        else:
            # new_h = (1 - update) * candidate + update * h_prev
            np.subtract(1.0, update, out=out_h)
            out_h *= candidate
            t_a = tmp[:active]
            np.multiply(update, h_act, out=t_a)
            out_h += t_a
        if count_list is None and mask is not None:
            np.copyto(hidden, out_h, where=mask[:, t:t + 1])
        else:
            hidden[:active] = out_h
        if outputs is not None:
            outputs[:, t] = hidden
    return outputs, hidden


def lstm_forward(weights, x, lengths=None, mask=None, initial=None,
                 return_outputs=False):
    """Fused LSTM forward; ``initial`` and the final state are (h, c) pairs.

    Same contract as :func:`gru_forward`.
    """
    plan = as_plan(weights)
    dt = plan.dtype
    batch, steps, _ = x.shape
    size = plan.hidden_size
    two, three = 2 * size, 3 * size
    if initial is not None:
        hidden = np.array(initial[0], dtype=dt, copy=True)
        cell = np.array(initial[1], dtype=dt, copy=True)
    else:
        hidden = np.tile(plan.init_state, (batch, 1))
        cell = np.tile(plan.init_cell, (batch, 1))
    gates_x = _plan_input_gates(plan, x)
    outputs = (np.empty((batch, steps, size), dtype=dt)
               if return_outputs else None)
    counts = _active_counts(lengths, steps)
    if counts is None and lengths is not None and mask is None:
        mask = _mask_from_lengths(lengths, steps)
    gh = np.empty((batch, 4 * size), dtype=dt)
    sig = np.empty((batch, two), dtype=dt)
    cand = np.empty((batch, size), dtype=dt)
    out_gate_buf = np.empty((batch, size), dtype=dt)
    new_c = np.empty((batch, size), dtype=dt)
    new_h = np.empty((batch, size), dtype=dt)
    tmp = np.empty((batch, size), dtype=dt)
    for t in range(steps):
        active = batch if counts is None else int(counts[t])
        if active == 0:
            if outputs is not None:
                outputs[:, t:] = hidden[:, None, :]
            break
        h_act = hidden[:active]
        c_act = cell[:active]
        gx = gates_x[t, :active]
        gh_a = gh[:active]
        np.dot(h_act, plan.w_hh_t, out=gh_a)
        if plan.bias_step is not None:
            gh_a += plan.bias_step
        # One sigmoid over the contiguous (i, f) block — identical
        # elementwise values, fewer ufunc dispatches.
        g = sig[:active]
        np.add(gx[:, :two], gh_a[:, :two], out=g)
        sigmoid(g, out=g)
        in_gate = g[:, :size]
        forget = g[:, size:]
        cd = cand[:active]
        np.add(gx[:, two:three], gh_a[:, two:three], out=cd)
        np.tanh(cd, out=cd)
        og = out_gate_buf[:active]
        np.add(gx[:, three:], gh_a[:, three:], out=og)
        sigmoid(og, out=og)
        # new_c = forget * c_prev + in * candidate
        nc = new_c[:active]
        np.multiply(forget, c_act, out=nc)
        t_a = tmp[:active]
        np.multiply(in_gate, cd, out=t_a)
        nc += t_a
        nh = new_h[:active]
        np.tanh(nc, out=t_a)
        np.multiply(og, t_a, out=nh)
        if counts is None and mask is not None:
            step_mask = mask[:, t:t + 1]
            np.copyto(hidden, nh, where=step_mask)
            np.copyto(cell, nc, where=step_mask)
        else:
            hidden[:active] = nh
            cell[:active] = nc
        if outputs is not None:
            outputs[:, t] = hidden
    return outputs, (hidden, cell)


def rnn_forward(weights, x, lengths=None, mask=None, initial=None,
                return_outputs=False):
    """Dispatch to the fused GRU or LSTM kernel by ``weights.kind``.

    ``weights`` is a :class:`~repro.nn.CellWeights` view or an already
    packed :class:`WeightPlan`; ``x`` is the ``(B, T, D)`` event array
    (cast to the plan dtype on entry); ``lengths`` are per-row step
    counts (ints), ``mask`` the ``(B, T)`` boolean validity mask, and
    ``initial`` the ``(B, H)`` seed state (an ``(h, c)`` pair for LSTM)
    in any float dtype — it is copied into the plan dtype.
    """
    if weights.kind == "gru":
        return gru_forward(weights, x, lengths=lengths, mask=mask,
                           initial=initial, return_outputs=return_outputs)
    if weights.kind == "lstm":
        return lstm_forward(weights, x, lengths=lengths, mask=mask,
                            initial=initial, return_outputs=return_outputs)
    raise ValueError("unknown cell kind %r" % weights.kind)


# ----------------------------------------------------------------------
# training kernels: forward with an activation cache + hand-derived BPTT
# ----------------------------------------------------------------------

@dataclass
class RnnTrainCache:
    """Per-step activations stashed by a training forward pass.

    Produced by :func:`gru_forward_train` / :func:`lstm_forward_train` and
    consumed exactly once by the matching backward kernel.  Per-step
    arrays are **time-major** (``(T, B, ·)``) so both directions of BPTT
    touch contiguous blocks; rows beyond a step's active count hold stale
    values in ``gates``/``gate_hidden`` — the backward kernels never read
    them.  Everything is stored in the plan dtype.
    """

    kind: str                # "gru" | "lstm"
    plan: WeightPlan         # the plan the forward ran with
    x: np.ndarray            # (B, T, D) event representations, plan dtype
    gates: np.ndarray        # (T, B, G*H): r,z,n (GRU) or i,f,g,o (LSTM)
    hidden_seq: np.ndarray   # (T, B, H) post-step hidden states
    hidden_0: np.ndarray     # (B, H) initial hidden state
    counts: np.ndarray       # (T,) active rows per step, or None
    mask: np.ndarray         # (B, T) boolean, or None (full batch)
    last: object             # (B, H) or (h, c) — the forward result
    gate_hidden: np.ndarray = None  # (T, B, H) GRU only: gh_n (for dr)
    cell_seq: np.ndarray = None     # (T, B, H) LSTM only: post-step cells
    cell_0: np.ndarray = None       # (B, H) LSTM only: initial cell
    tanh_cell: np.ndarray = None    # (T, B, H) LSTM only: tanh(c_t)

    @property
    def states(self):
        """Per-step hidden states in batch-major ``(B, T, H)`` layout."""
        return self.hidden_seq.transpose(1, 0, 2)


def _train_setup(weights, x, lengths, mask):
    """Shared preamble of the training forwards: plan + step schedule."""
    plan = as_plan(weights)
    batch, steps, _ = x.shape
    if x.dtype != plan.dtype:
        x = x.astype(plan.dtype, copy=False)
    gates_x = _plan_input_gates(plan, x)
    counts = _active_counts(lengths, steps)
    if counts is None and lengths is not None and mask is None:
        mask = _mask_from_lengths(lengths, steps)
    return plan, x, batch, steps, gates_x, counts, mask


def gru_forward_train(weights, x, lengths=None, mask=None, initial=None):
    """GRU forward stashing what :func:`gru_backward` needs.

    Same contract as :func:`gru_forward` (active-prefix execution when
    ``lengths`` is sorted longest-first, mask-freezing otherwise), but
    returns an :class:`RnnTrainCache` whose ``last`` field carries the
    final ``(B, H)`` state.
    """
    plan, x, batch, steps, gates_x, counts, mask = _train_setup(
        weights, x, lengths, mask)
    dt = plan.dtype
    size = plan.hidden_size
    two = 2 * size
    hidden = _initial_hidden(plan, batch, initial)
    hidden_0 = hidden.copy()
    gates = np.empty((steps, batch, 3 * size), dtype=dt)
    gate_hidden = np.empty((steps, batch, size), dtype=dt)
    hidden_seq = np.empty((steps, batch, size), dtype=dt)
    gh = np.empty((batch, 3 * size), dtype=dt)
    new_h = np.empty((batch, size), dtype=dt)
    tmp = np.empty((batch, size), dtype=dt)
    # Hoisted loop invariants (see gru_forward): the same rationale, the
    # loop runs once per timestep on the training hot path.
    w_hh_t = plan.w_hh_t
    bias_step = plan.bias_step
    b_hn = plan.b_hn
    count_list = None if counts is None else counts.tolist()
    fast_update = dt == np.dtype(np.float32)
    for t in range(steps):
        active = batch if count_list is None else count_list[t]
        if active == 0:
            hidden_seq[t:] = hidden[None, :, :]
            break
        h_act = hidden[:active]
        gx = gates_x[t, :active]
        gh_a = gh[:active]
        np.dot(h_act, w_hh_t, out=gh_a)
        if bias_step is not None:
            gh_a += bias_step
        gate_block = gates[t, :active]
        np.add(gx[:, :two], gh_a[:, :two], out=gate_block[:, :two])
        sigmoid(gate_block[:, :two], out=gate_block[:, :two])
        reset = gate_block[:, :size]
        update = gate_block[:, size:two]
        ghn = gh_a[:, two:]
        if b_hn is not None:
            ghn += b_hn
        gate_hidden[t, :active] = ghn
        candidate = gate_block[:, two:]
        np.multiply(ghn, reset, out=candidate)
        candidate += gx[:, two:]
        np.tanh(candidate, out=candidate)
        if count_list is None and mask is not None:
            # Mask-freezing path: stage in scratch, then masked-copy.
            out_h = new_h[:active]
        else:
            # Packed path: write the update straight into the cached
            # step row — no staging copy, frozen rows carried below.
            out_h = hidden_seq[t, :active]
        if fast_update:
            # new_h = candidate + update * (h_prev - candidate): same
            # 3-op form as the float32 inference path (drift-bounded);
            # the backward's analytic formulas are order-independent.
            np.subtract(h_act, candidate, out=out_h)
            out_h *= update
            out_h += candidate
        else:
            # float64 keeps the seed's exact op order (1e-8 parity).
            np.subtract(1.0, update, out=out_h)
            out_h *= candidate
            t_a = tmp[:active]
            np.multiply(update, h_act, out=t_a)
            out_h += t_a
        if count_list is None and mask is not None:
            np.copyto(hidden, out_h, where=mask[:, t:t + 1])
            hidden_seq[t] = hidden
        else:
            if active < batch:
                hidden_seq[t, active:] = hidden[active:]
            hidden = hidden_seq[t]
    return RnnTrainCache(kind="gru", plan=plan, x=x, gates=gates,
                         hidden_seq=hidden_seq, hidden_0=hidden_0,
                         counts=counts, mask=mask, last=hidden,
                         gate_hidden=gate_hidden)


def lstm_forward_train(weights, x, lengths=None, mask=None, initial=None):
    """LSTM forward stashing what :func:`lstm_backward` needs.

    ``initial`` and ``cache.last`` are ``(h, c)`` pairs; otherwise the
    contract of :func:`gru_forward_train`.
    """
    plan, x, batch, steps, gates_x, counts, mask = _train_setup(
        weights, x, lengths, mask)
    dt = plan.dtype
    size = plan.hidden_size
    two, three = 2 * size, 3 * size
    if initial is not None:
        hidden = np.array(initial[0], dtype=dt, copy=True)
        cell = np.array(initial[1], dtype=dt, copy=True)
    else:
        hidden = np.tile(plan.init_state, (batch, 1))
        cell = np.tile(plan.init_cell, (batch, 1))
    hidden_0 = hidden.copy()
    cell_0 = cell.copy()
    gates = np.empty((steps, batch, 4 * size), dtype=dt)
    hidden_seq = np.empty((steps, batch, size), dtype=dt)
    cell_seq = np.empty((steps, batch, size), dtype=dt)
    tanh_cell = np.empty((steps, batch, size), dtype=dt)
    gh = np.empty((batch, 4 * size), dtype=dt)
    new_c = np.empty((batch, size), dtype=dt)
    new_h = np.empty((batch, size), dtype=dt)
    tmp = np.empty((batch, size), dtype=dt)
    for t in range(steps):
        active = batch if counts is None else int(counts[t])
        if active == 0:
            hidden_seq[t:] = hidden[None, :, :]
            cell_seq[t:] = cell[None, :, :]
            break
        h_act = hidden[:active]
        c_act = cell[:active]
        gx = gates_x[t, :active]
        gh_a = gh[:active]
        np.dot(h_act, plan.w_hh_t, out=gh_a)
        if plan.bias_step is not None:
            gh_a += plan.bias_step
        gate_block = gates[t, :active]
        np.add(gx[:, :two], gh_a[:, :two], out=gate_block[:, :two])
        sigmoid(gate_block[:, :two], out=gate_block[:, :two])
        in_gate = gate_block[:, :size]
        forget = gate_block[:, size:two]
        candidate = gate_block[:, two:three]
        np.add(gx[:, two:three], gh_a[:, two:three], out=candidate)
        np.tanh(candidate, out=candidate)
        out_gate = gate_block[:, three:]
        np.add(gx[:, three:], gh_a[:, three:], out=out_gate)
        sigmoid(out_gate, out=out_gate)
        nc = new_c[:active]
        np.multiply(forget, c_act, out=nc)
        t_a = tmp[:active]
        np.multiply(in_gate, candidate, out=t_a)
        nc += t_a
        tanh_new = tanh_cell[t, :active]
        np.tanh(nc, out=tanh_new)
        nh = new_h[:active]
        np.multiply(out_gate, tanh_new, out=nh)
        if counts is None and mask is not None:
            step_mask = mask[:, t:t + 1]
            np.copyto(hidden, nh, where=step_mask)
            np.copyto(cell, nc, where=step_mask)
        else:
            hidden[:active] = nh
            cell[:active] = nc
        hidden_seq[t] = hidden
        cell_seq[t] = cell
    return RnnTrainCache(kind="lstm", plan=plan, x=x, gates=gates,
                         hidden_seq=hidden_seq, hidden_0=hidden_0,
                         counts=counts, mask=mask, last=(hidden, cell),
                         cell_seq=cell_seq, cell_0=cell_0,
                         tanh_cell=tanh_cell)


def rnn_forward_train(weights, x, lengths=None, mask=None, initial=None):
    """Dispatch to the GRU or LSTM training forward by ``weights.kind``.

    Same argument contract as :func:`rnn_forward` — ``x`` is ``(B, T,
    D)``, ``mask`` ``(B, T)`` boolean, ``initial`` ``(B, H)`` (pair for
    LSTM) — but returns the activation-caching forward used by BPTT.
    """
    if weights.kind == "gru":
        return gru_forward_train(weights, x, lengths=lengths, mask=mask,
                                 initial=initial)
    if weights.kind == "lstm":
        return lstm_forward_train(weights, x, lengths=lengths, mask=mask,
                                  initial=initial)
    raise ValueError("unknown cell kind %r" % weights.kind)


def _step_rows(cache, t):
    """(active, mask_col) execution descriptor of step ``t`` in backward.

    ``active`` is the row-prefix length for the packed path (0 skips the
    step); ``mask_col`` is the ``(B, 1)`` boolean column for the
    mask-freezing path (None on the packed path).
    """
    batch = cache.x.shape[0]
    if cache.counts is not None:
        return int(cache.counts[t]), None
    if cache.mask is not None:
        return batch, cache.mask[:, t:t + 1]
    return batch, None


def _finish_input_grads(plan, x, d_gates_x):
    """The fused tail of BPTT: input-side gradients as three big matmuls.

    ``d_gates_x`` arrives time-major ``(T, B, G*H)`` and is flattened to
    the batch-major order of ``x`` once, here.
    """
    batch, steps, dim = x.shape
    # Work in the time-major order d_gates_x already has: transposing
    # the (D-wide) input and output instead of the (G*H-wide) gate
    # gradient moves a fraction of the bytes.  Each weight/bias entry is
    # the same reduction over the same rows either way.
    flat_xt = np.ascontiguousarray(x.swapaxes(0, 1)).reshape(
        batch * steps, dim)
    flat_g = d_gates_x.reshape(batch * steps, -1)
    d_x_tm = (flat_g @ plan.w_ih_t.T).reshape(steps, batch, dim)
    return {
        "weight_ih": flat_g.T @ flat_xt,
        "bias_ih": flat_g.sum(axis=0),
        "d_x": np.ascontiguousarray(d_x_tm.swapaxes(0, 1)),
    }


def gru_backward(weights, cache, d_last, d_outputs=None):
    """Hand-derived BPTT through a cached GRU forward.

    Parameters
    ----------
    weights:
        The weights/plan the forward ran with (the cached plan wins).
    cache:
        The :class:`RnnTrainCache` from :func:`gru_forward_train`.
    d_last:
        Loss gradient wrt the final hidden state, ``(B, H)``.
    d_outputs:
        Optional loss gradient wrt every per-step state, ``(B, T, H)``
        (CPC-style objectives).

    Returns
    -------
    dict with ``d_x`` (gradient wrt the event representations, ``(B, T,
    D)``) and per-parameter gradients ``weight_ih``, ``weight_hh``,
    ``bias_ih``, ``bias_hh``, ``init_state`` — the exact quantities the
    autograd path accumulates, to < 1e-8 under the float64 policy.
    """
    plan = cache.plan if cache.plan is not None else as_plan(weights)
    dt = plan.dtype
    batch, steps, _ = cache.x.shape
    size = plan.hidden_size
    two = 2 * size
    d_hidden = np.array(d_last, dtype=dt, copy=True)
    d_gates_x = np.zeros((steps, batch, 3 * size), dtype=dt)
    # Pre-activation gradients wrt the recurrent projection, stashed
    # time-major so d_weight_hh/d_bias_hh reduce to ONE big GEMM/sum
    # after the loop instead of a small GEMM + accumulate per step.
    d_gates_h = np.zeros((steps, batch, 3 * size), dtype=dt)
    w_hh = plan.w_hh_t.T
    hidden_seq, hidden_0 = cache.hidden_seq, cache.hidden_0
    gates, gate_hidden = cache.gates, cache.gate_hidden
    count_list = (None if cache.counts is None else cache.counts.tolist())
    freeze_mask = cache.mask
    # Per-step scratch (views sliced to the active prefix): the loop
    # runs once per timestep, where temporary allocations are
    # measurable on the training hot path.
    s1 = np.empty((batch, size), dtype=dt)
    s2 = np.empty((batch, size), dtype=dt)
    s3 = np.empty((batch, size), dtype=dt)
    for t in range(steps - 1, -1, -1):
        if d_outputs is not None:
            d_hidden += d_outputs[:, t]
        if count_list is not None:
            active, mask_col = count_list[t], None
        elif freeze_mask is not None:
            active, mask_col = batch, freeze_mask[:, t:t + 1]
        else:
            active, mask_col = batch, None
        if active == 0:
            continue
        dh = d_hidden[:active] if mask_col is None else d_hidden * mask_col
        h_prev = (hidden_seq[t - 1, :active] if t > 0
                  else hidden_0[:active])
        gate_block = gates[t, :active]
        reset = gate_block[:, :size]
        update = gate_block[:, size:two]
        candidate = gate_block[:, two:]
        gh_n = gate_hidden[t, :active]
        dgh = d_gates_h[t, :active]
        dgx = d_gates_x[t, :active]
        c1, c2, c3 = s1[:active], s2[:active], s3[:active]
        # sigmoid' for the whole (r, z) block in one 2H-wide pass; the
        # per-gate upstream gradients scale the halves below.
        np.subtract(1.0, gate_block[:, :two], out=dgh[:, :two])
        dgh[:, :two] *= gate_block[:, :two]
        # da_n = dh * (1 - update) * (1 - candidate^2), written straight
        # into the n-column of d_gates_x.
        da_n = dgx[:, two:]
        np.subtract(1.0, update, out=c1)
        c1 *= dh
        np.multiply(candidate, candidate, out=c2)
        np.subtract(1.0, c2, out=c2)
        np.multiply(c1, c2, out=da_n)
        np.multiply(da_n, reset, out=dgh[:, two:])
        # d_reset = da_n * gh_n scales the r half ...
        np.multiply(da_n, gh_n, out=c3)
        dgh[:, :size] *= c3
        # ... and d_update = dh * (h_prev - candidate) the z half.
        np.subtract(h_prev, candidate, out=c1)
        c1 *= dh
        dgh[:, size:two] *= c1
        # d_prev = dh * update + dgh @ w_hh
        if mask_col is None:
            # dh aliases d_hidden[:active]: updating it in place IS the
            # carry to step t-1 (no copy-back needed).
            dh *= update
            np.dot(dgh, w_hh, out=c3)
            dh += c3
        else:
            np.multiply(dh, update, out=c2)
            np.dot(dgh, w_hh, out=c3)
            c2 += c3
            d_hidden = np.where(mask_col, c2, d_hidden)
    # The r/z columns of the input-side gate gradient equal the
    # recurrent-side ones (the pre-activations are a sum); one bulk copy
    # instead of a per-step one.
    d_gates_x[:, :, :two] = d_gates_h[:, :, :two]
    flat_gh = d_gates_h.reshape(steps * batch, -1)
    if steps > 1:
        h_prev_seq = np.concatenate([hidden_0[None], hidden_seq[:-1]])
    else:
        h_prev_seq = hidden_0[None]
    grads = _finish_input_grads(plan, cache.x, d_gates_x)
    grads["weight_hh"] = flat_gh.T @ h_prev_seq.reshape(steps * batch, size)
    grads["bias_hh"] = flat_gh.sum(axis=0)
    grads["init_state"] = d_hidden.sum(axis=0)
    return grads


def lstm_backward(weights, cache, d_last, d_outputs=None):
    """Hand-derived BPTT through a cached LSTM forward.

    Same contract as :func:`gru_backward`: ``d_last`` is the ``(B, H)``
    gradient wrt the final *hidden* state only (the loss never sees the
    cell), ``d_outputs`` the optional ``(B, T, H)`` per-step gradients;
    both are cast to the plan dtype.  The result additionally carries
    ``init_cell``.
    """
    plan = cache.plan if cache.plan is not None else as_plan(weights)
    dt = plan.dtype
    batch, steps, _ = cache.x.shape
    size = plan.hidden_size
    two, three = 2 * size, 3 * size
    d_hidden = np.array(d_last, dtype=dt, copy=True)
    d_cell = np.zeros((batch, size), dtype=dt)
    d_gates_x = np.zeros((steps, batch, 4 * size), dtype=dt)
    d_weight_hh = np.zeros((4 * size, size), dtype=dt)
    d_bias_hh = np.zeros(4 * size, dtype=dt)
    w_hh = plan.w_hh_t.T
    d_gh = np.empty((batch, 4 * size), dtype=dt)
    for t in range(steps - 1, -1, -1):
        if d_outputs is not None:
            d_hidden += d_outputs[:, t]
        active, mask_col = _step_rows(cache, t)
        if active == 0:
            continue
        if mask_col is None:
            dh = d_hidden[:active]
            dc = d_cell[:active]
        else:
            dh = d_hidden * mask_col
            dc = d_cell * mask_col
        h_prev = (cache.hidden_seq[t - 1, :active] if t > 0
                  else cache.hidden_0[:active])
        c_prev = (cache.cell_seq[t - 1, :active] if t > 0
                  else cache.cell_0[:active])
        gate_block = cache.gates[t, :active]
        in_gate = gate_block[:, :size]
        forget = gate_block[:, size:two]
        candidate = gate_block[:, two:three]
        out_gate = gate_block[:, three:]
        tanh_c = cache.tanh_cell[t, :active]
        d_out = dh * tanh_c
        dc = dc + dh * out_gate * (1.0 - tanh_c * tanh_c)
        d_in = dc * candidate
        d_forget = dc * c_prev
        d_candidate = dc * in_gate
        d_cell_prev = dc * forget
        dgh = d_gh[:active]
        np.multiply(d_in * in_gate, 1.0 - in_gate, out=dgh[:, :size])
        np.multiply(d_forget * forget, 1.0 - forget, out=dgh[:, size:two])
        np.multiply(d_candidate, 1.0 - candidate * candidate,
                    out=dgh[:, two:three])
        np.multiply(d_out * out_gate, 1.0 - out_gate, out=dgh[:, three:])
        d_gates_x[t, :active] = dgh
        d_prev = dgh @ w_hh
        d_weight_hh += dgh.T @ h_prev
        d_bias_hh += dgh.sum(axis=0)
        if mask_col is None:
            d_hidden[:active] = d_prev
            d_cell[:active] = d_cell_prev
        else:
            d_hidden = np.where(mask_col, d_prev, d_hidden)
            d_cell = np.where(mask_col, d_cell_prev, d_cell)
    grads = _finish_input_grads(plan, cache.x, d_gates_x)
    grads["weight_hh"] = d_weight_hh
    grads["bias_hh"] = d_bias_hh
    grads["init_state"] = d_hidden.sum(axis=0)
    grads["init_cell"] = d_cell.sum(axis=0)
    return grads


def rnn_backward(weights, cache, d_last, d_outputs=None):
    """Dispatch to the GRU or LSTM backward kernel by ``cache.kind``.

    ``d_last`` is the ``(B, H)`` gradient wrt the final hidden state,
    ``d_outputs`` the optional ``(B, T, H)`` per-step state gradients
    (both accepted in any float dtype, cast to the plan dtype).
    """
    if cache.kind == "gru":
        return gru_backward(weights, cache, d_last, d_outputs=d_outputs)
    if cache.kind == "lstm":
        return lstm_backward(weights, cache, d_last, d_outputs=d_outputs)
    raise ValueError("unknown cell kind %r" % cache.kind)


# ----------------------------------------------------------------------
# event encoding
# ----------------------------------------------------------------------

def _embedding_parts(trx_encoder, batch, tables=None):
    """Categorical embedding lookups as raw arrays, schema order.

    Ids are range-checked with the same error as ``Embedding.forward`` so
    the fused paths reject exactly the batches the Tensor path rejects
    (a negative id must not silently wrap to the table's last row).
    ``tables`` (an :class:`EncodePlan`'s pre-cast copies) replaces the
    live float64 tables when a precision policy is active.
    """
    parts = []
    for name in trx_encoder.schema.categorical:
        module = trx_encoder.embeddings[name]
        # reprolint: disable=RP001 -- categorical ids keep their input
        # integer dtype; the embedding gather never touches the policy.
        ids = np.asarray(batch.fields[name])
        if ids.min() < 0 or ids.max() >= module.num_embeddings:
            raise IndexError(
                "embedding ids out of range [0, %d): min=%d max=%d"
                % (module.num_embeddings, ids.min(), ids.max())
            )
        table = module.weight.data if tables is None else tables[name]
        parts.append(table[ids])
    return parts


def _batchnorm_stats(norm, numeric, mask, training):
    """The (mean, var) a ``BatchNorm1d`` would use, updating its buffers.

    Mirrors ``BatchNorm1d.forward`` exactly: training mode computes the
    masked batch statistics and folds them into the running buffers with
    the module's own momentum/_set_buffer, eval mode reads the running
    buffers — so checkpoints from the fused step and the autograd modules
    carry identical statistics.  Always float64: the buffers are part of the
    checkpoint contract and must not depend on the compute policy.
    """
    if not training:
        return norm.running_mean, norm.running_var
    flat = numeric[np.asarray(mask, dtype=bool)]
    if len(flat) == 0:
        raise ValueError("batch norm received an empty batch")
    mean = flat.mean(axis=0)
    var = flat.var(axis=0)
    norm._set_buffer(
        "running_mean",
        (1 - norm.momentum) * norm.running_mean + norm.momentum * mean,
    )
    norm._set_buffer(
        "running_var",
        (1 - norm.momentum) * norm.running_var + norm.momentum * var,
    )
    return mean, var


def _encode(trx_encoder, batch, prev_times, training, plan=None):
    """Shared event-encoding pipeline behind both fused entry points."""
    trx_encoder.check_batch_schema(batch)
    dtype = np.float64 if plan is None else plan.dtype
    parts = _embedding_parts(trx_encoder, batch,
                             tables=None if plan is None else plan.tables)
    scaled = None
    norm = trx_encoder.numeric_norm
    if norm is not None:
        numeric = trx_encoder._numeric_array(batch, prev_times=prev_times)
        mean, var = _batchnorm_stats(norm, numeric, batch.mask,
                                     training and norm.training)
        scaled = (numeric - mean) / np.sqrt(var + norm.eps)
        part = scaled * norm.weight.data + norm.bias.data
        if part.dtype != dtype:
            part = part.astype(dtype, copy=False)
        parts.append(part)
    if not parts:
        raise ValueError("schema has no event fields to encode")
    x = np.concatenate(parts, axis=-1) if len(parts) > 1 else parts[0]
    return x, scaled


def encode_events(trx_encoder, batch, prev_times=None, plan=None):
    """Graph-free event encoding: the eval-mode ``TrxEncoder`` as raw numpy.

    Embedding lookups read the tables directly and batch norm applies the
    running statistics, which is exactly the Tensor path in eval mode
    (training-mode statistics are a training concern and never used when
    serving).  Returns ``(B, T, D)`` — float64 without a ``plan``, the
    plan dtype otherwise.
    """
    x, _ = _encode(trx_encoder, batch, prev_times, training=False, plan=plan)
    return x


def encode_events_train(trx_encoder, batch, plan=None):
    """Event encoding under *training* semantics, plus the backward stash.

    Same pipeline as :func:`encode_events` (one shared implementation),
    but when the encoder's batch norm is in training mode it normalises
    by the masked batch statistics and updates the running buffers —
    op-for-op what ``TrxEncoder.forward`` does (statistics always run in
    float64, so checkpoints are policy-independent).  Returns ``(x,
    scaled)`` where ``scaled`` is the pre-affine normalised numeric block
    the batch norm backward needs (None without numeric features).
    """
    return _encode(trx_encoder, batch, None, training=True, plan=plan)
