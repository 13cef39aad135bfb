"""Fused, graph-free numpy kernels for the training and inference hot paths.

The autograd :class:`~repro.nn.Tensor` builds one Python graph node per op
and per timestep.  These kernels drop to raw numpy instead:

- the input projection of *all* timesteps is computed up front, one GEMM
  per gate block, stored time-major so every step reads contiguous rows;
- per step only the recurrent projection remains — two GEMMs, one per
  gate block — and the gate math runs on contiguous preallocated
  buffers (no per-step allocations);
- padding is never stepped: rows run longest-first and each step
  operates on the *active* row prefix only — the numpy analogue of
  cuDNN's packed sequences.  The training kernels go one step further
  and never touch a padded cell at all (see below); the inference
  forwards project the padded cells of their ``(T, B)`` grid, a few
  percent of a length-bucketed batch, and store nothing per cell.

**Gate blocks.**  A :class:`WeightPlan` stores a cell's weights as two
contiguous blocks rather than the interleaved ``(·, G*H)`` layout of
:class:`~repro.nn.CellWeights`:

- the *sigmoid* block — GRU ``r|z``, LSTM ``i|f|o`` — with its weights
  and folded bias pre-scaled by 0.5 (a power-of-two scale is exact), so
  ``σ(a) = 0.5·tanh(a/2) + 0.5`` is one ``tanh``, ``*= 0.5``, ``+= 0.5``
  over the whole block; tanh cannot overflow, so no clip is needed and
  saturated gates are exactly 0 or 1;
- the *tanh* block — GRU ``n``, LSTM ``g``.

Each block is kept input-side ``(D, ·)`` and recurrent ``(H, ·)``,
C-contiguous.  Recurrent biases fold into the input side for every gate
except the GRU n-gate, whose ``b_hn`` stays inside the reset product.
A step is two GEMMs, the sigmoid and tanh on contiguous blocks, and the
state update in place in the ``(B, H)`` state buffer (GRU: ``h -= n; h
*= z; h += n``).

**Precision policy.**  Plans are built once per ``CellWeights``
generation in the policy dtype, ``float32`` or ``float64``; both run the
same kernel code.  float64 is held to the parity bounds against the
autograd reference (< 1e-10 forward, < 1e-8 gradients), float32 to a
property-bounded drift from float64.  A raw
:class:`~repro.nn.CellWeights` passed where a plan is expected is
promoted to a float64 plan on the fly (:func:`as_plan`), so direct
kernel callers keep reference semantics.  Plans are plain packed
copies; :class:`~repro.runtime.FusedEncoderRuntime` caches them on the
identity of the live parameter buffers they read, so a cached plan is
rebuilt exactly when an optimiser step (which rebinds ``param.data``)
changes the weights.

**Row order.**  Every kernel has one packed path.  When ``lengths`` are
not sorted longest-first, or a per-row prefix ``mask`` is given, the
kernel sorts the rows longest-first with a stable sort, runs the packed
loop and returns every result in the caller's row order.  ``lengths``
must have shape ``(B,)`` and values in ``[0, T]``, and a ``mask`` must
be a per-row prefix mask; anything else raises ``ValueError``.

Two kernel families share those tricks:

- **inference**: :func:`gru_forward` / :func:`lstm_forward` /
  :func:`rnn_forward` and :func:`encode_events` — forward only, nothing
  retained;
- **training**: :func:`gru_forward_train` / :func:`lstm_forward_train`
  stash the per-cell gate blocks and previous states a backward pass
  needs (in the plan dtype), and :func:`gru_backward` /
  :func:`lstm_backward` run hand-derived BPTT over that cache — loss
  gradient in, weight gradients out, no graph ever built.  Both work in
  one **packed cell layout**: the ``N = lengths.sum()`` real cells of
  the ``(B, T)`` grid, time-major and longest-first within a step, so
  step ``t``'s active rows are one contiguous range of every ``(N, ·)``
  array, and one flat ``row * T + step`` index per call maps each cell
  back to the caller's grid.  The forward gathers the real cells' events
  once and projects only them; the state lives in a ``(B, H)`` buffer.
  Pre-activation gradients fill one ``(N, 4H)`` buffer whose
  recurrent-side and input-side parts are each one contiguous column
  range, so the weight, bias and input gradients are a few big GEMMs
  over the real cells at the end, with no concatenated copy; ``d_x`` is
  scattered into a zero grid.  Per-step gradients of padded steps read
  the row's frozen final state, so they fold into the final-state
  gradient before BPTT starts.

Weight layout is *not* re-declared here: plans are built from the
:class:`~repro.nn.CellWeights` view exported by the ``nn.rnn`` modules,
and gradients are returned in its gate order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PRECISIONS",
    "resolve_precision",
    "l2_normalize_rows",
    "l2_normalize_rows_backward",
    "WeightPlan",
    "build_weight_plan",
    "as_plan",
    "EncodePlan",
    "build_encode_plan",
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

#: CellWeights gate indices (GRU ``r, z, n``; LSTM ``i, f, g, o``) of
#: each cell's sigmoid block; gate 2 (GRU ``n``, LSTM ``g``) is the tanh
#: block.
_SIGMOID_GATES = {"gru": (0, 1), "lstm": (0, 1, 3)}
_TANH_GATE = 2

#: Gate order of the BPTT gradient buffer's (recurrent-side, input-side)
#: column ranges.  The GRU buffer is ``[d_ghn | d_r | d_z | d_an]``: its
#: first 3H columns are the recurrent side (n, r, z), its last 3H the
#: input side (r, z, n).  The LSTM folds every bias, so both sides are
#: the one ``[d_i | d_f | d_o | d_g]`` range.
_GRAD_GATES = {"gru": ((2, 0, 1), (0, 1, 2)),
               "lstm": ((0, 1, 3, 2), (0, 1, 3, 2))}


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
# weight plans: per-generation precompute (gate blocks, cast, bias folding)
# ----------------------------------------------------------------------

@dataclass
class WeightPlan:
    """Gate-block, dtype-cast view of one :class:`~repro.nn.CellWeights`.

    Built once per weight generation by :func:`build_weight_plan`; every
    kernel call then runs off its pre-transposed, pre-cast buffers.  The
    forward reads two blocks, each C-contiguous and stored input-side
    ``(D, ·)`` and recurrent ``(H, ·)``:

    - the sigmoid block (GRU ``r|z``, LSTM ``i|f|o``): ``w_ih_sig``,
      ``w_hh_sig`` and the folded ``bias_sig``, all pre-scaled by 0.5 so
      the kernels evaluate ``σ(a) = 0.5·tanh(a/2) + 0.5``;
    - the tanh block (GRU ``n``, LSTM ``g``): ``w_ih_tanh``,
      ``w_hh_tanh`` and the folded ``bias_tanh``.

    Recurrent biases are folded into the input side except the GRU
    n-gate's, kept separate in ``b_hn`` (None for LSTM) because it sits
    inside the reset product.

    BPTT reads the unscaled weights stacked in the gradient buffer's
    gate order (``w_hh_grad`` for the recurrent side, ``w_ih_grad`` for
    the input side); ``grad_rows`` maps those rows back to
    :class:`~repro.nn.CellWeights` order.
    """

    kind: str                 # "gru" | "lstm"
    hidden_size: int
    dtype: np.dtype
    w_ih_sig: np.ndarray      # (D, S*H) sigmoid block, 0.5-scaled
    w_hh_sig: np.ndarray      # (H, S*H) sigmoid block, 0.5-scaled
    bias_sig: np.ndarray      # (S*H,) 0.5 * (b_ih + b_hh)
    w_ih_tanh: np.ndarray     # (D, H) tanh block
    w_hh_tanh: np.ndarray     # (H, H) tanh block
    bias_tanh: np.ndarray     # (H,) b_ih (+ b_hh for LSTM)
    b_hn: np.ndarray          # (H,) GRU n-gate recurrent bias, or None
    w_ih_grad: np.ndarray     # (G*H, D) unscaled, input-side grad order
    w_hh_grad: np.ndarray     # (G*H, H) unscaled, recurrent-side order
    grad_rows: tuple          # (recurrent, input) CellWeights row indices
    init_state: np.ndarray    # (H,) policy dtype
    init_cell: np.ndarray = None   # (H,) policy dtype, LSTM only

    @property
    def input_size(self):
        """Width ``D`` of the event representations the plan consumes."""
        return self.w_ih_sig.shape[0]

    @property
    def num_gates(self):
        """Gate count ``G`` of the cell (3 for GRU, 4 for LSTM)."""
        return self.w_ih_grad.shape[0] // self.hidden_size


def _gate_rows(gates, size):
    """Row indices stacking the CellWeights gate blocks ``gates`` in order."""
    return np.concatenate([np.arange(gate * size, (gate + 1) * size,
                                     dtype=np.intp) for gate in gates])


def build_weight_plan(weights, precision="float64"):
    """Precompute the per-weight work of the kernels for one generation.

    ``weights`` is a :class:`~repro.nn.CellWeights` view of the live
    float64 parameter buffers; the plan stores the gate blocks as
    pre-cast, pre-transposed, C-contiguous copies in the ``precision``
    dtype (see :class:`WeightPlan`).  Biases fold in float64 before the
    one cast, and the 0.5 scale of the sigmoid block is exact.
    """
    if weights.kind not in _SIGMOID_GATES:
        raise ValueError("unknown cell kind %r" % weights.kind)
    dtype = resolve_precision(precision)
    size = weights.hidden_size
    sig = _gate_rows(_SIGMOID_GATES[weights.kind], size)
    tanh = _gate_rows((_TANH_GATE,), size)
    rec_rows, inp_rows = (_gate_rows(gates, size)
                          for gates in _GRAD_GATES[weights.kind])
    folded = weights.bias_ih + weights.bias_hh
    gru = weights.kind == "gru"

    def cast(values):
        """A C-contiguous copy in the plan dtype."""
        return np.ascontiguousarray(values, dtype=dtype)

    return WeightPlan(
        kind=weights.kind,
        hidden_size=size,
        dtype=dtype,
        w_ih_sig=cast(0.5 * weights.weight_ih[sig].T),
        w_hh_sig=cast(0.5 * weights.weight_hh[sig].T),
        bias_sig=cast(0.5 * folded[sig]),
        w_ih_tanh=cast(weights.weight_ih[tanh].T),
        w_hh_tanh=cast(weights.weight_hh[tanh].T),
        bias_tanh=cast((weights.bias_ih if gru else folded)[tanh]),
        b_hn=cast(weights.bias_hh[tanh]) if gru else None,
        w_ih_grad=cast(weights.weight_ih[inp_rows]),
        w_hh_grad=cast(weights.weight_hh[rec_rows]),
        grad_rows=(rec_rows, inp_rows),
        init_state=cast(weights.init_state),
        init_cell=(None if weights.init_cell is None else
                   cast(weights.init_cell)),
    )


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
    the big per-event gathers move half the bytes.
    """

    dtype: np.dtype
    tables: dict                   # field name -> (V, d) table, policy dtype


def build_encode_plan(trx_encoder, precision="float64"):
    """Pre-cast the categorical embedding tables to the policy dtype."""
    dtype = resolve_precision(precision)
    tables = {}
    for name in trx_encoder.schema.categorical:
        table = trx_encoder.embeddings[name].weight.data
        tables[name] = (table if table.dtype == dtype
                        else np.ascontiguousarray(table, dtype=dtype))
    return EncodePlan(dtype=dtype, tables=tables)


# ----------------------------------------------------------------------
# shared plumbing: row schedule, time-major layout, gate blocks
# ----------------------------------------------------------------------

def _schedule(x, lengths, mask):
    """The packed schedule of one kernel call: ``(perm, counts)``.

    ``perm`` is the stable longest-first row order (None when the rows
    already run longest-first) and ``counts`` the list of active row
    counts per step in that order; without ``lengths`` and ``mask``
    every row is active at every step.  ``lengths`` must have shape
    ``(B,)`` and values in ``[0, T]``, and a ``mask`` must be the per-row
    prefix mask of ``lengths`` (of its own row sums when ``lengths`` is
    None); anything else raises ``ValueError``.
    """
    batch, steps = x.shape[:2]
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.shape != (batch,):
            raise ValueError("lengths must have shape (B,) = (%d,), got %s"
                             % (batch, lengths.shape))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if lengths is None:
            lengths = mask.sum(axis=1)
        prefix = np.arange(steps, dtype=np.intp) < lengths[:, None]
        if mask.shape != (batch, steps) or not np.array_equal(mask, prefix):
            raise ValueError(
                "mask must be a (B, T) per-row prefix mask (True exactly "
                "for the first lengths[b] steps of row b)")
    if lengths is None:
        return None, [batch] * steps
    perm = None
    if batch > 1 and np.any(lengths[1:] > lengths[:-1]):
        perm = np.argsort(-lengths, kind="stable")
        lengths = lengths[perm]
    # Longest-first, so the bounds are the two ends.
    if batch and (lengths[0] > steps or lengths[-1] < 0):
        raise ValueError("lengths must lie in [0, T] = [0, %d], got [%d, %d]"
                         % (steps, lengths[-1], lengths[0]))
    counts = batch - np.searchsorted(
        lengths[::-1], np.arange(steps, dtype=np.intp), side="right")
    return perm, counts.tolist()


def _kernel_rows(values, dtype, perm):
    """A fresh ``dtype`` copy of ``values`` with rows in kernel order."""
    values = np.asarray(values, dtype=dtype)
    return values.copy() if perm is None else values[perm]


def _caller_rows(values, perm):
    """Undo :func:`_kernel_rows`: rows back in the caller's order."""
    if perm is None:
        return values
    out = np.empty_like(values)
    out[perm] = values
    return out


def _time_major(values, dtype, perm):
    """``(B, T, ·)`` -> C-contiguous ``(T, B, ·)`` ``dtype`` array, rows in
    kernel order (one gather/copy)."""
    seq = values.swapaxes(0, 1)
    if perm is not None:
        seq = np.take(seq, perm, axis=1)
    if seq.dtype != dtype:
        return seq.astype(dtype, order="C", copy=False)
    return np.ascontiguousarray(seq)


def _batch_major(seq, perm):
    """Undo :func:`_time_major`: a new C-contiguous ``(B, T, ·)`` array in
    the caller's row order."""
    values = seq.swapaxes(0, 1)
    out = np.empty(values.shape, dtype=seq.dtype)
    if perm is None:
        out[...] = values
    else:
        out[perm] = values
    return out


def _input_gates(plan, x):
    """The input projection of every step, one GEMM per gate block.

    ``x`` holds one event per row along its last axis: the inference
    forwards' time-major ``(T, B, D)`` grid or the training forwards'
    ``(N, D)`` packed cells.  Returns the sigmoid block ``(..., S*H)``
    and the tanh block ``(..., H)`` in the same leading shape, each with
    its folded bias added.  The kernels overwrite both in place with the
    step's gate values.
    """
    lead, dim = x.shape[:-1], x.shape[-1]
    flat = x.reshape(math.prod(lead), dim)
    sig = flat @ plan.w_ih_sig
    sig += plan.bias_sig
    tanh = flat @ plan.w_ih_tanh
    tanh += plan.bias_tanh
    return (sig.reshape(lead + sig.shape[1:]),
            tanh.reshape(lead + tanh.shape[1:]))


def _initial_states(plan, batch, initial, perm):
    """Kernel-order copies of the initial ``(hidden, cell)`` state.

    ``initial`` is the caller's ``(B, H)`` state (an ``(h, c)`` pair for
    LSTM) in any float dtype, or None for the learnt c_0; ``cell`` is
    None for the GRU.
    """
    if initial is None:
        return tuple(None if part is None else np.tile(part, (batch, 1))
                     for part in (plan.init_state, plan.init_cell))
    parts = initial if plan.kind == "lstm" else (initial, None)
    return tuple(None if part is None else
                 _kernel_rows(part, plan.dtype, perm) for part in parts)


def _sigmoid_block(block):
    """In-place σ of a 0.5-scaled gate block: ``0.5·tanh(a/2) + 0.5``.

    The plan pre-scales the sigmoid block by 0.5, so ``block`` holds
    ``a/2``.  tanh saturates to ±1 without overflow: no clip, and
    saturated gates come out exactly 0 or 1 in both dtypes.
    """
    np.tanh(block, out=block)
    block *= 0.5
    block += 0.5


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
        True sequence lengths ``(B,)`` in ``[0, T]``, in any row order;
        each step runs on the active row prefix of the longest-first
        order.
    mask:
        Optional boolean ``(B, T)`` per-row prefix mask, an alternative
        to ``lengths``; any other mask raises ``ValueError``.
    initial:
        Optional ``(B, H)`` state overriding the learnt c_0.
    return_outputs:
        When True also return the per-step states ``(B, T, H)``.

    Returns
    -------
    (outputs, last): outputs is None unless requested; last is ``(B, H)``
    in the plan dtype, the state after each sequence's final real event.
    Both are in the caller's row order.
    """
    plan = as_plan(weights)
    batch, steps, _ = x.shape
    size = plan.hidden_size
    perm, counts = _schedule(x, lengths, mask)
    hidden, _ = _initial_states(plan, batch, initial, perm)
    gx_sig, gx_n = _input_gates(plan, _time_major(x, plan.dtype, perm))
    outputs = (np.empty((steps, batch, size), dtype=plan.dtype)
               if return_outputs else None)
    sig = np.empty((batch, 2 * size), dtype=plan.dtype)
    ghn = np.empty((batch, size), dtype=plan.dtype)
    # Hoisted loop invariants: attribute loads are measurable at one
    # python-level iteration per timestep.
    w_sig, w_n, b_hn = plan.w_hh_sig, plan.w_hh_tanh, plan.b_hn
    for t, active in enumerate(counts):
        if active == 0:
            if outputs is not None:
                outputs[t:] = hidden
            break
        h = hidden[:active]
        s = sig[:active]
        np.dot(h, w_sig, out=s)
        s += gx_sig[t, :active]
        _sigmoid_block(s)                  # s = [r | z]
        g = ghn[:active]
        np.dot(h, w_n, out=g)
        g += b_hn
        g *= s[:, :size]
        n = gx_n[t, :active]
        n += g
        np.tanh(n, out=n)
        # h' = (1 - z) * n + z * h, in place
        h -= n
        h *= s[:, size:]
        h += n
        if outputs is not None:
            outputs[t] = hidden
    return (None if outputs is None else _batch_major(outputs, perm),
            _caller_rows(hidden, perm))


def lstm_forward(weights, x, lengths=None, mask=None, initial=None,
                 return_outputs=False):
    """Fused LSTM forward; ``initial`` and the final state are (h, c) pairs.

    Same contract as :func:`gru_forward`.
    """
    plan = as_plan(weights)
    batch, steps, _ = x.shape
    size = plan.hidden_size
    perm, counts = _schedule(x, lengths, mask)
    hidden, cell = _initial_states(plan, batch, initial, perm)
    gx_sig, gx_g = _input_gates(plan, _time_major(x, plan.dtype, perm))
    outputs = (np.empty((steps, batch, size), dtype=plan.dtype)
               if return_outputs else None)
    sig = np.empty((batch, 3 * size), dtype=plan.dtype)
    scratch = np.empty((batch, size), dtype=plan.dtype)
    w_sig, w_g = plan.w_hh_sig, plan.w_hh_tanh
    for t, active in enumerate(counts):
        if active == 0:
            if outputs is not None:
                outputs[t:] = hidden
            break
        h = hidden[:active]
        c = cell[:active]
        s = sig[:active]
        np.dot(h, w_sig, out=s)
        s += gx_sig[t, :active]
        _sigmoid_block(s)                  # s = [i | f | o]
        tmp = scratch[:active]
        g = gx_g[t, :active]
        np.dot(h, w_g, out=tmp)
        g += tmp
        np.tanh(g, out=g)
        # c' = f * c + i * g;  h' = o * tanh(c'), in place
        c *= s[:, size:2 * size]
        g *= s[:, :size]
        c += g
        np.tanh(c, out=tmp)
        np.multiply(s[:, 2 * size:], tmp, out=h)
        if outputs is not None:
            outputs[t] = hidden
    return (None if outputs is None else _batch_major(outputs, perm),
            (_caller_rows(hidden, perm), _caller_rows(cell, perm)))


def rnn_forward(weights, x, lengths=None, mask=None, initial=None,
                return_outputs=False):
    """Dispatch to the fused GRU or LSTM kernel by ``weights.kind``.

    ``weights`` is a :class:`~repro.nn.CellWeights` view or an already
    packed :class:`WeightPlan`; ``x`` is the ``(B, T, D)`` event array
    (cast to the plan dtype on entry); ``lengths`` are per-row step
    counts (ints, any row order), ``mask`` an optional ``(B, T)``
    boolean per-row prefix mask, and ``initial`` the ``(B, H)`` seed
    state (an ``(h, c)`` pair for LSTM) in any float dtype — it is
    copied into the plan dtype.
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

def _pack(x, lengths, mask):
    """The packed cell layout of one training call: ``(perm, cells, spans)``.

    A *cell* is one real ``(row, step)`` of the caller's ``(B, T)`` grid;
    there are ``N = lengths.sum()`` of them.  ``cells`` holds each one's
    flat grid index ``row * T + step``, time-major and in the kernel's
    longest-first row order within a step, and ``spans`` the ``(start,
    stop)`` cell range of each step that has an active row — so step
    ``t``'s cells are ``spans[t]``, and they belong to the first ``stop -
    start`` rows of the kernel order.  ``perm`` is as in
    :func:`_schedule`.
    """
    perm, counts = _schedule(x, lengths, mask)
    counts = [count for count in counts if count]
    stops = list(itertools.accumulate(counts))
    starts = [stop - count for stop, count in zip(stops, counts)]
    # Step t's cells are kernel rows 0 .. counts[t] - 1 at step t.
    times = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    rows = (np.arange(len(times), dtype=np.intp)
            - np.repeat(np.array(starts, dtype=np.intp), counts))
    if perm is not None:
        rows = perm[rows]
    return perm, rows * x.shape[1] + times, list(zip(starts, stops))


def _gather_cells(values, cells):
    """The ``(N, ·)`` rows of a ``(B, T, ·)`` array at the cell index."""
    batch, steps, width = values.shape
    return np.take(values.reshape(batch * steps, width), cells, axis=0)


def _scatter_cells(values, cells, batch, steps):
    """Undo :func:`_gather_cells`: a zero ``(B, T, ·)`` array holding the
    ``(N, ·)`` ``values`` at their cells."""
    width = values.shape[1]
    out = np.zeros((batch, steps, width), dtype=values.dtype)
    out.reshape(batch * steps, width)[cells] = values
    return out


@dataclass
class RnnTrainCache:
    """Per-cell activations stashed by a training forward pass.

    Produced by :func:`gru_forward_train` / :func:`lstm_forward_train` and
    consumed exactly once by the matching backward kernel.  Per-cell
    arrays hold one row per real cell and nothing for padding: ``(N,
    ·)`` with ``N = lengths.sum()``, packed time-major in the kernel's
    longest-first row order, so step ``t`` reads the contiguous rows
    ``spans[t]`` of every one of them (see :func:`_pack`).  ``cells``
    maps each row back to the caller's ``(B, T)`` grid.  Everything is
    stored in the plan dtype; ``x`` and ``last`` (and the
    :attr:`states` view) are in the caller's row order.
    """

    kind: str                # "gru" | "lstm"
    plan: WeightPlan         # the plan the forward ran with
    perm: np.ndarray         # kernel row order, or None
    cells: np.ndarray        # (N,) flat grid index row * T + step per cell
    spans: list              # (start, stop) cell range of each active step
    x: np.ndarray            # (B, T, D) events the recurrence consumed
    x_cells: np.ndarray      # (N, D) the events of the real cells
    sig: np.ndarray          # (N, S*H) σ block: r|z (GRU), i|f|o (LSTM)
    cand: np.ndarray         # (N, H) tanh block: n (GRU), g (LSTM)
    h_prev: np.ndarray       # (N, H) hidden state each cell read
    last: object             # (B, H) or (h, c) — the forward result
    gate_hidden: np.ndarray = None  # (N, H) GRU only: W_hn h + b_hn
    c_prev: np.ndarray = None       # (N, H) LSTM only: cell each cell read
    tanh_cell: np.ndarray = None    # (N, H) LSTM only: tanh(c_t)

    @property
    def states(self):
        """Per-step hidden states ``(B, T, H)`` in the caller's row order.

        States at padded steps hold the frozen value of the row's last
        real step, like the autograd ``cell(x, mask=...)`` outputs: the
        state after a cell is the next cell's ``h_prev``, or ``last``
        for a row's final cell and its padded steps.
        """
        last = self.last[0] if self.kind == "lstm" else self.last
        (batch, steps), size = self.x.shape[:2], last.shape[1]
        out = np.empty((batch, steps, size), dtype=last.dtype)
        out[...] = last[:, None]
        later = self.spans[0][1] if self.spans else 0   # cells of step >= 1
        out.reshape(batch * steps, size)[self.cells[later:] - 1] = (
            self.h_prev[later:])
        return out


def gru_forward_train(weights, x, lengths=None, mask=None, initial=None):
    """GRU forward stashing what :func:`gru_backward` needs.

    Same contract as :func:`gru_forward`, but returns an
    :class:`RnnTrainCache` whose ``last`` field carries the final
    ``(B, H)`` state.
    """
    plan = as_plan(weights)
    batch = x.shape[0]
    size = plan.hidden_size
    x = np.asarray(x, dtype=plan.dtype)
    perm, cells, spans = _pack(x, lengths, mask)
    x_cells = _gather_cells(x, cells)
    sig, cand = _input_gates(plan, x_cells)
    hidden, _ = _initial_states(plan, batch, initial, perm)
    h_prev = np.empty_like(cand)
    gate_hidden = np.empty_like(cand)
    scratch_sig = np.empty((batch, 2 * size), dtype=plan.dtype)
    scratch = np.empty((batch, size), dtype=plan.dtype)
    w_sig, w_n, b_hn = plan.w_hh_sig, plan.w_hh_tanh, plan.b_hn
    for start, stop in spans:
        active = stop - start
        h = hidden[:active]
        h_prev[start:stop] = h
        s = sig[start:stop]
        tmp = scratch_sig[:active]
        np.dot(h, w_sig, out=tmp)
        s += tmp
        _sigmoid_block(s)                  # s = [r | z]
        ghn = gate_hidden[start:stop]
        np.dot(h, w_n, out=ghn)
        ghn += b_hn
        reset_ghn = scratch[:active]
        np.multiply(ghn, s[:, :size], out=reset_ghn)
        n = cand[start:stop]
        n += reset_ghn
        np.tanh(n, out=n)
        # h' = (1 - z) * n + z * h, in place
        h -= n
        h *= s[:, size:]
        h += n
    return RnnTrainCache(kind="gru", plan=plan, perm=perm, cells=cells,
                         spans=spans, x=x, x_cells=x_cells, sig=sig,
                         cand=cand, h_prev=h_prev,
                         last=_caller_rows(hidden, perm),
                         gate_hidden=gate_hidden)


def lstm_forward_train(weights, x, lengths=None, mask=None, initial=None):
    """LSTM forward stashing what :func:`lstm_backward` needs.

    ``initial`` and ``cache.last`` are ``(h, c)`` pairs; otherwise the
    contract of :func:`gru_forward_train`.
    """
    plan = as_plan(weights)
    batch = x.shape[0]
    size = plan.hidden_size
    x = np.asarray(x, dtype=plan.dtype)
    perm, cells, spans = _pack(x, lengths, mask)
    x_cells = _gather_cells(x, cells)
    sig, cand = _input_gates(plan, x_cells)
    hidden, cell = _initial_states(plan, batch, initial, perm)
    h_prev = np.empty_like(cand)
    c_prev = np.empty_like(cand)
    tanh_cell = np.empty_like(cand)
    scratch_sig = np.empty((batch, 3 * size), dtype=plan.dtype)
    scratch = np.empty((batch, size), dtype=plan.dtype)
    w_sig, w_g = plan.w_hh_sig, plan.w_hh_tanh
    for start, stop in spans:
        active = stop - start
        h = hidden[:active]
        c = cell[:active]
        h_prev[start:stop] = h
        c_prev[start:stop] = c
        s = sig[start:stop]
        tmp_sig = scratch_sig[:active]
        np.dot(h, w_sig, out=tmp_sig)
        s += tmp_sig
        _sigmoid_block(s)                  # s = [i | f | o]
        tmp = scratch[:active]
        g = cand[start:stop]
        np.dot(h, w_g, out=tmp)
        g += tmp
        np.tanh(g, out=g)
        # c' = f * c + i * g;  h' = o * tanh(c'), in place
        c *= s[:, size:2 * size]
        np.multiply(s[:, :size], g, out=tmp)
        c += tmp
        tanh_c = tanh_cell[start:stop]
        np.tanh(c, out=tanh_c)
        np.multiply(s[:, 2 * size:], tanh_c, out=h)
    return RnnTrainCache(kind="lstm", plan=plan, perm=perm, cells=cells,
                         spans=spans, x=x, x_cells=x_cells, sig=sig,
                         cand=cand, h_prev=h_prev,
                         last=(_caller_rows(hidden, perm),
                               _caller_rows(cell, perm)),
                         c_prev=c_prev, tanh_cell=tanh_cell)


def rnn_forward_train(weights, x, lengths=None, mask=None, initial=None):
    """Dispatch to the GRU or LSTM training forward by ``weights.kind``.

    Same argument contract as :func:`rnn_forward` — ``x`` is ``(B, T,
    D)``, ``mask`` an optional ``(B, T)`` boolean per-row prefix mask,
    ``initial`` ``(B, H)`` (pair for LSTM) — but returns the
    activation-caching forward used by BPTT.
    """
    if weights.kind == "gru":
        return gru_forward_train(weights, x, lengths=lengths, mask=mask,
                                 initial=initial)
    if weights.kind == "lstm":
        return lstm_forward_train(weights, x, lengths=lengths, mask=mask,
                                  initial=initial)
    raise ValueError("unknown cell kind %r" % weights.kind)


def _backward_setup(cache, d_last, d_outputs):
    """Kernel-order ``d_hidden`` (a fresh ``(B, H)`` buffer) and the real
    cells' per-step gradients as an ``(N, H)`` array, or None.

    A padded step's state is the row's frozen final state, so its
    ``d_outputs`` fold into ``d_hidden`` up front and BPTT never visits
    a padded cell.
    """
    dtype, perm = cache.plan.dtype, cache.perm
    d_hidden = _kernel_rows(d_last, dtype, perm)
    if d_outputs is None:
        return d_hidden, None
    d_outputs = np.asarray(d_outputs, dtype=dtype)
    batch, steps = d_outputs.shape[:2]
    padded = np.ones(batch * steps, dtype=bool)
    padded[cache.cells] = False
    folded = d_outputs.sum(axis=1, where=padded.reshape(batch, steps, 1))
    d_hidden += folded if perm is None else folded[perm]
    return d_hidden, _gather_cells(d_outputs, cache.cells)


def _cell_order(grad, rows):
    """Gradient rows stacked in gradient-buffer gate order, scattered back
    to :class:`~repro.nn.CellWeights` order."""
    out = np.empty_like(grad)
    out[rows] = grad
    return out


def _finish_grads(cache, grad, recurrent_cols, input_cols):
    """The fused tail of BPTT: every weight/bias/input gradient as a few
    big GEMMs over the ``(N, 4H)`` per-cell gradient buffer ``grad``.

    ``recurrent_cols``/``input_cols`` are the two column ranges of the
    buffer (slices; each one contiguous range, so no concatenated copy).
    Both bias gradients read one column sum of the whole buffer.
    """
    plan = cache.plan
    rec_rows, inp_rows = plan.grad_rows
    d_rec = grad[:, recurrent_cols]
    d_in = grad[:, input_cols]
    bias = grad.sum(axis=0)
    batch, steps = cache.x.shape[:2]
    return {
        "weight_ih": _cell_order(d_in.T @ cache.x_cells, inp_rows),
        "bias_ih": _cell_order(bias[input_cols], inp_rows),
        "weight_hh": _cell_order(d_rec.T @ cache.h_prev, rec_rows),
        "bias_hh": _cell_order(bias[recurrent_cols], rec_rows),
        "d_x": _scatter_cells(d_in @ plan.w_ih_grad, cache.cells, batch,
                              steps),
    }


def gru_backward(weights, cache, d_last, d_outputs=None):
    """Hand-derived BPTT through a cached GRU forward.

    Parameters
    ----------
    weights:
        The weights/plan the forward ran with (the cached plan is used).
    cache:
        The :class:`RnnTrainCache` from :func:`gru_forward_train`.
    d_last:
        Loss gradient wrt the final hidden state, ``(B, H)``.
    d_outputs:
        Optional loss gradient wrt every per-step state, ``(B, T, H)``
        (CPC-style objectives).

    Both gradients are in the caller's row order and any float dtype.

    Returns
    -------
    dict with ``d_x`` (gradient wrt the event representations, ``(B, T,
    D)``, caller order, exactly 0 at padded steps) and per-parameter
    gradients ``weight_ih``, ``weight_hh``, ``bias_ih``, ``bias_hh``,
    ``init_state`` in :class:`~repro.nn.CellWeights` order — the exact
    quantities the autograd path accumulates, to < 1e-8 under the
    float64 policy.
    """
    plan = cache.plan
    batch = cache.x.shape[0]
    size = plan.hidden_size
    two, three = 2 * size, 3 * size
    d_hidden, d_cells = _backward_setup(cache, d_last, d_outputs)
    # [d_ghn | d_r | d_z | d_an]: the first 3H columns are the recurrent
    # side, the last 3H the input side (d_an = d_gx_n; d_ghn = d_an * r).
    # Every row is one cell, and each step writes all of its cells' rows.
    grad = np.empty((len(cache.cells), 4 * size), dtype=plan.dtype)
    sig, cand, gate_hidden = cache.sig, cache.cand, cache.gate_hidden
    h_prev = cache.h_prev
    w_hh = plan.w_hh_grad
    scratch_sig = np.empty((batch, two), dtype=plan.dtype)
    scratch = np.empty((batch, size), dtype=plan.dtype)
    for start, stop in reversed(cache.spans):
        active = stop - start
        dh = d_hidden[:active]
        if d_cells is not None:
            dh += d_cells[start:stop]
        s = sig[start:stop]
        z = s[:, size:]
        n = cand[start:stop]
        g = grad[start:stop]
        tmp = scratch[:active]
        # d_an = dh * (1 - z) * (1 - n^2)
        np.multiply(n, n, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= dh
        d_an = g[:, three:]
        np.subtract(1.0, z, out=d_an)
        d_an *= tmp
        np.multiply(d_an, s[:, :size], out=g[:, :size])
        # d_r = d_an * ghn * σ'(r);  d_z = dh * (h_prev - n) * σ'(z)
        np.multiply(d_an, gate_hidden[start:stop], out=g[:, size:two])
        d_z = g[:, two:three]
        np.subtract(h_prev[start:stop], n, out=d_z)
        d_z *= dh
        slope = scratch_sig[:active]
        np.subtract(1.0, s, out=slope)
        slope *= s
        g[:, size:three] *= slope
        # d_h_prev = dh * z + [d_ghn | d_r | d_z] @ W_hh(n, r, z); dh
        # aliases d_hidden[:active], so this IS the carry to step t-1.
        dh *= z
        np.dot(g[:, :three], w_hh, out=tmp)
        dh += tmp
    grads = _finish_grads(cache, grad, slice(0, three), slice(size, None))
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
    plan = cache.plan
    batch = cache.x.shape[0]
    size = plan.hidden_size
    two, three = 2 * size, 3 * size
    d_hidden, d_cells = _backward_setup(cache, d_last, d_outputs)
    d_cell = np.zeros((batch, size), dtype=plan.dtype)
    # [d_i | d_f | d_o | d_g]: every LSTM bias folds, so the recurrent
    # and input sides share this one range.  Each step writes all of
    # its cells' rows.
    grad = np.empty((len(cache.cells), 4 * size), dtype=plan.dtype)
    sig, cand, tanh_cell = cache.sig, cache.cand, cache.tanh_cell
    c_prev = cache.c_prev
    w_hh = plan.w_hh_grad
    scratch_sig = np.empty((batch, three), dtype=plan.dtype)
    scratch = np.empty((batch, size), dtype=plan.dtype)
    for start, stop in reversed(cache.spans):
        active = stop - start
        dh = d_hidden[:active]
        if d_cells is not None:
            dh += d_cells[start:stop]
        dc = d_cell[:active]
        s = sig[start:stop]
        cg = cand[start:stop]
        tanh_c = tanh_cell[start:stop]
        g = grad[start:stop]
        tmp = scratch[:active]
        # dc += dh * o * (1 - tanh(c)^2)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= s[:, two:]
        tmp *= dh
        dc += tmp
        # [d_i | d_f | d_o] = [dc * g | dc * c_prev | dh * tanh(c)] * σ'
        np.multiply(dc, cg, out=g[:, :size])
        np.multiply(dc, c_prev[start:stop], out=g[:, size:two])
        np.multiply(dh, tanh_c, out=g[:, two:three])
        slope = scratch_sig[:active]
        np.subtract(1.0, s, out=slope)
        slope *= s
        g[:, :three] *= slope
        # d_g = dc * i * (1 - g^2)
        d_g = g[:, three:]
        np.multiply(cg, cg, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        d_g *= s[:, :size]
        d_g *= dc
        # carries to step t-1 (dh, dc alias the d_hidden/d_cell rows)
        dc *= s[:, size:two]
        np.dot(g, w_hh, out=dh)
    every = slice(None)
    grads = _finish_grads(cache, grad, every, every)
    grads["init_state"] = d_hidden.sum(axis=0)
    grads["init_cell"] = d_cell.sum(axis=0)
    return grads


def rnn_backward(weights, cache, d_last, d_outputs=None):
    """Dispatch to the GRU or LSTM backward kernel by ``cache.kind``.

    ``d_last`` is the ``(B, H)`` gradient wrt the final hidden state,
    ``d_outputs`` the optional ``(B, T, H)`` per-step state gradients
    (both in the caller's row order, any float dtype, cast to the plan
    dtype).
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
