"""Graph-free transformer kernels: fused attention forward + backward.

The transformer analogue of :mod:`repro.runtime.kernels`: the whole
pre-norm encoder stack of :class:`repro.nn.TransformerEncoder` —
sinusoidal positions, multi-head attention with key-padding masks, GELU
feed-forward blocks, masked mean pooling — evaluated as raw numpy with
no autograd graph, plus the hand-derived reverse pass (softmax-Jacobian
attention backward, LayerNorm backward, GELU backward) that
:class:`repro.runtime.FusedTrainStep` drives for training.

The module follows the same three contracts as the recurrent kernels:

- **packed weight plans** — :func:`build_transformer_plan` pre-casts and
  pre-transposes every parameter into a :class:`TransformerPlan` (the
  q/k/v projections additionally pack into one ``(D, 3D)`` GEMM);
  :class:`~repro.runtime.FusedEncoderRuntime` caches it on the
  identity of the :func:`transformer_parameters` buffers, the one plan
  cache it keeps for every encoder family;
- **precision policy** — plans carry the ``"float32"``/``"float64"``
  compute dtype, and a float32 plan computes in float32 end to end:
  forward outputs, train caches and gradients (checked by
  ``tests/runtime/test_precision.py::test_float32_plan_stays_float32``).
  Every scalar that meets an array is a Python float or a plan-dtype
  scalar (:attr:`TransformerPlan.scale`): under NEP 50 a numpy float64
  scalar would promote the whole stack to float64.  float64 is the
  parity reference (< 1e-10 forward, < 1e-8 gradients, property-tested
  by ``tests/runtime/test_fused_transformer.py``);
- **attention step** — the plan's query block is pre-scaled by
  ``1/sqrt(head_dim)`` (in float64, before the cast), so the only full
  ``(B, heads, T, T)`` passes are ``q @ k.T``, the in-place key-padding
  fill, the row max, ``exp`` in place, the row sums and ``@ v``.  The
  inference forward normalises late, dividing the ``(T, head_dim)``
  result of ``exp @ v`` by the sums; the train forward divides the
  weights in place, because its cache keeps the probabilities.  The
  backward chains the scale into the query weight and bias gradients;
- **training parity** — the train forward mirrors the autograd path's
  dropout draws (same rng objects, same draw order) and the backward
  reproduces autograd's ``masked_fill`` semantics (no gradient through
  masked score positions), so the fused step and the autograd modules
  walk identical optimisation trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

__all__ = [
    "TransformerPlan",
    "TransformerLayerPlan",
    "TransformerTrainCache",
    "build_transformer_plan",
    "transformer_parameters",
    "transformer_forward",
    "transformer_forward_train",
    "transformer_backward",
]

#: Additive score mask for padded key positions — the same finite fill
#: value as ``MultiHeadAttention`` (``-1e9`` rather than ``-inf``), so a
#: fully-padded row degrades to a uniform attention distribution instead
#: of a ``nan`` softmax.
MASK_FILL = -1e9

#: GELU constants as Python floats: a numpy float64 scalar here would
#: promote a float32 plan's feed-forward block to float64 (NEP 50).
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


# ----------------------------------------------------------------------
# weight plans
# ----------------------------------------------------------------------

@dataclass
class TransformerLayerPlan:
    """Packed, dtype-cast buffers of one :class:`TransformerEncoderLayer`.

    Linear weights are stored transposed (``x @ w_t + b`` evaluates the
    layer) and the query/key/value projections are packed side by side
    into a single ``(D, 3D)`` matrix so each layer runs one input GEMM
    instead of three.  The query columns of ``qkv_t`` and ``qkv_b`` are
    pre-scaled by ``1/sqrt(head_dim)``, so ``q @ k.T`` already is the
    scaled score matrix.
    """

    ln1_w: np.ndarray        # (D,) norm1 scale
    ln1_b: np.ndarray        # (D,) norm1 shift
    qkv_t: np.ndarray        # (D, 3D) packed [scaled query | key | value]
    qkv_b: np.ndarray        # (3D,) [scaled query | key | value]
    out_t: np.ndarray        # (D, D) attention output projection
    out_b: np.ndarray        # (D,)
    ln2_w: np.ndarray        # (D,) norm2 scale
    ln2_b: np.ndarray        # (D,) norm2 shift
    ff1_t: np.ndarray        # (D, F) feed-forward expansion
    ff1_b: np.ndarray        # (F,)
    ff2_t: np.ndarray        # (F, D) feed-forward contraction
    ff2_b: np.ndarray        # (D,)


@dataclass
class TransformerPlan:
    """Packed, dtype-cast view of a whole ``TransformerSeqEncoder`` stack.

    Built once per weight generation by :func:`build_transformer_plan`;
    every kernel call then runs off the pre-transposed, pre-cast buffers.
    ``module`` references the live :class:`~repro.nn.TransformerEncoder`
    for the per-``(dtype, length)`` positional-slice cache and the
    training-mode dropout modules.
    """

    dtype: np.dtype
    dim: int                  # model width D
    num_heads: int
    head_dim: int
    ln_eps: float             # LayerNorm epsilon (uniform across the stack)
    in_t: np.ndarray          # (D_trx, D) input projection, transposed
    in_b: np.ndarray          # (D,)
    layers: tuple             # of TransformerLayerPlan
    final_w: np.ndarray       # (D,) final_norm scale
    final_b: np.ndarray       # (D,) final_norm shift
    module: object = field(default=None, repr=False)

    @property
    def scale(self):
        """The ``1/sqrt(head_dim)`` score scale, a plan-dtype scalar.

        The forward never multiplies by it (the query block carries it);
        the backward chains it into the query weight and bias gradients.
        """
        return self.dtype.type(1.0 / np.sqrt(self.head_dim))

    def positional(self, steps):
        """The ``(1, steps, D)`` positional slice in the plan dtype."""
        return self.module.positional_slice(steps, self.dtype)


def transformer_parameters(encoder):
    """Canonical flat name -> live Parameter map of a transformer encoder.

    The transformer analogue of
    :meth:`~repro.nn.rnn._RecurrentBase.cell_parameters`, returned by
    :meth:`~repro.runtime.FusedEncoderRuntime.plan_parameters`: one walk
    that keys the cached :class:`TransformerPlan` (on the identity of
    every ``.data`` buffer :func:`build_transformer_plan` packs) and that
    :meth:`~repro.runtime.FusedTrainStep.backward` accumulates the
    gradient dict of :func:`transformer_backward` into, so the two sides
    can never drift.
    """
    params = {
        "input_proj.weight": encoder.input_proj.weight,
        "input_proj.bias": encoder.input_proj.bias,
    }
    transformer = encoder.transformer
    for index, layer in enumerate(transformer.layers):
        prefix = "transformer.layers.%d." % index
        attn = layer.attention
        for name, linear in (("query", attn.query), ("key", attn.key),
                             ("value", attn.value), ("out", attn.out),
                             ("ff1", layer.ff1), ("ff2", layer.ff2)):
            target = prefix + ("attention.%s" % name
                               if name in ("query", "key", "value", "out")
                               else name)
            params[target + ".weight"] = linear.weight
            params[target + ".bias"] = linear.bias
        for name, norm in (("norm1", layer.norm1), ("norm2", layer.norm2)):
            params[prefix + name + ".weight"] = norm.weight
            params[prefix + name + ".bias"] = norm.bias
    params["transformer.final_norm.weight"] = transformer.final_norm.weight
    params["transformer.final_norm.bias"] = transformer.final_norm.bias
    return params


def _cast(array, dtype):
    """A contiguous policy-dtype copy of a parameter buffer."""
    return np.ascontiguousarray(array, dtype=dtype)


def build_transformer_plan(encoder, precision="float64"):
    """Precompute the per-weight work of the attention kernels.

    ``encoder`` is a :class:`~repro.encoders.TransformerSeqEncoder`;
    ``precision`` selects the compute dtype of every packed buffer
    (float64 is the Tensor-path parity reference).  The query block is
    scaled by ``1/sqrt(head_dim)`` in float64 before the one cast.
    """
    dtype = kernels.resolve_precision(precision)
    transformer = encoder.transformer
    layers = []
    for layer in transformer.layers:
        attn = layer.attention
        scale = 1.0 / np.sqrt(attn.head_dim)
        qkv_t = np.concatenate(
            [attn.query.weight.data.T * scale, attn.key.weight.data.T,
             attn.value.weight.data.T], axis=1)
        qkv_b = np.concatenate([attn.query.bias.data * scale,
                                attn.key.bias.data, attn.value.bias.data])
        layers.append(TransformerLayerPlan(
            ln1_w=_cast(layer.norm1.weight.data, dtype),
            ln1_b=_cast(layer.norm1.bias.data, dtype),
            qkv_t=_cast(qkv_t, dtype),
            qkv_b=_cast(qkv_b, dtype),
            out_t=_cast(attn.out.weight.data.T, dtype),
            out_b=_cast(attn.out.bias.data, dtype),
            ln2_w=_cast(layer.norm2.weight.data, dtype),
            ln2_b=_cast(layer.norm2.bias.data, dtype),
            ff1_t=_cast(layer.ff1.weight.data.T, dtype),
            ff1_b=_cast(layer.ff1.bias.data, dtype),
            ff2_t=_cast(layer.ff2.weight.data.T, dtype),
            ff2_b=_cast(layer.ff2.bias.data, dtype),
        ))
    first_attn = transformer.layers[0].attention if len(layers) else None
    num_heads = first_attn.num_heads if first_attn else 1
    return TransformerPlan(
        dtype=dtype,
        dim=transformer.dim,
        num_heads=num_heads,
        head_dim=transformer.dim // num_heads,
        ln_eps=transformer.final_norm.eps,
        in_t=_cast(encoder.input_proj.weight.data.T, dtype),
        in_b=_cast(encoder.input_proj.bias.data, dtype),
        layers=tuple(layers),
        final_w=_cast(transformer.final_norm.weight.data, dtype),
        final_b=_cast(transformer.final_norm.bias.data, dtype),
        module=transformer,
    )


# ----------------------------------------------------------------------
# shared math helpers
# ----------------------------------------------------------------------

def _feature_mean(x):
    """Mean over the last axis, keepdims: ``ndarray.mean``'s reduce and
    divide, without its Python-level ``_methods._mean`` wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x, weight, bias, eps):
    """LayerNorm forward; returns ``(out, xhat, inv_std)``.

    Mirrors :class:`repro.nn.LayerNorm` op for op: mean over the last
    axis, biased variance of the centered values, ``centered /
    sqrt(var + eps)``, then the affine map.
    """
    mean = _feature_mean(x)
    centered = x - mean
    var = _feature_mean(centered * centered)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * weight + bias, xhat, inv_std


def _layer_norm_backward(d_out, xhat, inv_std, weight):
    """Closed-form LayerNorm input gradient; returns ``(d_x, d_w, d_b)``.

    With ``xhat = (x - mean) / sqrt(var + eps)`` the input gradient is
    ``inv_std * (d_xhat - mean(d_xhat) - xhat * mean(d_xhat * xhat))``
    (means over the feature axis) — algebraically identical to autograd's
    reverse walk through the mean/var/sqrt graph.
    """
    d_xhat = d_out * weight
    d_x = inv_std * (
        d_xhat
        - _feature_mean(d_xhat)
        - xhat * _feature_mean(d_xhat * xhat)
    )
    axes = tuple(range(d_out.ndim - 1))
    return d_x, (d_out * xhat).sum(axis=axes), d_out.sum(axis=axes)


def _scores(q, k, pad):
    """Fresh ``(B, heads, T, T)`` scores ``q @ k.T``, padded keys filled.

    ``q`` comes from the pre-scaled query block, so no scale pass
    follows; the key-padding fill writes ``MASK_FILL`` in place.
    """
    scores = q @ k.transpose(0, 1, 3, 2)
    if pad is not None:
        np.copyto(scores, MASK_FILL, where=pad[:, None, None, :])
    return scores


def _exp_rows(scores):
    """Unnormalised softmax in place; returns the ``(..., 1)`` row sums.

    ``scores`` becomes ``exp(scores - rowmax)``; dividing it (or ``it @
    v``) by the returned sums completes ``F.softmax`` over the last axis.
    """
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores.sum(axis=-1, keepdims=True)


def _gelu(x):
    """Tanh-approximation GELU in place on ``x``; returns ``x``.

    Op-for-op ``nn.functional.gelu``, with one temporary.
    """
    inner = x * x
    inner *= x
    inner *= _GELU_A
    inner += x
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    inner += 1.0
    x *= 0.5
    x *= inner
    return x


def _gelu_backward(x, d_out):
    """Gradient of the tanh-approximation GELU wrt its input."""
    x_sq = x * x
    inner = (x + x * x_sq * _GELU_A) * _GELU_C
    tanh = np.tanh(inner)
    d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x_sq)
    return d_out * (0.5 * (tanh + 1.0)
                    + x * 0.5 * (1.0 - tanh * tanh) * d_inner)


def _split_heads(x, num_heads, head_dim):
    """``(B, T, D) -> (B, heads, T, head_dim)``."""
    batch, steps, _ = x.shape
    return x.reshape(batch, steps, num_heads, head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x):
    """``(B, heads, T, head_dim) -> (B, T, D)`` (contiguous)."""
    batch, num_heads, steps, head_dim = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(
        batch, steps, num_heads * head_dim)


def _pool_weights(mask, batch, steps, dtype):
    """Masked-mean pooling weights ``(B, T)`` (uniform without a mask)."""
    if mask is None:
        return np.full((batch, steps), 1.0 / steps, dtype=dtype)
    # reprolint: disable=RP002 -- deliberate: the mask sum/divide runs in
    # float64 to match the autograd reference op order bit-for-bit; the
    # single astype below is the one policy cast (parity tests pin this).
    mask_arr = np.asarray(mask, dtype=np.float64)
    weights = mask_arr / np.maximum(mask_arr.sum(axis=1, keepdims=True), 1.0)
    return weights.astype(dtype, copy=False)


def _key_padding(mask):
    """``~mask`` as the ``(B, T)`` key-padding array; None if no key is padded.

    Without padding — no mask, or an all-True one (every single-client
    request, every equal-length batch) — the score fill and its backward
    multiply are skipped; the scores are bit-identical either way.
    """
    if mask is None:
        return None
    pad = ~np.asarray(mask, dtype=bool)
    return pad if pad.any() else None


def _keep_mask(module, shape, dtype):
    """One inverted-dropout keep mask, drawn exactly like ``F.dropout``.

    Returns None when the module is in eval mode or ``p <= 0`` — i.e.
    when the autograd path would not consume an rng draw either, so the
    two paths stay stream-aligned.
    """
    if not module.training or module.p <= 0.0:
        return None
    keep = (module.rng.random(shape) >= module.p) / (1.0 - module.p)
    return keep.astype(dtype, copy=False)


def _apply_keep(x, keep):
    """Apply a dropout keep mask (identity for ``None``)."""
    return x if keep is None else x * keep


# ----------------------------------------------------------------------
# forward (inference)
# ----------------------------------------------------------------------

def transformer_forward(plan, x, mask=None):
    """Eval-mode fused forward over event representations.

    ``x`` is the ``(B, T, D_trx)`` trx-encoder output (policy dtype);
    ``mask`` is the ``(B, T)`` boolean key-padding mask (True marks real
    events).  Returns ``(states, pooled)`` — per-position states after
    the final LayerNorm and the masked-mean pooled embedding *before*
    the normalisation head — matching the Tensor path's
    ``TransformerSeqEncoder.forward`` to < 1e-10 in float64.  Dropout is
    never applied (eval semantics, like the recurrent kernels' use of
    batch-norm running statistics).
    """
    batch, steps, _ = x.shape
    h = x @ plan.in_t + plan.in_b
    h += plan.positional(steps)
    pad = _key_padding(mask)
    for layer in plan.layers:
        normed, _, _ = _layer_norm(h, layer.ln1_w, layer.ln1_b, plan.ln_eps)
        qkv = normed @ layer.qkv_t + layer.qkv_b
        q = _split_heads(qkv[..., :plan.dim], plan.num_heads, plan.head_dim)
        k = _split_heads(qkv[..., plan.dim:2 * plan.dim], plan.num_heads,
                         plan.head_dim)
        v = _split_heads(qkv[..., 2 * plan.dim:], plan.num_heads,
                         plan.head_dim)
        scores = _scores(q, k, pad)
        sums = _exp_rows(scores)
        # Normalise late: divide the (T, head_dim) mix, not the (T, T)
        # exp weights.
        mixed = scores @ v
        mixed /= sums
        out = _merge_heads(mixed) @ layer.out_t
        out += layer.out_b
        h += out
        normed, _, _ = _layer_norm(h, layer.ln2_w, layer.ln2_b, plan.ln_eps)
        hidden = normed @ layer.ff1_t
        hidden += layer.ff1_b
        out = _gelu(hidden) @ layer.ff2_t
        out += layer.ff2_b
        h += out
    states, _, _ = _layer_norm(h, plan.final_w, plan.final_b, plan.ln_eps)
    weights = _pool_weights(mask, batch, steps, plan.dtype)
    pooled = (states * weights[:, :, None]).sum(axis=1)
    return states, pooled


# ----------------------------------------------------------------------
# forward (training) + backward
# ----------------------------------------------------------------------

@dataclass
class _LayerCache:
    """Per-layer intermediates one train forward retains for backward."""

    h0: np.ndarray           # (B, T, D) block input
    xhat1: np.ndarray        # (B, T, D) norm1 normalised values
    istd1: np.ndarray        # (B, T, 1) norm1 inverse std
    q: np.ndarray            # (B, heads, T, head_dim) pre-scaled queries
    k: np.ndarray            # (B, heads, T, head_dim)
    v: np.ndarray            # (B, heads, T, head_dim)
    attn: np.ndarray         # (B, heads, T, T) post-softmax, pre-dropout
    attn_keep: np.ndarray    # attention dropout keep mask (or None)
    attn_used: np.ndarray    # (B, heads, T, T) the probabilities applied
    merged: np.ndarray       # (B, T, D) merged heads, out-proj input
    proj_keep: np.ndarray    # residual dropout keep mask (or None)
    h1: np.ndarray           # (B, T, D) after the attention residual
    xhat2: np.ndarray        # (B, T, D) norm2 normalised values
    istd2: np.ndarray        # (B, T, 1) norm2 inverse std
    ff_pre: np.ndarray       # (B, T, F) pre-GELU activations
    ff_act: np.ndarray       # (B, T, F) GELU output, ff2 input
    hid_keep: np.ndarray     # feed-forward dropout keep mask (or None)


@dataclass
class TransformerTrainCache:
    """Everything one fused transformer train forward retains.

    Exposes the same ``states`` / ``x`` surface as
    :class:`repro.runtime.kernels.RnnTrainCache` (batch order — the
    transformer path never permutes rows), so
    :class:`~repro.runtime.FusedForwardCache` serves per-step objectives
    identically on both encoder families.
    """

    plan: TransformerPlan    # the plan the forward ran with
    x: np.ndarray            # (B, T, D_trx) trx-encoder events
    mask: object             # the (B, T) boolean mask (or None)
    pad: np.ndarray          # ~mask (None when no key is padded)
    layer_caches: list       # of _LayerCache, stack order
    xhat_f: np.ndarray       # (B, T, D) final_norm normalised values
    istd_f: np.ndarray       # (B, T, 1) final_norm inverse std
    states: np.ndarray       # (B, T, D) post-final-norm states
    pool_w: np.ndarray       # (B, T) pooling weights
    pooled: np.ndarray       # (B, D) pooled embedding, pre-head
    last: np.ndarray = None  # alias of ``pooled`` (RnnTrainCache surface)

    def __post_init__(self):
        self.last = self.pooled


def transformer_forward_train(plan, x, mask=None):
    """Training-mode fused forward; returns a :class:`TransformerTrainCache`.

    ``x`` is the ``(B, T, D)`` event-representation array in the plan's
    dtype and ``mask`` an optional ``(B, T)`` boolean validity array.
    Identical math to :func:`transformer_forward` plus the dropout draws
    of the autograd path: each active :class:`~repro.nn.Dropout` module
    of the live stack (``plan.module``) consumes one ``rng.random`` draw
    per application, in the exact order the Tensor path consumes them
    (attention probabilities, attention residual, feed-forward residual,
    per layer) — so with shared rng state both paths compute identical
    activations.
    """
    batch, steps, _ = x.shape
    h = x @ plan.in_t + plan.in_b
    h += plan.positional(steps)
    pad = _key_padding(mask)
    caches = []
    for layer, module in zip(plan.layers, plan.module.layers):
        h0 = h
        normed, xhat1, istd1 = _layer_norm(h0, layer.ln1_w, layer.ln1_b,
                                           plan.ln_eps)
        qkv = normed @ layer.qkv_t + layer.qkv_b
        q = _split_heads(qkv[..., :plan.dim], plan.num_heads, plan.head_dim)
        k = _split_heads(qkv[..., plan.dim:2 * plan.dim], plan.num_heads,
                         plan.head_dim)
        v = _split_heads(qkv[..., 2 * plan.dim:], plan.num_heads,
                         plan.head_dim)
        attn = _scores(q, k, pad)
        # The cache needs the probabilities: normalise the weights in place.
        attn /= _exp_rows(attn)
        attn_keep = _keep_mask(module.attention.dropout, attn.shape,
                               plan.dtype)
        attn_used = _apply_keep(attn, attn_keep)
        merged = _merge_heads(attn_used @ v)
        projected = merged @ layer.out_t + layer.out_b
        proj_keep = _keep_mask(module.dropout, projected.shape, plan.dtype)
        h1 = h0 + _apply_keep(projected, proj_keep)
        normed2, xhat2, istd2 = _layer_norm(h1, layer.ln2_w, layer.ln2_b,
                                            plan.ln_eps)
        ff_pre = normed2 @ layer.ff1_t + layer.ff1_b
        ff_act = _gelu(ff_pre.copy())
        hidden = ff_act @ layer.ff2_t + layer.ff2_b
        hid_keep = _keep_mask(module.dropout, hidden.shape, plan.dtype)
        h = h1 + _apply_keep(hidden, hid_keep)
        caches.append(_LayerCache(
            h0=h0, xhat1=xhat1, istd1=istd1, q=q, k=k, v=v, attn=attn,
            attn_keep=attn_keep, attn_used=attn_used, merged=merged,
            proj_keep=proj_keep, h1=h1, xhat2=xhat2, istd2=istd2,
            ff_pre=ff_pre, ff_act=ff_act, hid_keep=hid_keep,
        ))
    states, xhat_f, istd_f = _layer_norm(h, plan.final_w, plan.final_b,
                                         plan.ln_eps)
    pool_w = _pool_weights(mask, batch, steps, plan.dtype)
    pooled = (states * pool_w[:, :, None]).sum(axis=1)
    return TransformerTrainCache(
        plan=plan, x=x, mask=mask, pad=pad, layer_caches=caches,
        xhat_f=xhat_f, istd_f=istd_f, states=states, pool_w=pool_w,
        pooled=pooled,
    )


def _linear_backward(d_out, x_in, w_t, grads, name):
    """Backward of ``x_in @ w_t + b``; returns ``d_x_in``.

    Accumulates the ``(out, in)``-layout weight gradient and the bias
    gradient into ``grads`` under ``name + ".weight"/".bias"``.
    """
    d_flat = d_out.reshape(-1, d_out.shape[-1])
    x_flat = x_in.reshape(-1, x_in.shape[-1])
    grads[name + ".weight"] = d_flat.T @ x_flat
    grads[name + ".bias"] = d_flat.sum(axis=0)
    return d_out @ w_t.T


def transformer_backward(plan, cache, d_pooled, d_states=None):
    """Hand-derived reverse pass of :func:`transformer_forward_train`.

    ``d_pooled`` is dLoss/dPooled ``(B, D)`` (pre-head, what
    :class:`~repro.runtime.FusedTrainStep` produces after the
    l2-normalisation backward); ``d_states`` optionally adds
    dLoss/dStates ``(B, T, D)`` over the post-final-norm per-position
    states (the per-step objective interface).  Returns a dict mapping
    the :func:`transformer_parameters` names to parameter gradients plus
    ``"d_x"`` — dLoss/dEvents ``(B, T, D_trx)`` ready for the embedding
    scatter.  A cache must not be consumed twice.
    """
    grads = {}
    d_final = cache.pool_w[:, :, None] * d_pooled[:, None, :]
    if d_states is not None:
        d_final = d_final + d_states
    d_h, d_w, d_b = _layer_norm_backward(d_final, cache.xhat_f, cache.istd_f,
                                         plan.final_w)
    grads["transformer.final_norm.weight"] = d_w
    grads["transformer.final_norm.bias"] = d_b
    for index in range(len(plan.layers) - 1, -1, -1):
        layer = plan.layers[index]
        lc = cache.layer_caches[index]
        prefix = "transformer.layers.%d." % index
        # --- feed-forward block: h2 = h1 + dropout(ff2(gelu(ff1(n2)))) ---
        d_hidden = _apply_keep(d_h, lc.hid_keep)
        d_act = _linear_backward(d_hidden, lc.ff_act, layer.ff2_t, grads,
                                 prefix + "ff2")
        d_pre = _gelu_backward(lc.ff_pre, d_act)
        normed2 = lc.xhat2 * layer.ln2_w + layer.ln2_b
        d_n2 = _linear_backward(d_pre, normed2, layer.ff1_t, grads,
                                prefix + "ff1")
        d_from_norm2, d_w, d_b = _layer_norm_backward(d_n2, lc.xhat2,
                                                      lc.istd2, layer.ln2_w)
        grads[prefix + "norm2.weight"] = d_w
        grads[prefix + "norm2.bias"] = d_b
        d_h1 = d_h + d_from_norm2
        # --- attention block: h1 = h0 + dropout(out(merged)) ---
        d_proj = _apply_keep(d_h1, lc.proj_keep)
        d_merged = _linear_backward(d_proj, lc.merged, layer.out_t, grads,
                                    prefix + "attention.out")
        batch, steps, _ = d_merged.shape
        d_mixed = d_merged.reshape(batch, steps, plan.num_heads,
                                   plan.head_dim).transpose(0, 2, 1, 3)
        d_attn_used = d_mixed @ lc.v.transpose(0, 1, 3, 2)
        grads_v = lc.attn_used.transpose(0, 1, 3, 2) @ d_mixed
        # Softmax Jacobian along the key axis (in place on the fresh
        # d_attn), then the masked_fill backward: autograd passes no
        # gradient through filled scores.
        d_scores = _apply_keep(d_attn_used, lc.attn_keep)
        d_scores -= (d_scores * lc.attn).sum(axis=-1, keepdims=True)
        d_scores *= lc.attn
        if cache.pad is not None:
            d_scores *= ~cache.pad[:, None, None, :]
        # d_q is wrt the pre-scaled q; d_k picks the scale up from q.
        d_q = d_scores @ lc.k
        d_k = d_scores.transpose(0, 1, 3, 2) @ lc.q
        d_qkv = np.concatenate(
            [_merge_heads(d_q), _merge_heads(d_k), _merge_heads(grads_v)],
            axis=-1)
        normed1 = lc.xhat1 * layer.ln1_w + layer.ln1_b
        d_flat = d_qkv.reshape(-1, 3 * plan.dim)
        n_flat = normed1.reshape(-1, plan.dim)
        d_wqkv = d_flat.T @ n_flat
        d_bqkv = d_flat.sum(axis=0)
        # The live query weights are unscaled: chain the plan's scale in.
        d_wqkv[:plan.dim] *= plan.scale
        d_bqkv[:plan.dim] *= plan.scale
        for part, name in enumerate(("query", "key", "value")):
            target = prefix + "attention." + name
            grads[target + ".weight"] = d_wqkv[part * plan.dim:
                                               (part + 1) * plan.dim]
            grads[target + ".bias"] = d_bqkv[part * plan.dim:
                                             (part + 1) * plan.dim]
        d_n1 = d_qkv @ plan.layers[index].qkv_t.T
        d_from_norm1, d_w, d_b = _layer_norm_backward(d_n1, lc.xhat1,
                                                      lc.istd1, layer.ln1_w)
        grads[prefix + "norm1.weight"] = d_w
        grads[prefix + "norm1.bias"] = d_b
        d_h = d_h1 + d_from_norm1
    # The positional table is a constant buffer; the input projection is
    # the only consumer of the event-representation gradient.
    grads["d_x"] = _linear_backward(d_h, cache.x, plan.in_t, grads,
                                    "input_proj")
    return grads
