"""Property suite for the fused attention kernels vs the autograd stack.

Contracts under test (the transformer analogue of
``test_fused_equivalence.py`` / ``test_fused_training.py``):

- **forward parity** — :func:`repro.runtime.attention.transformer_forward`
  matches the Tensor path op for op to < 1e-10 in float64, property-tested
  across head counts x depths x ragged *and* non-prefix key-padding masks;
- **gradient parity** — the hand-derived reverse pass
  (:func:`~repro.runtime.attention.transformer_backward`: softmax-Jacobian
  attention, LayerNorm and GELU backward) agrees with autograd to < 1e-8
  for every parameter, the event-representation gradient ``d_x`` and the
  per-step ``d_states`` interface — and with central finite differences
  for every entry of every weight in the stack;
- **fully-padded rows** — an all-False mask row degrades to a zero pooled
  embedding on both engines, never a NaN (the ``-1e9`` finite fill);
- **unpadded masks** — an all-True mask skips the fill and matches
  ``mask=None`` bitwise, forward and backward;
- **dropout stream parity** — with ``dropout > 0`` the train forward
  consumes the same rng draws in the same order as the autograd path, so
  shared rng state yields identical activations;
- **positional cache** — the per-``(dtype, length)`` sinusoidal slices are
  computed once, served from cache, and respect the precision policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders.seq_encoder import TransformerSeqEncoder
from repro.nn import Tensor
from repro.runtime import attention, build_transformer_plan

ATOL_FWD = 1e-10
ATOL_GRAD = 1e-8


class _Events:
    """Stands in for a TrxEncoder: the plan only reads ``output_dim``."""

    def __init__(self, dim):
        self.output_dim = dim


def _encoder(d_in, dim, heads, layers, seed, dropout=0.0):
    return TransformerSeqEncoder(_Events(d_in), dim, num_heads=heads,
                                 num_layers=layers, normalize=False,
                                 dropout=dropout,
                                 rng=np.random.default_rng(seed))


def _mask(kind, batch, steps, rng):
    """None / ragged prefix lengths / arbitrary non-prefix key masks."""
    if kind == "none":
        return None
    if kind == "ragged":
        lengths = rng.integers(1, steps + 1, size=batch)
        return np.arange(steps)[None, :] < lengths[:, None]
    mask = rng.random((batch, steps)) < 0.6
    mask[np.arange(batch), rng.integers(0, steps, size=batch)] = True
    return mask


def _reference(encoder, x, mask, d_pooled=None, d_states=None):
    """Tensor-path forward (and optional backward) on raw events ``x``."""
    leaf = Tensor(x, requires_grad=True)
    states, pooled = encoder.transformer(encoder.input_proj(leaf), mask=mask)
    if d_pooled is not None:
        loss = (pooled * Tensor(d_pooled)).sum()
        if d_states is not None:
            loss = loss + (states * Tensor(d_states)).sum()
        loss.backward()
    return states.data, pooled.data, leaf


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    heads=st.integers(1, 3),
    head_dim=st.integers(1, 3),
    layers=st.integers(1, 2),
    batch=st.integers(1, 4),
    steps=st.integers(2, 7),
    mask_kind=st.sampled_from(["none", "ragged", "scattered"]),
)
def test_forward_matches_autograd(seed, heads, head_dim, layers, batch,
                                  steps, mask_kind):
    """Fused eval forward == Tensor path to < 1e-10 across the grid."""
    rng = np.random.default_rng(seed)
    dim = heads * head_dim
    d_in = int(rng.integers(2, 6))
    encoder = _encoder(d_in, dim, heads, layers, seed)
    encoder.eval()
    x = rng.standard_normal((batch, steps, d_in))
    mask = _mask(mask_kind, batch, steps, rng)
    ref_states, ref_pooled, _ = _reference(encoder, x, mask)
    plan = build_transformer_plan(encoder, "float64")
    states, pooled = attention.transformer_forward(plan, x, mask=mask)
    np.testing.assert_allclose(states, ref_states, atol=ATOL_FWD)
    np.testing.assert_allclose(pooled, ref_pooled, atol=ATOL_FWD)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    heads=st.integers(1, 3),
    head_dim=st.integers(1, 3),
    layers=st.integers(1, 2),
    batch=st.integers(1, 4),
    steps=st.integers(2, 6),
    mask_kind=st.sampled_from(["none", "ragged", "scattered"]),
    with_states=st.booleans(),
)
def test_backward_matches_autograd(seed, heads, head_dim, layers, batch,
                                   steps, mask_kind, with_states):
    """Every hand-derived gradient tracks autograd to < 1e-8.

    Covers all parameters of the stack plus ``d_x`` (the event gradient)
    and the optional per-step ``d_states`` co-gradient interface.
    """
    rng = np.random.default_rng(seed)
    dim = heads * head_dim
    d_in = int(rng.integers(2, 6))
    encoder = _encoder(d_in, dim, heads, layers, seed)
    x = rng.standard_normal((batch, steps, d_in))
    mask = _mask(mask_kind, batch, steps, rng)
    d_pooled = rng.standard_normal((batch, dim))
    d_states = (rng.standard_normal((batch, steps, dim))
                if with_states else None)
    _, _, leaf = _reference(encoder, x, mask, d_pooled=d_pooled,
                            d_states=d_states)
    plan = build_transformer_plan(encoder, "float64")
    cache = attention.transformer_forward_train(plan, x, mask=mask)
    grads = attention.transformer_backward(plan, cache, d_pooled,
                                           d_states=d_states)
    for name, param in attention.transformer_parameters(encoder).items():
        np.testing.assert_allclose(grads[name], param.grad, atol=ATOL_GRAD,
                                   rtol=ATOL_GRAD, err_msg=name)
    np.testing.assert_allclose(grads["d_x"], leaf.grad, atol=ATOL_GRAD,
                               rtol=ATOL_GRAD)


def test_backward_matches_finite_differences():
    """Central differences confirm every entry of every weight tensor."""
    rng = np.random.default_rng(7)
    encoder = _encoder(3, 4, 2, 1, seed=11)
    encoder.eval()
    batch, steps = 2, 4
    x = rng.standard_normal((batch, steps, 3))
    mask = np.array([[True, True, True, False],
                     [True, False, True, True]])
    d_pooled = rng.standard_normal((batch, 4))

    def loss():
        plan = build_transformer_plan(encoder, "float64")
        _, pooled = attention.transformer_forward(plan, x, mask=mask)
        return float((pooled * d_pooled).sum())

    plan = build_transformer_plan(encoder, "float64")
    cache = attention.transformer_forward_train(plan, x, mask=mask)
    grads = attention.transformer_backward(plan, cache, d_pooled)
    eps = 1e-6
    for name, param in attention.transformer_parameters(encoder).items():
        analytic = np.asarray(grads[name])
        flat = param.data.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + eps
            upper = loss()
            flat[idx] = original - eps
            lower = loss()
            flat[idx] = original
            numeric = (upper - lower) / (2.0 * eps)
            assert numeric == pytest.approx(
                analytic.reshape(-1)[idx], abs=1e-5, rel=1e-4
            ), "%s[%d]" % (name, idx)


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_full_mask_matches_no_mask_bitwise(precision):
    """An all-True mask pads no key, so the score fill is skipped: forward
    outputs and train-forward/backward gradients are bitwise those of
    ``mask=None``."""
    rng = np.random.default_rng(13)
    batch, steps, dim = 3, 6, 4
    encoder = _encoder(3, dim, 2, 2, seed=5)
    plan = build_transformer_plan(encoder, precision)
    x = rng.standard_normal((batch, steps, 3)).astype(precision)
    d_pooled = rng.standard_normal((batch, dim)).astype(precision)
    d_states = rng.standard_normal((batch, steps, dim)).astype(precision)
    masks = {"full": np.ones((batch, steps), dtype=bool), "none": None}
    outputs, grads = {}, {}
    for key, mask in masks.items():
        outputs[key] = attention.transformer_forward(plan, x, mask=mask)
        cache = attention.transformer_forward_train(plan, x, mask=mask)
        grads[key] = attention.transformer_backward(plan, cache, d_pooled,
                                                    d_states=d_states)
        grads[key]["pooled"] = cache.pooled
    for full, none in zip(outputs["full"], outputs["none"]):
        np.testing.assert_array_equal(full, none)
    assert grads["full"].keys() == grads["none"].keys()
    for name, value in grads["none"].items():
        np.testing.assert_array_equal(grads["full"][name], value,
                                      err_msg=name)


@pytest.mark.parametrize("engine", ["fused", "tensor"])
def test_fully_padded_row_pools_to_zero_without_nan(engine):
    """An all-False mask row yields a zero pooled embedding, never NaN.

    The ``-1e9`` finite fill keeps the row's softmax a uniform
    distribution (instead of the 0/0 NaN an ``-inf`` fill would produce)
    and the masked-mean weights vanish, so the pooled row is exactly 0 on
    both engines.
    """
    rng = np.random.default_rng(3)
    encoder = _encoder(3, 6, 2, 2, seed=5)
    encoder.eval()
    x = rng.standard_normal((3, 5, 3))
    mask = np.ones((3, 5), dtype=bool)
    mask[1] = False  # entity with no real events in the window
    if engine == "fused":
        plan = build_transformer_plan(encoder, "float64")
        states, pooled = attention.transformer_forward(plan, x, mask=mask)
    else:
        states, pooled, _ = _reference(encoder, x, mask)
    assert np.isfinite(states).all()
    assert np.isfinite(pooled).all()
    np.testing.assert_array_equal(pooled[1], np.zeros(6))
    # The backward must stay finite through the degenerate row too.
    plan = build_transformer_plan(encoder, "float64")
    cache = attention.transformer_forward_train(plan, x, mask=mask)
    grads = attention.transformer_backward(
        plan, cache, np.ones((3, 6)), d_states=np.ones((3, 5, 6)))
    for name, grad in grads.items():
        assert np.isfinite(grad).all(), name


def _dropout_rng_states(encoder):
    """Snapshot the bit-generator state of every dropout module."""
    modules = []
    for layer in encoder.transformer.layers:
        modules.extend([layer.attention.dropout, layer.dropout])
    return [(m, m.rng.bit_generator.state) for m in modules]


def test_train_forward_mirrors_autograd_dropout_stream():
    """With shared rng state, dropout > 0 activations are identical.

    The fused train forward must draw each keep mask from the same rng in
    the same order as the autograd path (attention probabilities, then
    the two residual dropouts, per layer) — the property that keeps both
    engines on one optimisation trajectory.
    """
    rng = np.random.default_rng(9)
    encoder = _encoder(3, 6, 2, 2, seed=13, dropout=0.4)
    encoder.train()
    x = rng.standard_normal((3, 5, 3))
    mask = _mask("ragged", 3, 5, rng)
    snapshot = _dropout_rng_states(encoder)
    ref_states, ref_pooled, _ = _reference(encoder, x, mask)
    for module, state in snapshot:
        module.rng.bit_generator.state = state
    plan = build_transformer_plan(encoder, "float64")
    cache = attention.transformer_forward_train(plan, x, mask=mask)
    np.testing.assert_allclose(cache.states, ref_states, atol=ATOL_FWD)
    np.testing.assert_allclose(cache.pooled, ref_pooled, atol=ATOL_FWD)


def test_positional_slices_cached_per_dtype_and_length():
    """Slices are computed once per (dtype, length) and dtype-faithful."""
    encoder = _encoder(3, 6, 2, 1, seed=1)
    transformer = encoder.transformer
    first = transformer.positional_slice(7)
    assert first.dtype == np.float64 and first.shape == (1, 7, 6)
    assert transformer.positional_slice(7) is first  # served from cache
    shorter = transformer.positional_slice(4)
    assert shorter is not first
    np.testing.assert_array_equal(shorter[0], first[0, :4])
    single = transformer.positional_slice(7, np.float32)
    assert single.dtype == np.float32
    assert transformer.positional_slice(7, np.float32) is single
    np.testing.assert_allclose(single, first.astype(np.float32))
    with pytest.raises(ValueError):
        transformer.positional_slice(transformer.max_len + 1)
    # The cache is a plain buffer store, not learnable state.
    assert not any("_pos_cache" in name for name in encoder.state_dict())


def test_float32_plan_reads_float32_positions():
    """The precision policy reaches the positional table too."""
    encoder = _encoder(3, 6, 2, 1, seed=2)
    plan32 = build_transformer_plan(encoder, "float32")
    assert plan32.positional(5).dtype == np.float32
    plan64 = build_transformer_plan(encoder, "float64")
    assert plan64.positional(5).dtype == np.float64
    assert plan64.positional(5) is not plan32.positional(5)
