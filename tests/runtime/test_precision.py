"""The precision policy: float32 drift bounds, parallel determinism.

Contracts under test (the tentpole guarantees of the precision +
execution policy layer):

- float32 serving matches the float64 reference within an explicit
  property tolerance (``F32_ATOL``) across cells, shapes and paths;
- bucket-parallel execution (``workers>1``) is bit-identical to the
  serial pass — for dataset embedding, heterogeneous advances and
  service flushes — and repeated runs are bit-identical too;
- per-entity state round-trips across precision policies through
  ``state_of``/``put_state`` and the state bundle format;
- saturated gates come out exactly 0 or 1 and forwards stay free of
  floating-point ``RuntimeWarning`` in both dtypes;
- a float32 plan stays float32: every floating array of the forward,
  the train cache and the gradients of every encoder family is float32.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.augmentations import RandomSlices
from repro.core import embed_dataset
from repro.core.batching import augment_batch
from repro.data.batches import collate
from repro.data.bucketing import plan_cell_batches
from repro.data import SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.losses import ContrastiveLoss
from repro.nn import GRU, LSTM, Embedding, Linear
from repro.runtime import (EmbeddingStore, FusedEncoderRuntime, attention,
                           kernels)
from repro.runtime.training import FusedTrainStep, loss_gradient
from repro.serving import EmbeddingService, ShardedEmbeddingStore

#: The property-tested bound on float32-vs-float64 embedding drift.
#: Observed drift is ~1e-7 on unit-normalised embeddings; the bound
#: leaves float32-rounding headroom across BLAS builds while still
#: catching any real numerical defect (which would blow past 1e-4).
F32_ATOL = 1e-5

#: The bound on one float32 fused train step against the float64 step
#: from the same weights and batch: the loss relative to
#: itself, every parameter gradient relative to the step's largest
#: float64 gradient entry (the key-bias gradient is analytically zero,
#: so a per-parameter scale would compare rounding noise with rounding
#: noise).  Both steps run the same code, so the difference is float32
#: rounding alone: observed 1.6e-7 (GRU), 2.6e-7 (LSTM) and 4e-7
#: (transformer) for the gradients and 3e-8 for the loss (up to 9e-7
#: over other seeds), leaving 10x headroom for other BLAS builds.
#: Defects both dtypes share are the autograd parity tests'.
F32_STEP_RTOL = 1e-5

#: Train-cache fields that are not in the plan dtype by design: the
#: batch-norm stash ``bn_scaled`` (batch statistics always run in
#: float64, see ``kernels.encode_events_train``) and ``batch`` (the
#: caller's input).
NOT_PLAN_DTYPE = ("bn_scaled", "batch")


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=24, mean_length=45, min_length=8,
                              max_length=130, seed=3)


def _encoder(dataset, cell, hidden=16, seed=0):
    encoder = build_encoder(dataset.schema, hidden, cell,
                            rng=np.random.default_rng(seed))
    encoder.eval()
    return encoder


# ----------------------------------------------------------------------
# policy knob surface
# ----------------------------------------------------------------------

def test_resolve_precision_rejects_unknown():
    with pytest.raises(ValueError):
        kernels.resolve_precision("float16")
    assert kernels.resolve_precision("float32") == np.dtype(np.float32)
    assert kernels.resolve_precision(np.float64) == np.dtype(np.float64)


def test_runtime_default_policy_is_float32(dataset):
    runtime = FusedEncoderRuntime(_encoder(dataset, "gru"))
    assert runtime.precision == "float32"
    assert runtime.dtype == np.dtype(np.float32)
    embeddings = runtime.embed_dataset(dataset)
    assert embeddings.dtype == np.float32


@pytest.mark.parametrize("wrap", [
    pytest.param(lambda runtime, dataset: EmbeddingStore(
        runtime, precision="float64"), id="store"),
    pytest.param(lambda runtime, dataset: ShardedEmbeddingStore(
        runtime, num_shards=2, precision="float64"), id="sharded"),
    pytest.param(lambda runtime, dataset: embed_dataset(
        runtime, dataset, precision="float64"), id="embed_dataset"),
])
def test_store_rejects_conflicting_precision(dataset, wrap):
    runtime = FusedEncoderRuntime(_encoder(dataset, "gru"),
                                  precision="float32")
    with pytest.raises(ValueError, match="conflicts"):
        wrap(runtime, dataset)


# ----------------------------------------------------------------------
# float32 vs float64 drift (the explicit property bound)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cell", ["gru", "lstm", "transformer"])
def test_float32_drift_bounded_vs_float64(dataset, cell):
    encoder = _encoder(dataset, cell)
    f64 = FusedEncoderRuntime(encoder, precision="float64")
    f32 = FusedEncoderRuntime(encoder, precision="float32")
    ref = f64.embed_dataset(dataset)
    out = f32.embed_dataset(dataset)
    np.testing.assert_allclose(out, ref, atol=F32_ATOL)


@pytest.mark.parametrize("cell", ["gru", "lstm", "transformer"])
def test_float32_train_step_bounded_vs_float64(dataset, cell):
    """One float32 fused train step tracks the float64 step.

    Same weights, same CoLES batch (ragged views, so key padding and
    the packed recurrence's shrinking row prefixes are exercised), same
    loss: the loss and every parameter gradient — BPTT's and the
    embedding tables' included — agree within ``F32_STEP_RTOL``.
    """
    batch = augment_batch(dataset, np.arange(8), RandomSlices(5, 25, 3),
                          np.random.default_rng(3))
    encoder = build_encoder(dataset.schema, 16, cell,
                            rng=np.random.default_rng(1))
    encoder.train()
    loss_fn = ContrastiveLoss()
    losses, grads = {}, {}
    for precision in ("float64", "float32"):
        step = FusedTrainStep(encoder, precision=precision)
        cache = step.forward(batch)
        losses[precision], d_embeddings = loss_gradient(
            loss_fn, cache.embeddings, batch.seq_ids,
            rng=np.random.default_rng(7))
        encoder.zero_grad()
        step.backward(cache, d_embeddings)
        grads[precision] = {name: param.grad.copy() for name, param
                            in encoder.named_parameters()}
    assert losses["float32"] == pytest.approx(losses["float64"],
                                              rel=F32_STEP_RTOL)
    assert grads["float32"].keys() == grads["float64"].keys()
    scale = max(np.abs(grad).max() for grad in grads["float64"].values())
    for name, reference in grads["float64"].items():
        np.testing.assert_allclose(grads["float32"][name], reference,
                                   rtol=0, atol=F32_STEP_RTOL * scale,
                                   err_msg=name)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_float32_incremental_drift_bounded(dataset, cell):
    """Chunked float32 updates stay within the drift bound of the
    float64 full recompute — batch-shape differences included."""
    encoder = _encoder(dataset, cell)
    ref = FusedEncoderRuntime(encoder,
                              precision="float64").embed_dataset(dataset)
    store = EmbeddingStore(encoder, precision="float32")
    for row, seq in enumerate(dataset):
        mid = len(seq) // 2
        store.update(seq.seq_id, seq.slice(0, mid), dataset.schema)
        store.update(seq.seq_id, seq.slice(mid, len(seq)), dataset.schema)
        np.testing.assert_allclose(store.embedding(seq.seq_id), ref[row],
                                   atol=F32_ATOL)


def test_float32_batch_size_invariance_drift_bounded(dataset):
    runtime = FusedEncoderRuntime(_encoder(dataset, "gru"))
    big = runtime.embed_dataset(dataset, batch_size=64)
    small = runtime.embed_dataset(dataset, batch_size=3)
    np.testing.assert_allclose(big, small, atol=F32_ATOL)


# ----------------------------------------------------------------------
# parallel execution: bit-identical to serial, and across repeats
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_bucket_parallel_bit_identical(dataset, cell):
    encoder = _encoder(dataset, cell)
    runtime = FusedEncoderRuntime(encoder)
    assert len(plan_cell_batches(dataset.lengths(), 8)) > 1  # fans out
    serial = runtime.embed_dataset(dataset, batch_size=8, workers=1)
    for workers in (2, 4):
        parallel = runtime.embed_dataset(dataset, batch_size=8,
                                         workers=workers)
        np.testing.assert_array_equal(parallel, serial)
    repeat = runtime.embed_dataset(dataset, batch_size=8, workers=4)
    np.testing.assert_array_equal(repeat, serial)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_parallel_update_many_bit_identical(dataset, cell):
    encoder = _encoder(dataset, cell)
    chunks = [seq.slice(0, max(1, len(seq) // 2)) for seq in dataset]
    results = {}
    for workers in (1, 2, 4):
        store = EmbeddingStore(encoder, workers=workers)
        results[workers] = store.update_many(chunks, dataset.schema,
                                             batch_size=5)
    np.testing.assert_array_equal(results[2], results[1])
    np.testing.assert_array_equal(results[4], results[1])


def test_parallel_flush_bit_identical(dataset):
    """EmbeddingService.flush with workers>1 serves the exact bytes of
    the serial service."""
    encoder = _encoder(dataset, "gru")
    ids = [seq.seq_id for seq in dataset]
    served = {}
    for workers in (1, 2, 4):
        service = EmbeddingService(encoder, dataset.schema, num_shards=4,
                                   flush_events=10_000, workers=workers)
        for seq in dataset:
            service.ingest(seq.slice(0, len(seq)))
        service.flush()
        served[workers] = service.query(ids)
    np.testing.assert_array_equal(served[2], served[1])
    np.testing.assert_array_equal(served[4], served[1])


def test_bulk_load_parallel_bit_identical(dataset):
    encoder = _encoder(dataset, "lstm")
    assert len(plan_cell_batches(dataset.lengths(), 6)) > 1  # fans out
    serial = EmbeddingStore(encoder, workers=1)
    parallel = EmbeddingStore(encoder, workers=4)
    np.testing.assert_array_equal(parallel.bulk_load(dataset, batch_size=6),
                                  serial.bulk_load(dataset, batch_size=6))
    for seq in dataset:
        s_state = serial.state_of(seq.seq_id)
        p_state = parallel.state_of(seq.seq_id)
        np.testing.assert_array_equal(p_state[0], s_state[0])
        if p_state[1] is not None:
            np.testing.assert_array_equal(p_state[1], s_state[1])


# ----------------------------------------------------------------------
# state round-trips across precision policies
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_state_roundtrip_across_precisions(dataset, cell):
    """States flow f32 -> f64 -> f32 through state_of/put_state without
    error beyond the drift bound."""
    encoder = _encoder(dataset, cell)
    f32 = EmbeddingStore(encoder, precision="float32")
    f64 = EmbeddingStore(encoder, precision="float64")
    f32.bulk_load(dataset)
    for seq in dataset:
        hidden, cell_state, last_time = f32.state_of(seq.seq_id)
        f64.put_state(seq.seq_id, hidden, cell=cell_state,
                      last_time=last_time)
        back, back_cell, _ = f64.state_of(seq.seq_id)
        assert back.dtype == np.float64
        # f32 -> f64 is exact; the round-trip back to f32 is too.
        np.testing.assert_array_equal(back.astype(np.float32), hidden)
        if cell == "lstm":
            np.testing.assert_array_equal(back_cell.astype(np.float32),
                                          cell_state)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_snapshot_restores_across_precisions(dataset, cell, tmp_path):
    """A state bundle written under one policy loads under the other
    and keeps streaming within the drift bound."""
    encoder = _encoder(dataset, cell)
    half = SequenceDataset(
        [seq.slice(0, len(seq) // 2) for seq in dataset],
        dataset.schema, dataset.name)
    f64 = EmbeddingStore(encoder, precision="float64")
    f64.bulk_load(half)
    path = tmp_path / "store_state"
    f64.save(path)

    f32 = EmbeddingStore(encoder, precision="float32").load(path)
    assert f32.known_entities() == f64.known_entities()
    reference = EmbeddingStore(encoder,
                               precision="float64").bulk_load(dataset)
    for row, seq in enumerate(dataset):
        f32.update(seq.seq_id, seq.slice(len(seq) // 2, len(seq)),
                   dataset.schema)
        np.testing.assert_allclose(f32.embedding(seq.seq_id), reference[row],
                                   atol=F32_ATOL)


# ----------------------------------------------------------------------
# weight plans
# ----------------------------------------------------------------------

def _plan_sources(encoder, plan):
    """The live parameters ``plan`` reads, walked from the module tree."""
    if plan == "encode":
        return list(encoder.trx_encoder.embeddings.parameters())
    if plan == "transformer":
        return [*encoder.input_proj.parameters(),
                *encoder.transformer.parameters()]
    return list(encoder.rnn.parameters())


def _replace_submodule(encoder, plan, rng):
    """Swap one submodule the plan reads for a fresh same-shape one."""
    if plan == "encode":
        name = next(iter(encoder.trx_encoder.schema.categorical))
        old = encoder.trx_encoder.embeddings[name]
        encoder.trx_encoder.embeddings[name] = Embedding(
            old.num_embeddings, old.embedding_dim, padding_idx=0, rng=rng)
    elif plan == "transformer":
        layer = encoder.transformer.layers[0]
        layer.ff1 = Linear(layer.ff1.in_features, layer.ff1.out_features,
                           rng=rng)
    else:
        old = encoder.rnn
        encoder.rnn = type(old)(old.input_size, old.hidden_size,
                                learn_init_state=old.init_state is not None,
                                rng=rng)


@pytest.mark.parametrize("plan, learn_init_state", [
    pytest.param("gru", True, id="gru"),
    pytest.param("lstm", True, id="lstm"),
    pytest.param("gru", False, id="gru-zero_init"),
    pytest.param("lstm", False, id="lstm-zero_init"),
    pytest.param("transformer", None, id="transformer"),
    pytest.param("encode", None, id="encode"),
])
def test_weight_plan_invalidated_by_optimizer_rebind(dataset, plan,
                                                     learn_init_state):
    """A cached plan answers exactly as one rebuilt from live weights.

    While the weights are live the runtime hands back the same plan
    object.  Rebinding any one parameter the plan reads (what an
    optimizer step does), ``load_state_dict`` and replacing a submodule
    after wrapping each give a new plan, which serves the new weights.
    ``learn_init_state=False`` cells key their missing initial state as
    None, so their plan stays cached too.
    """
    rng = np.random.default_rng(1)
    encoder = _encoder(dataset, "gru" if plan == "encode" else plan)
    if learn_init_state is False:
        rnn = encoder.rnn
        encoder.rnn = type(rnn)(rnn.input_size, rnn.hidden_size,
                                learn_init_state=False, rng=rng)
    runtime = FusedEncoderRuntime(encoder)
    plan_of = runtime.encode_plan if plan == "encode" else runtime.weight_plan
    batch = collate(dataset.sequences[:4], dataset.schema)

    def rebuilt(previous, what):
        current = plan_of()
        assert current is not previous, what
        assert plan_of() is current, what  # cached while weights are live
        ref = FusedEncoderRuntime(encoder,
                                  precision="float64").embed_batch(batch)
        np.testing.assert_allclose(runtime.embed_batch(batch), ref,
                                   atol=F32_ATOL, err_msg=what)
        return current

    current = rebuilt(None, "first use")
    sources = _plan_sources(encoder, plan)
    assert sources
    for index, param in enumerate(sources):
        param.data = param.data + 0.01  # what an optimizer step does
        current = rebuilt(current, "rebind of source %d" % index)
    encoder.load_state_dict(encoder.state_dict())
    current = rebuilt(current, "load_state_dict")
    _replace_submodule(encoder, plan, rng)
    rebuilt(current, "replaced submodule")


def test_float32_plan_folds_biases():
    """The gate-block plan layout, in both dtypes.

    The sigmoid block (GRU r|z, LSTM i|f|o) holds exactly 0.5x the live
    weights and the live folded bias ``b_ih + b_hh`` — bitwise, the
    power-of-two scale is exact; the tanh block (GRU n, LSTM g) is
    unscaled; every block is C-contiguous; the GRU n-gate recurrent bias
    stays separate (it sits inside the reset product).
    """
    rng = np.random.default_rng(0)
    size = 7
    cells = {"gru": GRU(5, size, rng=rng), "lstm": LSTM(5, size, rng=rng)}
    for cell in cells.values():
        for param in (cell.bias_ih, cell.bias_hh):
            param.data = rng.standard_normal(param.data.shape)
    # CellWeights gate indices: GRU r, z, n; LSTM i, f, g, o.
    sigmoid_gates = {"gru": (0, 1), "lstm": (0, 1, 3)}

    def rows(array, gates):
        return np.concatenate([array[g * size:(g + 1) * size]
                               for g in gates])

    for kind, cell in cells.items():
        weights = cell.export_weights()
        folded = weights.bias_ih + weights.bias_hh
        sig = sigmoid_gates[kind]
        for precision in ("float32", "float64"):
            dtype = np.dtype(precision)
            plan = kernels.build_weight_plan(weights, precision)

            def cast(values, dtype=dtype):
                return np.asarray(values, dtype=dtype)

            np.testing.assert_array_equal(
                plan.w_ih_sig, cast(rows(weights.weight_ih, sig)).T * 0.5)
            np.testing.assert_array_equal(
                plan.w_hh_sig, cast(rows(weights.weight_hh, sig)).T * 0.5)
            np.testing.assert_array_equal(plan.bias_sig,
                                          cast(rows(folded, sig)) * 0.5)
            np.testing.assert_array_equal(
                plan.w_ih_tanh, cast(rows(weights.weight_ih, (2,))).T)
            np.testing.assert_array_equal(
                plan.w_hh_tanh, cast(rows(weights.weight_hh, (2,))).T)
            if kind == "gru":
                np.testing.assert_array_equal(
                    plan.bias_tanh, cast(rows(weights.bias_ih, (2,))))
                np.testing.assert_array_equal(
                    plan.b_hn, cast(rows(weights.bias_hh, (2,))))
            else:
                np.testing.assert_array_equal(plan.bias_tanh,
                                              cast(rows(folded, (2,))))
                assert plan.b_hn is None
            for block in (plan.w_ih_sig, plan.w_hh_sig, plan.bias_sig,
                          plan.w_ih_tanh, plan.w_hh_tanh, plan.bias_tanh):
                assert block.dtype == dtype
                assert block.flags["C_CONTIGUOUS"]
            assert plan.w_ih_sig.shape == (5, len(sig) * size)
            assert plan.w_hh_tanh.shape == (size, size)


# ----------------------------------------------------------------------
# saturated gates: exact 0/1, no floating-point warnings
# ----------------------------------------------------------------------

def test_sigmoid_saturates_without_warnings():
    """Gate pre-activations of +-1e4 give sigmoid gates of exactly 0 and
    1, with no floating-point warning, for both cells in both dtypes."""
    size, steps = 3, 4
    for kind in ("gru", "lstm"):
        cell = (GRU if kind == "gru" else LSTM)(1, size,
                                                rng=np.random.default_rng(2))
        signs = np.where(np.arange(cell.weight_ih.data.shape[0]) % 2,
                         1.0, -1.0)
        cell.weight_ih.data = (1e4 * signs)[:, None]
        cell.weight_hh.data = np.zeros_like(cell.weight_hh.data)
        # Every sigmoid-block gate (GRU r|z, LSTM i|f|o) sees exactly
        # +-1e4; the sign of its CellWeights row decides 0 or 1.
        sig_rows = (np.arange(2 * size) if kind == "gru" else
                    np.r_[np.arange(2 * size), np.arange(3 * size, 4 * size)])
        for precision in ("float32", "float64"):
            plan = kernels.build_weight_plan(cell.export_weights(), precision)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(all="raise"):
                    cache = kernels.rnn_forward_train(plan,
                                                      np.ones((2, steps, 1)))
            gates = cache.sig
            assert gates.dtype == np.dtype(precision)
            expected = (signs[sig_rows] > 0).astype(gates.dtype)
            np.testing.assert_array_equal(
                gates, np.broadcast_to(expected, gates.shape),
                err_msg="%s/%s" % (kind, precision))


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_float32_forward_emits_no_runtime_warning(kind):
    """Saturating inputs (huge pre-activations) through a float32 forward
    must not leak overflow RuntimeWarnings."""
    rng = np.random.default_rng(1)
    cell = (GRU if kind == "gru" else LSTM)(4, 6, rng=rng)
    # Scale the input weights so gate pre-activations saturate hard.
    cell.weight_ih.data = cell.weight_ih.data * 400.0
    plan = kernels.build_weight_plan(cell.export_weights(), "float32")
    x = rng.standard_normal((3, 50, 4)) * 10.0
    lengths = np.array([50, 40, 20])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, last = kernels.rnn_forward(plan, x, lengths=lengths)
    last = last[0] if kind == "lstm" else last
    assert np.isfinite(last).all()
    assert last.dtype == np.float32


# ----------------------------------------------------------------------
# empty-result allocations honour the policy dtype (reprolint RP001)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_empty_store_embeddings_carry_policy_dtype(dataset, precision):
    """Regression for the dtype-less ``np.zeros((0, d))`` empty-result
    allocation reprolint RP001 surfaced: the empty matrix must carry the
    store's policy dtype, not numpy's float64 default."""
    store = EmbeddingStore(_encoder(dataset, "gru"), precision=precision)
    empty = store.embeddings()
    assert empty.shape == (0, store.runtime.output_dim)
    assert empty.dtype == store.runtime.dtype
    # selecting zero entities after a bulk_load hits the same allocation
    store.bulk_load(dataset)
    assert store.embeddings([]).dtype == store.runtime.dtype
    assert store.embeddings().dtype == store.runtime.dtype


def test_empty_sharded_store_embeddings_carry_policy_dtype(dataset):
    store = ShardedEmbeddingStore(_encoder(dataset, "gru"), num_shards=3)
    empty = store.embeddings()
    assert empty.shape == (0, store.runtime.output_dim)
    assert empty.dtype == store.runtime.dtype == np.dtype(np.float32)
    store.bulk_load(dataset)
    assert store.embeddings([]).dtype == store.runtime.dtype


# ----------------------------------------------------------------------
# the float32 dtype contract: forward, train cache and gradients
# ----------------------------------------------------------------------

def _floating_arrays(value, path):
    """``(path, array)`` for every floating array reachable from ``value``.

    Walks dataclass fields (skipping ``NOT_PLAN_DTYPE``), lists, tuples
    and dict values.
    """
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating):
            yield path, value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            if field.name not in NOT_PLAN_DTYPE:
                yield from _floating_arrays(getattr(value, field.name),
                                            path + "." + field.name)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _floating_arrays(item, "%s[%d]" % (path, index))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _floating_arrays(item, "%s[%r]" % (path, key))


@pytest.mark.parametrize("kind", ["gru", "lstm", "transformer"])
def test_float32_plan_stays_float32(dataset, kind):
    """Under a float32 plan no kernel output, cache entry or gradient is
    float64.

    A numpy float64 scalar meeting a float32 array (``1 / np.sqrt(n)``,
    ``np.sqrt(2 / np.pi)``) promotes everything downstream under NEP 50,
    and the final cast of ``embed_dataset`` hides it from every value
    check.  So this walks the inference forward's outputs, the
    :class:`FusedTrainStep` cache (kernel cache and plan included) and
    the backward kernel's gradient dict, with ragged lengths, dropout
    and per-step gradients so every branch runs.
    """
    options = {"dropout": 0.1} if kind == "transformer" else {}
    encoder = build_encoder(dataset.schema, 16, kind,
                            rng=np.random.default_rng(0), **options)
    batch = collate(dataset.sequences[:6], dataset.schema)
    assert (batch.lengths < batch.lengths.max()).any()
    encoder.eval()
    runtime = FusedEncoderRuntime(encoder, precision="float32")
    forward = runtime.forward(batch, return_outputs=True)
    encoder.train()
    step = FusedTrainStep(encoder, precision="float32")
    cache = step.forward(batch)
    rng = np.random.default_rng(1)
    d_hidden = rng.standard_normal(cache.hidden.shape).astype(np.float32)
    d_states = rng.standard_normal(cache.states.shape).astype(np.float32)
    plan = step.runtime.weight_plan()
    if kind == "transformer":
        grads = attention.transformer_backward(plan, cache.rnn_cache,
                                               d_hidden, d_states=d_states)
    else:
        grads = kernels.rnn_backward(plan, cache.rnn_cache, d_hidden,
                                     d_outputs=d_states)
    produced = {"forward": forward, "cache": cache, "grads": grads}
    found = [(name + path, array.dtype) for name, value in produced.items()
             for path, array in _floating_arrays(value, "")]
    assert len(found) > 20
    assert [item for item in found if item[1] != np.float32] == []
