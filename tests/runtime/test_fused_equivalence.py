"""Property-style equivalence: fused serving kernels vs the autograd path.

The contract of :mod:`repro.runtime` is that serving results match the
differentiable Tensor path (the ``tests.oracles`` reference) to float64
rounding (< 1e-10) across shapes, lengths and cell types — these tests
randomize all three.
"""

import numpy as np
import pytest

from repro.core.inference import embed_dataset
from repro.data import collate
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.nn import GRU, LSTM, Tensor, no_grad, where
from repro.runtime import FusedEncoderRuntime, kernels
from tests.oracles import tensor_embed

ATOL = 1e-10


def _random_lengths(rng, batch, steps, sort=False):
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[rng.integers(0, batch)] = steps  # at least one full row
    if sort:
        lengths = np.sort(lengths)[::-1]
    return lengths


@pytest.mark.parametrize("cell_cls,kind", [(GRU, "gru"), (LSTM, "lstm")])
@pytest.mark.parametrize("sort", [True, False], ids=["packed", "masked"])
def test_raw_cell_forward_matches_tensor(cell_cls, kind, sort):
    """Fused recurrence == Tensor recurrence for random shapes/lengths.

    ``sort=True`` feeds rows longest-first, ``sort=False`` unsorted rows
    that the kernel sorts itself.
    """
    rng = np.random.default_rng(2 * (kind == "lstm") + int(sort))
    for trial in range(4):
        batch = int(rng.integers(1, 9))
        steps = int(rng.integers(1, 24))
        dim = int(rng.integers(1, 12))
        hidden = int(rng.integers(1, 16))
        cell = cell_cls(dim, hidden, rng=rng)
        cell.eval()
        x = rng.standard_normal((batch, steps, dim))
        lengths = _random_lengths(rng, batch, steps, sort=sort)
        mask = np.arange(steps)[None, :] < lengths[:, None]

        with no_grad():
            ref_states, ref_last = cell(Tensor(x), mask=mask)
        out_states, last = kernels.rnn_forward(
            cell.export_weights(), x, lengths=lengths, return_outputs=True)

        if kind == "lstm":
            np.testing.assert_allclose(last[0], ref_last.data, atol=ATOL)
            # The Tensor forward only returns the hidden state, so recover
            # the reference cell state by stepping the module directly.
            with no_grad():
                state = (cell.initial_state(batch), cell.initial_cell(batch))
                for t in range(steps):
                    new_h, new_c = cell.step(Tensor(x)[:, t, :], state)
                    keep = mask[:, t:t + 1]
                    state = (where(keep, new_h, state[0]),
                             where(keep, new_c, state[1]))
            np.testing.assert_allclose(last[1], state[1].data, atol=ATOL)
        else:
            np.testing.assert_allclose(last, ref_last.data, atol=ATOL)
        np.testing.assert_allclose(out_states, ref_states.data, atol=ATOL)


def _state_parts(state):
    """The arrays of a final state: ``(h,)`` for GRU, ``(h, c)`` for LSTM."""
    return state if isinstance(state, tuple) else (state,)


def test_packed_and_masked_paths_agree():
    """``lengths=`` and the equivalent prefix ``mask=`` run the same
    packed path, for both cells."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 12, 6))
    lengths = np.sort(rng.integers(1, 13, size=5))[::-1]
    mask = np.arange(12)[None, :] < lengths[:, None]
    for cell in (GRU(6, 10, rng=rng), LSTM(6, 10, rng=rng)):
        weights = cell.export_weights()
        _, packed = kernels.rnn_forward(weights, x, lengths=lengths)
        _, masked = kernels.rnn_forward(weights, x, mask=mask)
        for got, want in zip(_state_parts(masked), _state_parts(packed)):
            np.testing.assert_allclose(got, want, atol=ATOL)


@pytest.mark.parametrize("cell_cls", [GRU, LSTM])
def test_forward_invariant_to_row_order(cell_cls):
    """Shuffled rows give the sorted rows' results, in the caller's order.

    The kernels sort rows longest-first themselves; ``initial``, the
    per-step outputs and the final state all come back in the caller's
    row order (float64, to 1e-12).  A prefix ``mask`` instead of
    ``lengths`` takes the same path.
    """
    rng = np.random.default_rng(11)
    batch, steps, dim, size = 7, 9, 4, 5
    cell = cell_cls(dim, size, rng=rng)
    weights = cell.export_weights()
    x = rng.standard_normal((batch, steps, dim))
    lengths = np.sort(rng.integers(0, steps + 1, size=batch))[::-1]
    lengths[0] = steps
    hidden0 = rng.standard_normal((batch, size))
    initial = ((hidden0, rng.standard_normal((batch, size)))
               if cell_cls is LSTM else hidden0)
    outputs, last = kernels.rnn_forward(weights, x, lengths=lengths,
                                        initial=initial, return_outputs=True)
    shuffle = rng.permutation(batch)
    shuffled_initial = ((initial[0][shuffle], initial[1][shuffle])
                        if cell_cls is LSTM else initial[shuffle])
    mask = np.arange(steps)[None, :] < lengths[shuffle, None]
    for rows in ({"lengths": lengths[shuffle]}, {"mask": mask}):
        got_outputs, got_last = kernels.rnn_forward(
            weights, x[shuffle], initial=shuffled_initial,
            return_outputs=True, **rows)
        np.testing.assert_allclose(got_outputs, outputs[shuffle], rtol=0,
                                   atol=1e-12)
        for got, want in zip(_state_parts(got_last), _state_parts(last)):
            np.testing.assert_allclose(got, want[shuffle], rtol=0,
                                       atol=1e-12)


def test_non_prefix_mask_raises():
    """Only per-row prefix masks, and only ``(B,)`` lengths in ``[0, T]``,
    describe a packed schedule."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 3))
    gap = np.ones((2, 5), dtype=bool)
    gap[1, 2] = False   # a gap: row 1 resumes after a padded step
    cases = [
        (dict(mask=gap), "prefix"),
        (dict(lengths=[5, 4], mask=np.ones((2, 5), dtype=bool)), "prefix"),
        (dict(lengths=[5]), "shape"),            # fewer lengths than rows
        (dict(lengths=[5, 4, 3]), "shape"),      # more lengths than rows
        (dict(lengths=[[5, 4]]), "shape"),
        (dict(lengths=[5, -1]), r"\[0, T\]"),    # negative
        (dict(lengths=[7, 5]), r"\[0, T\]"),     # beyond T, longest-first
        (dict(lengths=[3, 6]), r"\[0, T\]"),     # beyond T, unsorted
    ]
    for cell in (GRU(3, 4, rng=rng), LSTM(3, 4, rng=rng)):
        weights = cell.export_weights()
        for kernel in (kernels.rnn_forward, kernels.rnn_forward_train):
            for kwargs, match in cases:
                with pytest.raises(ValueError, match=match):
                    kernel(weights, x, **kwargs)


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=25, mean_length=40, min_length=5,
                              max_length=120, seed=1)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_event_encoding_matches_tensor(dataset, cell):
    encoder = build_encoder(dataset.schema, 16, cell,
                            rng=np.random.default_rng(2))
    encoder.eval()
    batch = collate(dataset.sequences[:7], dataset.schema)
    with no_grad():
        ref = encoder.trx_encoder(batch).data
    fused = kernels.encode_events(encoder.trx_encoder, batch)
    np.testing.assert_allclose(fused, ref, atol=ATOL)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_embed_batch_matches_tensor(dataset, cell):
    encoder = build_encoder(dataset.schema, 16, cell,
                            rng=np.random.default_rng(3))
    encoder.eval()
    runtime = encoder.fused_runtime(precision="float64")
    rng = np.random.default_rng(0)
    for _ in range(3):
        take = rng.choice(len(dataset), size=6, replace=False)
        batch = collate([dataset.sequences[i] for i in take], dataset.schema)
        with no_grad():
            ref = encoder.embed(batch).data
        np.testing.assert_allclose(runtime.embed_batch(batch), ref, atol=ATOL)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_embed_dataset_paths_agree(dataset, cell):
    encoder = build_encoder(dataset.schema, 12, cell,
                            rng=np.random.default_rng(4))
    tensor_path = tensor_embed(encoder, dataset, batch_size=8)
    fused_path = embed_dataset(encoder, dataset, batch_size=8,
                               precision="float64")
    runtime_path = embed_dataset(
        FusedEncoderRuntime(encoder, precision="float64"), dataset,
        batch_size=8)
    np.testing.assert_allclose(fused_path, tensor_path, atol=ATOL)
    np.testing.assert_allclose(runtime_path, tensor_path, atol=ATOL)


def test_embed_dataset_rejects_unknown_runtime(dataset):
    """The fused runtime is the only path: ``runtime=`` is gone."""
    encoder = build_encoder(dataset.schema, 8, "gru")
    for runtime in ("tensor", "fused", "auto"):
        with pytest.raises(TypeError):
            embed_dataset(encoder, dataset, runtime=runtime)


def test_embed_dataset_rejects_custom_encoders(dataset):
    """Encoders outside the repro families get a TypeError, no fallback."""
    from repro.nn import Linear

    with pytest.raises(TypeError, match="RnnSeqEncoder"):
        embed_dataset(Linear(4, 4), dataset)


def test_embed_dataset_honours_runtime_settings(dataset, monkeypatch):
    """A passed runtime keeps its precision and receives ``workers=``.

    Like ``EmbeddingStore``, asking a runtime for another precision
    raises instead of silently serving the runtime's own dtype.
    """
    encoder = build_encoder(dataset.schema, 8, "gru",
                            rng=np.random.default_rng(4))
    runtime = FusedEncoderRuntime(encoder, precision="float32")
    with pytest.raises(ValueError, match="conflicts"):
        embed_dataset(runtime, dataset, precision="float64")
    assert embed_dataset(runtime, dataset,
                         precision="float32").dtype == np.float32
    seen = []
    run_dataset = runtime.run_dataset

    def spy(dataset, batch_size=64, workers=None):
        seen.append(workers)
        return run_dataset(dataset, batch_size, workers=workers)

    monkeypatch.setattr(runtime, "run_dataset", spy)
    embed_dataset(runtime, dataset, workers=4)
    assert seen == [4]


def test_transformer_serves_through_fused_runtime(dataset):
    """Transformers serve on the attention kernels — no tensor fallback."""
    transformer = build_encoder(dataset.schema, 8, "transformer",
                                rng=np.random.default_rng(5))
    runtime = FusedEncoderRuntime(transformer, precision="float64")
    assert runtime.state_kind == "transformer"
    assert not runtime.is_recurrent
    ref = tensor_embed(transformer, dataset, batch_size=8)
    fused = embed_dataset(transformer, dataset, batch_size=8,
                          precision="float64")
    np.testing.assert_allclose(fused, ref, atol=ATOL)
    batch = collate(dataset.sequences[:5], dataset.schema)
    with no_grad():
        batch_ref = transformer.embed(batch).data
    np.testing.assert_allclose(runtime.embed_batch(batch), batch_ref,
                               atol=ATOL)


def test_transformer_runtime_has_no_incremental_surface(dataset):
    """Attention reads whole histories: the streaming API stays recurrent."""
    transformer = build_encoder(dataset.schema, 8, "transformer",
                                rng=np.random.default_rng(5))
    runtime = FusedEncoderRuntime(transformer)
    batch = collate(dataset.sequences[:3], dataset.schema)
    with pytest.raises(TypeError):
        runtime.default_state(3)
    with pytest.raises(TypeError):
        runtime.advance(np.zeros((3, 8)), batch)
    with pytest.raises(TypeError):
        runtime.forward(batch, initial=np.zeros((3, 8)))


def test_embed_empty_dataset(dataset):
    from repro.data import SequenceDataset

    encoder = build_encoder(dataset.schema, 8, "gru")
    empty = SequenceDataset([], dataset.schema)
    assert embed_dataset(encoder, empty).shape == (0, 8)
    assert tensor_embed(encoder, empty).shape == (0, 8)


def test_runtime_preserves_training_mode(dataset):
    """Wrapping an encoder for serving must not freeze its batch norm."""
    encoder = build_encoder(dataset.schema, 8, "gru")
    encoder.train()
    FusedEncoderRuntime(encoder)
    assert encoder.training


def test_runtime_serves_live_weights(dataset):
    """Weights are read through the module — no stale snapshot."""
    encoder = build_encoder(dataset.schema, 8, "gru",
                            rng=np.random.default_rng(6))
    encoder.eval()
    runtime = encoder.fused_runtime(precision="float64")
    batch = collate(dataset.sequences[:4], dataset.schema)
    before = runtime.embed_batch(batch)
    for param in encoder.parameters():
        param.data = param.data + 0.05  # simulate an optimiser step
    after = runtime.embed_batch(batch)
    assert np.abs(after - before).max() > 1e-6
    with no_grad():
        ref = encoder.embed(batch).data
    np.testing.assert_allclose(after, ref, atol=ATOL)
