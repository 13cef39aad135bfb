"""Property-style equivalence: fused BPTT vs the autograd training path.

The contract of :mod:`repro.runtime.training` is that the fused engine
computes the *same gradients* as the Tensor graph (to < 1e-8) for every
contrastive loss, both cell kinds, and variable-length batches in any row
order — so every training loop walks the autograd optimisation
trajectory, only faster.  These tests randomize shapes, lengths, losses
and row orders.
"""

import dataclasses

import numpy as np
import pytest

from repro.augmentations import RandomSlices
from repro.core.batching import augment_batch
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.losses import LOSSES
from repro.nn import GRU, LSTM, Linear, Tensor, where
from repro.nn import functional as F
from repro.runtime import kernels
from repro.runtime.training import (FusedTrainStep, _scatter_add_rows,
                                    loss_gradient, softmax_head_gradient)

ATOL = 1e-8
RTOL = 1e-8


def _random_lengths(rng, batch, steps, sort=False):
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[rng.integers(0, batch)] = steps  # at least one full row
    if sort:
        lengths = np.sort(lengths)[::-1]
    return lengths


def _tensor_cell_grads(cell, x, mask, d_last, d_outputs):
    """Reference gradients through the autograd recurrence."""
    x_tensor = Tensor(x, requires_grad=True)
    states, last = cell(x_tensor, mask=mask)
    objective = (last * Tensor(d_last)).sum()
    if d_outputs is not None:
        objective = objective + (states * Tensor(d_outputs)).sum()
    cell.zero_grad()
    objective.backward()
    grads = {name: param.grad.copy()
             for name, param in cell.named_parameters()}
    return grads, x_tensor.grad.copy()


@pytest.mark.parametrize("cell_cls,kind", [(GRU, "gru"), (LSTM, "lstm")])
@pytest.mark.parametrize("sort", [True, False], ids=["packed", "masked"])
@pytest.mark.parametrize("per_step", [False, True], ids=["last", "last+steps"])
def test_rnn_backward_matches_autograd(cell_cls, kind, sort, per_step):
    """Hand-derived BPTT == autograd for random shapes/lengths/objectives.

    ``sort=True`` feeds rows longest-first, ``sort=False`` unsorted rows
    that the kernel sorts itself; ``per_step`` additionally
    feeds a gradient into every per-step state (the CPC-style
    ``d_outputs`` interface).
    """
    rng = np.random.default_rng(17 + 2 * (kind == "lstm") + int(sort))
    for trial in range(3):
        batch = int(rng.integers(2, 8))
        steps = int(rng.integers(2, 20))
        dim = int(rng.integers(1, 10))
        hidden = int(rng.integers(1, 12))
        cell = cell_cls(dim, hidden, rng=rng)
        x = rng.standard_normal((batch, steps, dim))
        lengths = _random_lengths(rng, batch, steps, sort=sort)
        mask = np.arange(steps)[None, :] < lengths[:, None]
        d_last = rng.standard_normal((batch, hidden))
        d_outputs = (rng.standard_normal((batch, steps, hidden))
                     if per_step else None)

        ref_grads, ref_dx = _tensor_cell_grads(cell, x, mask, d_last,
                                               d_outputs)

        weights = cell.export_weights()
        cache = kernels.rnn_forward_train(weights, x[mask], lengths=lengths)
        grads = kernels.rnn_backward(weights, cache, d_last,
                                     d_outputs=d_outputs)

        np.testing.assert_allclose(grads["d_x"], ref_dx[mask], atol=ATOL,
                                   rtol=RTOL)
        for name, reference in ref_grads.items():
            np.testing.assert_allclose(grads[name], reference, atol=ATOL,
                                       rtol=RTOL, err_msg="%s/%s" % (kind, name))


def test_packed_and_masked_backward_agree():
    """Training on a grid's real cells agrees with the masked grid, for
    both cells.

    The training forward on ``x[mask]`` with ``lengths`` gives the
    masked inference forward's per-step and final states (1e-12), and a
    per-step gradient at a padded step acts on the row's frozen final
    state: folding the padded part of ``d_outputs`` into ``d_last`` by
    hand gives the same gradients (1e-12).
    """
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 12, 6))
    lengths = rng.integers(1, 13, size=5)
    lengths[1] = 12                          # unsorted, one full row
    mask = np.arange(12)[None, :] < lengths[:, None]
    d_last = rng.standard_normal((5, 10))
    d_outputs = rng.standard_normal((5, 12, 10))
    folded_last = d_last + (d_outputs * ~mask[..., None]).sum(axis=1)
    real_only = d_outputs * mask[..., None]
    for cell in (GRU(6, 10, rng=rng), LSTM(6, 10, rng=rng)):
        weights = cell.export_weights()
        outputs, last = kernels.rnn_forward(weights, x, mask=mask,
                                            return_outputs=True)
        cache = kernels.rnn_forward_train(weights, x[mask], lengths)
        np.testing.assert_allclose(cache.states, outputs, rtol=0, atol=1e-12)
        trained = cache.last if isinstance(cell, LSTM) else (cache.last,)
        served = last if isinstance(cell, LSTM) else (last,)
        for got, want in zip(trained, served):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        packed = kernels.rnn_backward(weights, cache, d_last,
                                      d_outputs=d_outputs)
        masked = kernels.rnn_backward(
            weights, kernels.rnn_forward_train(weights, x[mask], lengths),
            folded_last, d_outputs=real_only)
        assert packed.keys() == masked.keys()
        for name, value in packed.items():
            np.testing.assert_allclose(masked[name], value, atol=1e-12,
                                       err_msg=name)


def _grid(cells, lengths):
    """The ``(B, T, ·)`` zero grid holding row-major ``cells`` at the
    real cells of ``lengths``."""
    mask = np.arange(lengths.max())[None, :] < lengths[:, None]
    out = np.zeros(mask.shape + cells.shape[1:], dtype=cells.dtype)
    out[mask] = cells
    return out


@pytest.mark.parametrize("cell_cls", [GRU, LSTM])
def test_train_kernels_invariant_to_row_order(cell_cls):
    """Shuffled rows train exactly like the sorted rows (float64, 1e-12),
    and the per-step gradient grid has no room for extra padding.

    The cache's ``states``/``last`` and BPTT's ``d_x`` come back in the
    caller's row order; ``d_last`` and ``d_outputs`` are taken in it;
    the weight gradients only change by summation order.  The kernels
    read the real cells only, so a grid with extra NaN padding steps
    feeds them the same cells and changes nothing (bitwise), and a
    ``d_outputs`` grid wider than the longest row raises.
    """
    rng = np.random.default_rng(19)
    batch, steps, dim, size, extra = 6, 8, 3, 4, 5
    cell = cell_cls(dim, size, rng=rng)
    weights = cell.export_weights()
    x = rng.standard_normal((batch, steps, dim))
    lengths = np.sort(rng.integers(1, steps + 1, size=batch))[::-1]
    lengths[0] = steps
    d_last = rng.standard_normal((batch, size))
    d_outputs = rng.standard_normal((batch, steps, size))
    shuffle = rng.permutation(batch)
    padded_x = np.concatenate([x, np.full((batch, extra, dim), np.nan)],
                              axis=1)
    runs = {}
    for key, rows, events in (("sorted", np.arange(batch), x),
                              ("shuffled", shuffle, x),
                              ("padded", np.arange(batch), padded_x)):
        real = np.arange(events.shape[1]) < lengths[rows, None]
        cache = kernels.rnn_forward_train(weights, events[rows][real],
                                          lengths[rows])
        grads = kernels.rnn_backward(weights, cache, d_last[rows],
                                     d_outputs=d_outputs[rows])
        last = cache.last if cell_cls is LSTM else (cache.last,)
        runs[key] = (cache, last, grads)
    (ref_cache, ref_last, ref), (cache, last, grads) = (runs["sorted"],
                                                        runs["shuffled"])

    def close(got, want, name):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                   err_msg=name)

    close(cache.states, ref_cache.states[shuffle], "states")
    for got, want in zip(last, ref_last):
        close(got, want[shuffle], "last")
    close(_grid(grads["d_x"], lengths[shuffle]),
          _grid(ref["d_x"], lengths)[shuffle], "d_x")
    assert grads.keys() == ref.keys()
    for name in ref.keys() - {"d_x"}:
        close(grads[name], ref[name], name)

    cache, last, grads = runs["padded"]
    for got, want in zip(last, ref_last):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(cache.states, ref_cache.states)
    assert grads.keys() == ref.keys()
    for name in ref.keys():
        np.testing.assert_array_equal(grads[name], ref[name], err_msg=name)
    padded_d = np.concatenate([d_outputs, np.zeros((batch, extra, size))],
                              axis=1)
    cache = kernels.rnn_forward_train(
        weights, x[np.arange(steps) < lengths[:, None]], lengths)
    with pytest.raises(ValueError, match="d_outputs"):
        kernels.rnn_backward(weights, cache, d_last, d_outputs=padded_d)


@pytest.mark.parametrize("cell_cls", [GRU, LSTM])
@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_train_cache_holds_only_real_cells(cell_cls, precision):
    """Every per-step array of a training cache has ``lengths.sum()``
    rows, one per real cell, packed time-major, and neither the cache
    nor the backward's results hold a ``(B, T, ·)`` grid.

    Only ``lengths`` and ``last`` keep the caller's row layout.
    ``order`` maps the packed rows to the caller's row-major cells,
    ``cells`` to exactly the real cells of the grid, and ``spans`` gives
    each step the rows active at it; ``d_x`` has one row per real cell,
    in the caller's row-major order.
    """
    rng = np.random.default_rng(23)
    batch, steps, dim, size = 7, 11, 3, 5
    cell = cell_cls(dim, size, rng=rng)
    plan = kernels.build_weight_plan(cell.export_weights(), precision)
    lengths = np.array([11, 0, 4, 9, 1, 11, 6])   # unsorted, one empty row
    x = rng.standard_normal((batch, steps, dim))
    real = np.arange(steps)[None, :] < lengths[:, None]
    cache = kernels.rnn_forward_train(plan, x[real], lengths)
    cells = int(lengths.sum())
    caller_layout = {"lengths", "perm", "last"}
    arrays = {f.name: getattr(cache, f.name)
              for f in dataclasses.fields(cache)
              if isinstance(getattr(cache, f.name), np.ndarray)}
    per_cell = {name: value for name, value in arrays.items()
                if name not in caller_layout}
    gates = {"gate_hidden"} if cell_cls is GRU else {"c_prev", "tanh_cell"}
    assert {"order", "x_cells", "sig", "cand", "h_prev"} | gates <= (
        per_cell.keys())
    for name, value in per_cell.items():
        assert value.shape[0] == cells, name
        if name != "order":
            assert value.dtype == np.dtype(precision), name
    np.testing.assert_array_equal(np.sort(cache.order), np.arange(cells))
    np.testing.assert_array_equal(np.sort(cache.cells),
                                  np.flatnonzero(real))
    np.testing.assert_array_equal(cache.x_cells,
                                  x.reshape(-1, dim)[cache.cells]
                                  .astype(precision))
    np.testing.assert_array_equal(cache.x_cells,
                                  x[real][cache.order].astype(precision))
    active = real.sum(axis=0)
    assert [stop - start for start, stop in cache.spans] == (
        active[active > 0].tolist())
    for t, (start, stop) in enumerate(cache.spans):
        np.testing.assert_array_equal(cache.cells[start:stop] % steps, t)
    grads = kernels.rnn_backward(plan, cache,
                                 rng.standard_normal((batch, size)))
    assert grads["d_x"].shape == (cells, dim)
    last = cache.last if cell_cls is LSTM else (cache.last,)
    for name, value in [*arrays.items(), *grads.items(),
                        *(("last", part) for part in last)]:
        assert value.ndim < 3 and value.shape[:2] != (batch, steps), name


@pytest.mark.parametrize("cell_cls", [GRU, LSTM])
def test_zero_step_batch(cell_cls):
    """A batch with no steps keeps the initial state and has no input
    gradient (the kernels' reshapes must not infer a width from 0); the
    training kernels get no cells at all."""
    rng = np.random.default_rng(2)
    cell = cell_cls(3, 4, rng=rng)
    weights = cell.export_weights()
    x = np.zeros((2, 0, 3))
    outputs, last = kernels.rnn_forward(weights, x, lengths=[0, 0],
                                        return_outputs=True)
    assert outputs.shape == (2, 0, 4)
    hidden = last[0] if cell_cls is LSTM else last
    np.testing.assert_array_equal(hidden, np.zeros((2, 4)))
    cache = kernels.rnn_forward_train(weights, np.zeros((0, 3)), [0, 0])
    d_last = rng.standard_normal((2, 4))
    grads = kernels.rnn_backward(weights, cache, d_last)
    assert grads["d_x"].shape == (0, 3)
    np.testing.assert_array_equal(grads["weight_hh"], 0.0)
    np.testing.assert_allclose(grads["init_state"], d_last.sum(axis=0))


def _coles_batch(seed=3):
    dataset = make_churn_dataset(num_clients=8, mean_length=30, min_length=8,
                                 max_length=60, seed=seed)
    rng = np.random.default_rng(seed)
    batch = augment_batch(dataset, np.arange(len(dataset)),
                          RandomSlices(5, 25, 3), rng)
    assert batch is not None
    return dataset, batch


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_cell_encoding_is_the_grid_encoding(precision):
    """The training encode of a batch's flat fields is the grid's.

    ``encode_cells_train`` returns exactly (bitwise) the real cells of
    ``encode_events_train``'s grid and of its normalised numerics, in
    row-major order, and its padding event is what the grid holds at
    every padded cell; both update the batch-norm running buffers to
    bitwise-equal values.
    """
    dataset, batch = _coles_batch(seed=8)
    trx = [build_encoder(dataset.schema, 8, "gru",
                         rng=np.random.default_rng(2)).trx_encoder
           for _ in range(2)]
    grid, grid_scaled = kernels.encode_events_train(
        trx[0], batch, plan=kernels.build_encode_plan(trx[0], precision))
    cells, scaled, padding, bn_padding = kernels.encode_cells_train(
        trx[1], batch, plan=kernels.build_encode_plan(trx[1], precision))
    mask = batch.mask
    assert cells.dtype == grid.dtype == np.dtype(precision)
    np.testing.assert_array_equal(cells, grid[mask])
    np.testing.assert_array_equal(scaled, grid_scaled[mask])
    np.testing.assert_array_equal(
        grid[~mask], np.broadcast_to(padding, grid[~mask].shape))
    np.testing.assert_array_equal(
        grid_scaled[~mask],
        np.broadcast_to(bn_padding, grid_scaled[~mask].shape))
    norms = [encoder.numeric_norm for encoder in trx]
    for name in ("running_mean", "running_var"):
        np.testing.assert_array_equal(getattr(norms[1], name),
                                      getattr(norms[0], name))


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("loss_name", sorted(LOSSES))
def test_encoder_gradients_match_tensor_engine(cell, loss_name):
    """Full-encoder fused gradients == autograd, for every loss.

    Covers the whole fused training stack on a real CoLES batch
    (variable lengths, unsorted rows): training-mode batch norm with
    running-buffer updates, embedding-table scatter gradients, BPTT and
    the unit-norm head, with the loss driven through the loss-gradient
    interface.
    """
    dataset, batch = _coles_batch()
    reference = build_encoder(dataset.schema, 16, cell,
                              rng=np.random.default_rng(1))
    fused = build_encoder(dataset.schema, 16, cell,
                          rng=np.random.default_rng(1))
    reference.train()
    fused.train()
    loss_fn = LOSSES[loss_name]()

    embeddings = reference.embed(batch)
    loss = loss_fn(embeddings, batch.seq_ids, rng=np.random.default_rng(7))
    reference.zero_grad()
    loss.backward()

    step = FusedTrainStep(fused)
    cache = step.forward(batch)
    value, d_embeddings = loss_gradient(loss_fn, cache.embeddings,
                                        batch.seq_ids,
                                        rng=np.random.default_rng(7))
    fused.zero_grad()
    step.backward(cache, d_embeddings)

    np.testing.assert_allclose(cache.embeddings, embeddings.data, atol=1e-10)
    assert abs(value - loss.item()) < ATOL
    fused_params = dict(fused.named_parameters())
    for name, param in reference.named_parameters():
        if param.grad is None:
            assert fused_params[name].grad is None
            continue
        np.testing.assert_allclose(fused_params[name].grad, param.grad,
                                   atol=ATOL, rtol=RTOL, err_msg=name)
    # Training-mode batch norm updated the running buffers identically.
    fused_buffers = dict(fused.named_buffers())
    for name, buffer in reference.named_buffers():
        np.testing.assert_array_equal(fused_buffers[name], buffer,
                                      err_msg=name)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_per_step_gradients_match_tensor_engine(cell):
    """Fused ``d_states``/``d_events`` routing == full autograd.

    The per-step interface behind the CPC/RTD fused paths: random
    gradients are injected into every per-step hidden state, every event
    representation *and* the final embeddings at once, and every
    parameter gradient (embedding tables, batch norm, cell weights,
    learnt initial states) must match the Tensor graph to < 1e-8.
    """
    dataset, batch = _coles_batch(seed=6)
    reference = build_encoder(dataset.schema, 14, cell,
                              rng=np.random.default_rng(3))
    fused = build_encoder(dataset.schema, 14, cell,
                          rng=np.random.default_rng(3))
    reference.train()
    fused.train()
    rng = np.random.default_rng(13)

    step = FusedTrainStep(fused)
    cache = step.forward(batch)
    d_states = rng.standard_normal(cache.states.shape)
    d_events = rng.standard_normal(cache.events.shape)
    d_embeddings = rng.standard_normal(cache.embeddings.shape)

    # Autograd reference: the same three gradient injections as one
    # scalar objective over the live graph.
    events = reference.trx_encoder(batch)
    states, last = reference.rnn(events, mask=batch.mask)
    embedding = reference._head(last)
    objective = ((states * Tensor(d_states)).sum()
                 + (events * Tensor(d_events)).sum()
                 + (embedding * Tensor(d_embeddings)).sum())
    reference.zero_grad()
    objective.backward()

    # The fused per-step views must equal the autograd tensors.
    np.testing.assert_allclose(cache.states, states.data, atol=1e-10)
    np.testing.assert_allclose(cache.events, events.data, atol=1e-10)

    fused.zero_grad()
    step.backward(cache, d_embeddings=d_embeddings, d_states=d_states,
                  d_events=d_events)
    fused_params = dict(fused.named_parameters())
    for name, param in reference.named_parameters():
        np.testing.assert_allclose(fused_params[name].grad, param.grad,
                                   atol=ATOL, rtol=RTOL, err_msg=name)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_per_step_only_backward_needs_no_embedding_gradient(cell):
    """``backward(cache, d_states=...)`` alone (RTD's shape) is valid.

    With no ``d_embeddings``, the final state receives gradient only
    through its own per-step slot — matching an autograd objective that
    never touches the embedding head.
    """
    dataset, batch = _coles_batch(seed=12)
    reference = build_encoder(dataset.schema, 10, cell,
                              rng=np.random.default_rng(4))
    fused = build_encoder(dataset.schema, 10, cell,
                          rng=np.random.default_rng(4))
    reference.train()
    fused.train()
    rng = np.random.default_rng(21)

    step = FusedTrainStep(fused)
    cache = step.forward(batch)
    d_states = rng.standard_normal(cache.states.shape)

    events = reference.trx_encoder(batch)
    states, _ = reference.rnn(events, mask=batch.mask)
    reference.zero_grad()
    (states * Tensor(d_states)).sum().backward()

    fused.zero_grad()
    step.backward(cache, d_states=d_states)
    fused_params = dict(fused.named_parameters())
    for name, param in reference.named_parameters():
        if param.grad is None:
            assert fused_params[name].grad is None, name
            continue
        np.testing.assert_allclose(fused_params[name].grad, param.grad,
                                   atol=ATOL, rtol=RTOL, err_msg=name)


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
def test_softmax_head_gradient_matches_autograd(bias):
    """Closed-form CE + linear backward == autograd, head and embeddings.

    The hand-derived classification-head path must reproduce the exact
    loss value, head weight/bias gradients, and ``d_embeddings`` that
    ``F.cross_entropy(head(embeddings), targets)`` + ``backward()``
    produce — for random shapes, including single-row batches.
    """
    rng = np.random.default_rng(29)
    for trial in range(4):
        batch = int(rng.integers(1, 12))
        hidden = int(rng.integers(1, 9))
        classes = int(rng.integers(2, 7))
        head_ref = Linear(hidden, classes, bias=bias, rng=np.random.default_rng(trial))
        head_fused = Linear(hidden, classes, bias=bias,
                            rng=np.random.default_rng(trial))
        embeddings = rng.standard_normal((batch, hidden))
        targets = rng.integers(0, classes, size=batch)

        leaf = Tensor(embeddings, requires_grad=True)
        loss = F.cross_entropy(head_ref(leaf), targets)
        head_ref.zero_grad()
        loss.backward()

        value, d_embeddings = softmax_head_gradient(head_fused, embeddings,
                                                    targets)
        assert value == pytest.approx(loss.item(), abs=1e-12)
        np.testing.assert_allclose(d_embeddings, leaf.grad, atol=1e-12)
        np.testing.assert_allclose(head_fused.weight.grad,
                                   head_ref.weight.grad, atol=1e-12)
        if bias:
            np.testing.assert_allclose(head_fused.bias.grad,
                                       head_ref.bias.grad, atol=1e-12)
        else:
            assert head_fused.bias is None


def test_softmax_head_gradient_accumulates():
    """Head gradients add into existing ``param.grad`` like ``backward``."""
    rng = np.random.default_rng(37)
    head = Linear(4, 3, rng=rng)
    embeddings = rng.standard_normal((5, 4))
    targets = rng.integers(0, 3, size=5)
    _, _ = softmax_head_gradient(head, embeddings, targets)
    once = head.weight.grad.copy()
    _, _ = softmax_head_gradient(head, embeddings, targets)
    np.testing.assert_allclose(head.weight.grad, 2.0 * once, atol=1e-15)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_classification_step_gradients_match_tensor_engine(cell):
    """The whole fused fine-tuning step == autograd, every parameter.

    Encoder + softmax head on a real labeled batch (variable lengths,
    unsorted rows): ``backward_classification`` must land the same
    gradients on the embedding tables, batch norm, cell weights, learnt
    initial states *and* the head as the Tensor graph does.
    """
    dataset = make_churn_dataset(num_clients=10, mean_length=30, min_length=8,
                                 max_length=60, labeled_fraction=1.0, seed=15)
    from repro.data.batches import collate

    batch = collate(dataset.sequences, dataset.schema)
    targets = batch.label_array()
    reference = build_encoder(dataset.schema, 12, cell,
                              rng=np.random.default_rng(6))
    fused = build_encoder(dataset.schema, 12, cell,
                          rng=np.random.default_rng(6))
    head_ref = Linear(12, 2, rng=np.random.default_rng(8))
    head_fused = Linear(12, 2, rng=np.random.default_rng(8))
    reference.train()
    fused.train()

    loss = F.cross_entropy(head_ref(reference.embed(batch)), targets)
    reference.zero_grad()
    head_ref.zero_grad()
    loss.backward()

    step = FusedTrainStep(fused)
    cache = step.forward(batch)
    fused.zero_grad()
    head_fused.zero_grad()
    value = step.backward_classification(cache, head_fused, targets)

    assert value == pytest.approx(loss.item(), abs=ATOL)
    fused_params = dict(fused.named_parameters())
    for name, param in reference.named_parameters():
        np.testing.assert_allclose(fused_params[name].grad, param.grad,
                                   atol=ATOL, rtol=RTOL, err_msg=name)
    np.testing.assert_allclose(head_fused.weight.grad, head_ref.weight.grad,
                               atol=ATOL, rtol=RTOL)
    np.testing.assert_allclose(head_fused.bias.grad, head_ref.bias.grad,
                               atol=ATOL, rtol=RTOL)
    # Training-mode batch norm updated the running buffers identically.
    fused_buffers = dict(fused.named_buffers())
    for name, buffer in reference.named_buffers():
        np.testing.assert_array_equal(fused_buffers[name], buffer,
                                      err_msg=name)


def test_eval_mode_uses_running_statistics():
    """In eval mode the fused forward matches ``embed`` bit-for-rounding."""
    dataset, batch = _coles_batch(seed=9)
    encoder = build_encoder(dataset.schema, 12, "gru",
                            rng=np.random.default_rng(2))
    encoder.train()
    FusedTrainStep(encoder).forward(batch)  # perturb the running buffers
    encoder.eval()
    cache = FusedTrainStep(encoder).forward(batch)
    np.testing.assert_allclose(cache.embeddings,
                               encoder.embed(batch).data, atol=1e-10)


def test_loss_gradient_matches_direct_autograd():
    """The loss-gradient adapter returns the exact leaf gradient."""
    rng = np.random.default_rng(11)
    embeddings = rng.standard_normal((10, 6))
    groups = np.repeat(np.arange(5), 2)
    loss_fn = LOSSES["contrastive"]()

    leaf = Tensor(embeddings, requires_grad=True)
    loss = loss_fn(leaf, groups, rng=np.random.default_rng(3))
    loss.backward()

    value, grad = loss_gradient(loss_fn, embeddings, groups,
                                rng=np.random.default_rng(3))
    assert value == pytest.approx(loss.item())
    np.testing.assert_array_equal(grad, leaf.grad)


def test_fused_forward_rejects_out_of_range_ids():
    """Invalid categorical ids raise exactly like ``Embedding.forward``."""
    dataset, batch = _coles_batch(seed=2)
    encoder = build_encoder(dataset.schema, 8, "gru",
                            rng=np.random.default_rng(0))
    name = next(iter(dataset.schema.categorical))
    batch.flat_fields[name] = batch.flat_fields[name].copy()
    batch.flat_fields[name][0] = -1     # row 0's first event
    with pytest.raises(IndexError):
        encoder.embed(batch)  # the Tensor path rejects it...
    with pytest.raises(IndexError):
        FusedTrainStep(encoder).forward(batch)  # ...and so does fused


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_recurrent_train_step_builds_no_grid(cell):
    """A recurrent step runs on the batch's real cells from collate to
    gradient.

    Forward and backward on a collated CoLES batch leave the batch's
    padded ``fields`` and ``mask`` unbuilt (both are cached on first
    read), ``max_length`` — which perfbench's collate hook reads on
    every batch — builds neither, and no array the forward keeps has
    three axes.
    """
    dataset, batch = _coles_batch(seed=4)
    encoder = build_encoder(dataset.schema, 12, cell,
                            rng=np.random.default_rng(0))
    encoder.train()
    step = FusedTrainStep(encoder)
    assert batch.max_length == batch.lengths.max()
    cache = step.forward(batch)
    _, d_embeddings = loss_gradient(LOSSES["contrastive"](), cache.embeddings,
                                    batch.seq_ids,
                                    rng=np.random.default_rng(7))
    step.backward(cache, d_embeddings)
    assert batch._fields is None and batch._mask is None
    kept = [getattr(cache, f.name) for f in dataclasses.fields(cache)]
    kept += [getattr(cache.rnn_cache, f.name)
             for f in dataclasses.fields(cache.rnn_cache)]
    assert all(value.ndim < 3 for value in kept
               if isinstance(value, np.ndarray))
    # The check sees a built grid: a read caches both views.
    assert batch.fields is batch._fields and batch._mask is not None


def test_fused_step_covers_transformers_rejects_custom():
    """Every repro encoder has a fused step; custom encoders fail loudly."""
    dataset, _ = _coles_batch(seed=1)
    transformer = build_encoder(dataset.schema, 8, "transformer",
                                rng=np.random.default_rng(0))
    step = FusedTrainStep(transformer)
    assert not step.is_recurrent

    class Custom:
        output_dim = 8

    with pytest.raises(TypeError):
        FusedTrainStep(Custom())


def test_l2_normalize_backward_matches_autograd():
    """Row-normalisation gradient mirrors ``nn.functional.l2_normalize``."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal((7, 5))
    x[2] = 0.0  # exercise the eps-clipped branch
    grad = rng.standard_normal((7, 5))

    leaf = Tensor(x, requires_grad=True)
    (F.l2_normalize(leaf) * Tensor(grad)).sum().backward()
    np.testing.assert_allclose(
        kernels.l2_normalize_rows_backward(x, grad), leaf.grad, atol=1e-12)


def test_frozen_rows_pass_gradients_through():
    """Rows shorter than the batch max route gradients around padded steps."""
    rng = np.random.default_rng(31)
    cell = GRU(4, 6, rng=rng)
    x = rng.standard_normal((3, 10, 4))
    lengths = np.array([10, 4, 1])
    mask = np.arange(10)[None, :] < lengths[:, None]
    d_last = rng.standard_normal((3, 6))

    x_tensor = Tensor(x, requires_grad=True)
    _, last = cell(x_tensor, mask=mask)
    cell.zero_grad()
    (last * Tensor(d_last)).sum().backward()

    weights = cell.export_weights()
    cache = kernels.gru_forward_train(weights, x[mask], lengths=lengths)
    grads = kernels.gru_backward(weights, cache, d_last)
    np.testing.assert_allclose(grads["d_x"], x_tensor.grad[mask], atol=ATOL)
    # The fused path has no padded positions; autograd's are exactly 0.
    assert grads["d_x"].shape == (mask.sum(), 4)
    assert np.all(x_tensor.grad[~mask] == 0.0)
    np.testing.assert_allclose(grads["init_state"], cell.init_state.grad,
                               atol=ATOL)


def test_lstm_initial_cell_gradient():
    """The learnt c_0/h_0 of an LSTM receive the correct gradients."""
    rng = np.random.default_rng(41)
    cell = LSTM(3, 5, rng=rng)
    x = rng.standard_normal((4, 6, 3))
    lengths = np.array([6, 5, 2, 1])
    mask = np.arange(6)[None, :] < lengths[:, None]
    d_last = rng.standard_normal((4, 5))

    # Autograd reference via the stepped module (forward() drops the cell).
    hidden = cell.initial_state(4)
    state_c = cell.initial_cell(4)
    x_tensor = Tensor(x, requires_grad=True)
    for t in range(6):
        new_h, new_c = cell.step(x_tensor[:, t, :], (hidden, state_c))
        keep = mask[:, t:t + 1]
        hidden = where(keep, new_h, hidden)
        state_c = where(keep, new_c, state_c)
    cell.zero_grad()
    (hidden * Tensor(d_last)).sum().backward()

    weights = cell.export_weights()
    cache = kernels.lstm_forward_train(weights, x[mask], lengths=lengths)
    grads = kernels.lstm_backward(weights, cache, d_last)
    np.testing.assert_allclose(grads["init_state"], cell.init_state.grad,
                               atol=ATOL)
    np.testing.assert_allclose(grads["init_cell"], cell.init_cell.grad,
                               atol=ATOL)
    np.testing.assert_allclose(grads["d_x"], x_tensor.grad[mask], atol=ATOL)


@pytest.mark.parametrize("cell", ["gru", "lstm", "transformer"])
def test_backward_runs_on_the_forward_plan(cell):
    """Gradients are taken on the plan the forward ran with.

    Rebinding every parameter to new values between ``forward`` and
    ``backward`` (what an optimiser step or ``load_state_dict`` does)
    leaves every gradient bitwise unchanged, for both encoder families.
    """
    dataset, batch = _coles_batch()
    encoder = build_encoder(dataset.schema, 16, cell,
                            rng=np.random.default_rng(1))
    encoder.train()
    initial = encoder.state_dict()
    step = FusedTrainStep(encoder)
    runs = []
    for rebind in (False, True):
        encoder.load_state_dict(initial)
        cache = step.forward(batch)
        _, d_embeddings = loss_gradient(LOSSES["contrastive"](),
                                        cache.embeddings, batch.seq_ids,
                                        rng=np.random.default_rng(7))
        if rebind:
            for param in encoder.parameters():
                param.data = param.data * 1.5
        encoder.zero_grad()
        step.backward(cache, d_embeddings)
        runs.append({name: param.grad
                     for name, param in encoder.named_parameters()})
    plain, rebound = runs
    assert plain.keys() == rebound.keys()
    for name, grad in plain.items():
        np.testing.assert_array_equal(rebound[name], grad, err_msg=name)


def _scatter_case(case, rng):
    """``(ids, grads, vocab)`` of one :func:`_scatter_add_rows` case;
    ``grads`` is a non-contiguous view, like a field's slice of
    ``d_x``."""
    ids, width, vocab = {
        # ids 5 and 6 never occur
        "repeated": (rng.integers(0, 5, size=(6, 40)), 4, 7),
        "one-column": (rng.integers(0, 3, size=(5, 30)), 1, 4),
        "single-row": (np.array([[2]]), 3, 4),
        "empty": (np.zeros((3, 0), dtype=np.int64), 2, 4),
    }[case]
    wide = rng.standard_normal(ids.shape + (width + 2,))
    wide *= 10.0 ** rng.integers(-3, 4, size=wide.shape)
    return ids, wide[..., 1:1 + width], vocab


@pytest.mark.parametrize("case", ["repeated", "one-column", "single-row",
                                  "empty"])
def test_scatter_add_rows_matches_add_at(case):
    """The embedding-table scatter is ``np.add.at`` into a zero table.

    float64 gradients sum bitwise like ``np.add.at`` (each table entry
    adds its contributions left to right); float32 gradients are summed
    in float64, each entry within 1e-6 of its absolute contributions'
    sum of the float64 sums.
    """
    ids, grads, vocab = _scatter_case(case, np.random.default_rng(29))
    width = grads.shape[-1]
    reference = np.zeros((vocab, width))
    np.add.at(reference, ids.ravel(), grads.reshape(-1, width))
    magnitude = np.zeros((vocab, width))
    np.add.at(magnitude, ids.ravel(), np.abs(grads).reshape(-1, width))
    table = np.zeros((vocab, width))
    _scatter_add_rows(table, ids, grads)
    np.testing.assert_array_equal(table, reference)
    table = np.zeros((vocab, width))
    _scatter_add_rows(table, ids, grads.astype(np.float32))
    assert np.all(np.abs(table - reference) <= 1e-6 * magnitude)
