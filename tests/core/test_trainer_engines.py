"""The training loops on the fused runtime vs the autograd oracle.

Every training loop steps the encoder through ``FusedTrainStep``
(graph-free forward, hand-derived BPTT for GRU/LSTM, the attention
reverse pass for transformers).  ``tests.oracles.autograd_steps`` swaps
in the autograd ``AutogradTrainStep`` for the same loops, and the
contract tested here is that the two are one optimisation:

- after 0 steps they are indistinguishable — byte-identical checkpoints
  (building the step must not touch the weights);
- after N real optimisation steps on synthetic data the trained weights
  agree to < 1e-8 (same gradients -> same Adam trajectory) — for the
  final-embedding objectives (CoLES, NSP/SOP), the per-step ones
  (CPC, RTD) *and* supervised fine-tuning (``FineTuneConfig``,
  GRU+LSTM+transformer x bucketed/unsorted batches x fresh/pre-trained
  encoder, with and without a distinct ``encoder_learning_rate``);
- every loop steps through ``FusedTrainStep`` for GRU, LSTM *and*
  transformer encoders;
- ``predict_proba`` agrees with the autograd forward to < 1e-10;
- engine knobs other than ``TrainConfig(engine="fused")`` and encoders
  outside the repro families fail loudly.
"""

import contextlib

import numpy as np
import pytest

from repro import CoLES
from repro.augmentations import RandomSlices
from repro.baselines import (CPC, NSP, RTD, SOP, FineTuneConfig,
                             SequenceClassifier)
from repro.baselines.pretrain_common import PretrainConfig
from repro.core import ContrastiveTrainer, TrainConfig
from repro.data.batches import collate
from repro.data.sequences import SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.losses import ContrastiveLoss
from repro.nn import Module, no_grad
from repro.nn import functional as F
from repro.runtime import FusedTrainStep
from tests.oracles import AutogradTrainStep, autograd_steps


def _dataset(seed=0):
    return make_churn_dataset(num_clients=12, mean_length=25, min_length=10,
                              max_length=50, seed=seed)


def _trainer(dataset, cell="gru", num_epochs=2):
    encoder = build_encoder(dataset.schema, 12, cell,
                            rng=np.random.default_rng(5))
    config = TrainConfig(num_epochs=num_epochs, batch_size=6,
                         learning_rate=0.01, seed=3)
    return ContrastiveTrainer(encoder, ContrastiveLoss(),
                              RandomSlices(5, 20, 3), config)


def _oracle_trainer(dataset, cell="gru", num_epochs=2):
    with autograd_steps():
        return _trainer(dataset, cell=cell, num_epochs=num_epochs)


@pytest.mark.parametrize("cell", ["gru", "transformer"])
def test_engines_byte_identical_after_zero_steps(cell):
    """Building the step is free: no weight is touched before step 1."""
    dataset = _dataset()
    tensor = _oracle_trainer(dataset, cell=cell)
    fused = _trainer(dataset, cell=cell)
    tensor_state = tensor.encoder.state_dict()
    fused_state = fused.encoder.state_dict()
    assert tensor_state.keys() == fused_state.keys()
    for name, value in tensor_state.items():
        assert value.tobytes() == fused_state[name].tobytes(), name


@pytest.mark.parametrize("cell", ["gru", "lstm", "transformer"])
def test_engines_equivalent_after_training(cell):
    """N small steps on fused and autograd land on one set of weights."""
    dataset = _dataset()
    tensor = _oracle_trainer(dataset, cell=cell)
    fused = _trainer(dataset, cell=cell)
    assert isinstance(tensor._fused_step, AutogradTrainStep)
    tensor.fit(dataset)
    fused.fit(dataset)

    assert len(tensor.history) == len(fused.history)
    for ref, got in zip(tensor.history, fused.history):
        assert got.num_batches == ref.num_batches
        assert got.mean_loss == pytest.approx(ref.mean_loss, abs=1e-8)

    fused_state = fused.encoder.state_dict()
    for name, value in tensor.encoder.state_dict().items():
        np.testing.assert_allclose(fused_state[name], value, atol=1e-8,
                                   rtol=1e-8, err_msg=name)


def test_fused_trained_weights_serve_through_runtime():
    """The train-vs-serve handoff: fused-trained weights serve unchanged."""
    dataset = _dataset(seed=4)
    trainer = _trainer(dataset, num_epochs=1)
    trainer.fit(dataset)
    runtime = trainer.encoder.fused_runtime(precision="float64")
    served = runtime.embed_dataset(dataset)
    reference = np.stack([
        trainer.encoder.embed(_collate_one(seq, dataset.schema)).data[0]
        for seq in dataset.sequences
    ])
    np.testing.assert_allclose(served, reference, atol=1e-10)


def _collate_one(seq, schema):
    from repro.data.batches import collate

    return collate([seq], schema)


def test_unknown_engine_rejected():
    """"fused" is the one engine; the autograd engines are gone."""
    assert TrainConfig().engine == "fused"
    for engine in ("tensor", "auto", "cuda"):
        with pytest.raises(ValueError):
            TrainConfig(engine=engine)
    with pytest.raises(TypeError):
        PretrainConfig(engine="fused")
    dataset = _dataset()
    model = CoLES(dataset.schema, hidden_size=8)
    with pytest.raises(TypeError):
        model.fit(dataset, engine="tensor")
    with pytest.raises(TypeError):
        model.fine_tune(dataset, engine="tensor")


def _per_step_task(task_cls, schema, cell, seed=1):
    if task_cls is CPC:
        return CPC(schema, hidden_size=10, num_horizons=2, cell=cell,
                   seed=seed)
    return RTD(schema, hidden_size=10, cell=cell, seed=seed)


@pytest.mark.parametrize("task_cls", [CPC, RTD])
def test_per_step_baselines_byte_identical_after_zero_steps(task_cls):
    """Building the step must not touch CPC/RTD weights before step 1.

    Fitting on an empty dataset runs the full setup (including the
    step construction) but performs zero optimisation steps.
    """
    dataset = _dataset()
    empty = SequenceDataset([], dataset.schema)
    with autograd_steps():
        tensor_task = _per_step_task(task_cls, dataset.schema, "gru")
        tensor_task.fit(empty, PretrainConfig(num_epochs=1))
    fused_task = _per_step_task(task_cls, dataset.schema, "gru")
    fused_task.fit(empty, PretrainConfig(num_epochs=1))
    tensor_state = tensor_task.encoder.state_dict()
    fused_state = fused_task.encoder.state_dict()
    assert tensor_state.keys() == fused_state.keys()
    for name, value in tensor_state.items():
        assert value.tobytes() == fused_state[name].tobytes(), name


@pytest.mark.parametrize("task_cls", [CPC, RTD])
@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_per_step_baselines_engines_equivalent(task_cls, cell):
    """CPC/RTD on the fused step track the autograd oracle to < 1e-8.

    The per-step objectives run their loss on leaf tensors over the
    fused per-step states (and, for CPC, event representations); the
    same gradients must reach every parameter, so N optimisation steps
    land on the same weights as the autograd graph.
    """
    dataset = _dataset(seed=8)

    def fit():
        task = _per_step_task(task_cls, dataset.schema, cell)
        task.fit(dataset, PretrainConfig(num_epochs=2, batch_size=6,
                                         learning_rate=0.01, seed=5))
        return task

    with autograd_steps():
        tensor_task = fit()
    fused_task = fit()
    np.testing.assert_allclose(fused_task.history, tensor_task.history,
                               atol=1e-8)
    fused_state = fused_task.encoder.state_dict()
    for name, value in tensor_task.encoder.state_dict().items():
        np.testing.assert_allclose(fused_state[name], value, atol=1e-8,
                                   rtol=1e-8, err_msg=name)


def test_trainer_defaults_to_fused_for_recurrent_encoders():
    """TrainConfig() runs GRU/LSTM through the fused BPTT step..."""
    dataset = _dataset()
    encoder = build_encoder(dataset.schema, 8, "gru",
                            rng=np.random.default_rng(0))
    trainer = ContrastiveTrainer(encoder, ContrastiveLoss(),
                                 RandomSlices(5, 20, 3))
    assert isinstance(trainer._fused_step, FusedTrainStep)
    assert trainer._fused_step.is_recurrent


def test_trainer_defaults_to_fused_for_transformers():
    """...and transformers through the fused attention step."""
    dataset = _dataset()
    encoder = build_encoder(dataset.schema, 8, "transformer",
                            rng=np.random.default_rng(0))
    trainer = ContrastiveTrainer(encoder, ContrastiveLoss(),
                                 RandomSlices(5, 20, 3))
    assert isinstance(trainer._fused_step, FusedTrainStep)
    assert not trainer._fused_step.is_recurrent


@pytest.mark.parametrize("task_cls", [CPC, RTD, NSP, SOP])
def test_baselines_default_to_fused_for_recurrent_encoders(task_cls,
                                                           fused_forwards):
    """All four RNN baselines step through FusedTrainStep."""
    dataset = _dataset()
    if task_cls in (CPC, RTD):
        task = _per_step_task(task_cls, dataset.schema, "gru")
    else:
        encoder = build_encoder(dataset.schema, 8, "gru",
                                rng=np.random.default_rng(0))
        task = task_cls(encoder, dataset.schema, seed=0)
    task.fit(dataset, PretrainConfig(num_epochs=1, batch_size=6))
    assert fused_forwards
    assert all(encoder is task.encoder for encoder in fused_forwards)


def test_pair_baseline_defaults_to_fused_for_transformers(fused_forwards):
    """NSP over a transformer steps through the fused attention path."""
    dataset = _dataset()
    encoder = build_encoder(dataset.schema, 8, "transformer",
                            rng=np.random.default_rng(0))
    task = NSP(encoder, dataset.schema, seed=0)
    task.fit(dataset, PretrainConfig(num_epochs=1, batch_size=6))
    assert fused_forwards
    assert all(seen is encoder for seen in fused_forwards)


class _CustomEncoder(Module):
    """A stand-in outside the repro encoder families."""

    output_dim = 8


def test_fused_engine_rejects_custom_encoders():
    """Training covers repro encoders only, and says so at build."""
    with pytest.raises(TypeError, match="RnnSeqEncoder"):
        ContrastiveTrainer(_CustomEncoder(), ContrastiveLoss(),
                           RandomSlices(5, 20, 3))


@pytest.mark.parametrize("task_cls", [NSP, SOP])
def test_pair_baselines_engines_equivalent(task_cls):
    """NSP/SOP on the fused step track the autograd oracle to < 1e-8."""
    dataset = _dataset(seed=8)

    def fit():
        encoder = build_encoder(dataset.schema, 10, "gru",
                                rng=np.random.default_rng(2))
        task = task_cls(encoder, dataset.schema, seed=1)
        task.fit(dataset, PretrainConfig(num_epochs=2, batch_size=6,
                                         learning_rate=0.01, seed=5))
        return task

    with autograd_steps():
        tensor_task = fit()
    fused_task = fit()
    np.testing.assert_allclose(fused_task.history, tensor_task.history,
                               atol=1e-8)
    fused_state = fused_task.encoder.state_dict()
    for name, value in tensor_task.encoder.state_dict().items():
        np.testing.assert_allclose(fused_state[name], value, atol=1e-8,
                                   rtol=1e-8, err_msg=name)
    fused_head = dict(fused_task.head.named_parameters())
    for name, param in tensor_task.head.named_parameters():
        np.testing.assert_allclose(fused_head[name].data, param.data,
                                   atol=1e-8, rtol=1e-8, err_msg=name)


# ----------------------------------------------------------------------
# supervised fine-tuning: the classification-head loop (per-group
# learning rates)
# ----------------------------------------------------------------------

def _labeled_dataset(seed=0):
    return make_churn_dataset(num_clients=14, mean_length=25, min_length=10,
                              max_length=50, labeled_fraction=1.0, seed=seed)


def _finetune(dataset, oracle=False, cell="gru", pretrained=False,
              bucket_window=None, encoder_lr=None, num_epochs=2):
    """Build (optionally pre-train) an encoder and fine-tune it.

    ``oracle=True`` fine-tunes through the autograd oracle step.
    """
    encoder = build_encoder(dataset.schema, 12, cell,
                            rng=np.random.default_rng(5))
    if pretrained:
        # An identical, deterministic (fused) pre-training phase on both
        # sides, so only the fine-tuning step differs between the runs.
        ContrastiveTrainer(encoder, ContrastiveLoss(), RandomSlices(5, 20, 3),
                           TrainConfig(num_epochs=1, batch_size=7,
                                       seed=11)).fit(dataset)
    classifier = SequenceClassifier(encoder, num_classes=2, seed=2)
    config = FineTuneConfig(
        num_epochs=num_epochs, batch_size=6, learning_rate=0.01,
        encoder_learning_rate=encoder_lr, bucket_window=bucket_window,
        seed=3)
    with autograd_steps() if oracle else contextlib.nullcontext():
        classifier.fit(dataset, config)
    return classifier


def _assert_classifiers_close(fused, tensor, atol=1e-8):
    np.testing.assert_allclose(fused.history, tensor.history, atol=atol)
    fused_state = fused.encoder.state_dict()
    for name, value in tensor.encoder.state_dict().items():
        np.testing.assert_allclose(fused_state[name], value, atol=atol,
                                   rtol=atol, err_msg=name)
    fused_head = dict(fused.head.named_parameters())
    for name, param in tensor.head.named_parameters():
        np.testing.assert_allclose(fused_head[name].data, param.data,
                                   atol=atol, rtol=atol, err_msg=name)


def test_finetune_engines_byte_identical_after_zero_steps():
    """Building a fine-tuning step must not touch any weight.

    The step construction — everything ``fit()`` does to the model
    before optimisation step 1 — runs without perturbing encoder or head.
    """
    dataset = _labeled_dataset()
    tensor_clf = SequenceClassifier(
        build_encoder(dataset.schema, 12, "gru",
                      rng=np.random.default_rng(5)), num_classes=2, seed=2)
    fused_clf = SequenceClassifier(
        build_encoder(dataset.schema, 12, "gru",
                      rng=np.random.default_rng(5)), num_classes=2, seed=2)
    AutogradTrainStep(tensor_clf.encoder)
    FusedTrainStep(fused_clf.encoder)
    tensor_state = tensor_clf.encoder.state_dict()
    fused_state = fused_clf.encoder.state_dict()
    assert tensor_state.keys() == fused_state.keys()
    for name, value in tensor_state.items():
        assert value.tobytes() == fused_state[name].tobytes(), name
    fused_head = dict(fused_clf.head.named_parameters())
    for name, param in tensor_clf.head.named_parameters():
        assert param.data.tobytes() == fused_head[name].data.tobytes(), name


@pytest.mark.parametrize("cell", ["gru", "lstm", "transformer"])
@pytest.mark.parametrize("bucket_window", [None, 2],
                         ids=["unsorted", "bucketed"])
@pytest.mark.parametrize("pretrained", [False, True],
                         ids=["fresh", "pretrained"])
def test_finetune_engines_equivalent_after_training(cell, bucket_window,
                                                    pretrained):
    """Fused and autograd fine-tuning land on one set of weights (< 1e-8).

    The property grid: GRU + LSTM + transformer, length-bucketed and
    fully random batch plans, fresh and CoLES-pre-trained encoders.
    History (mean cross-entropy per epoch), encoder state and head must
    all agree.
    """
    dataset = _labeled_dataset()
    tensor_clf = _finetune(dataset, oracle=True, cell=cell,
                           pretrained=pretrained,
                           bucket_window=bucket_window)
    fused_clf = _finetune(dataset, cell=cell, pretrained=pretrained,
                          bucket_window=bucket_window)
    _assert_classifiers_close(fused_clf, tensor_clf)


@pytest.mark.parametrize("cell", ["gru", "lstm", "transformer"])
def test_finetune_distinct_encoder_lr_equivalent(cell):
    """Per-group learning rates track each other on fused and autograd.

    ``encoder_learning_rate != learning_rate`` must steer the *same*
    per-group Adam trajectory on the fused path as on the autograd one.
    """
    dataset = _labeled_dataset(seed=6)
    tensor_clf = _finetune(dataset, oracle=True, cell=cell, encoder_lr=0.05)
    fused_clf = _finetune(dataset, cell=cell, encoder_lr=0.05)
    _assert_classifiers_close(fused_clf, tensor_clf)


@pytest.mark.parametrize("cell", ["gru", "transformer"])
def test_predict_proba_paths_agree(cell):
    """Fused-runtime ``predict_proba`` == the autograd loop, < 1e-10."""
    dataset = _labeled_dataset(seed=4)
    classifier = _finetune(dataset, cell=cell, num_epochs=1)
    probs = classifier.predict_proba(dataset, batch_size=5)
    reference = np.zeros_like(probs)
    classifier.encoder.eval()
    with no_grad():
        for start in range(0, len(dataset), 5):
            chunk = dataset.sequences[start:start + 5]
            batch = collate(chunk, dataset.schema)
            logits = classifier.head(classifier.encoder.embed(batch))
            reference[start:start + len(chunk)] = F.softmax(
                logits, axis=-1).data
    np.testing.assert_allclose(probs, reference, atol=1e-10)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("cell", ["gru", "transformer"])
def test_finetune_steps_through_fused_runtime(cell, fused_forwards):
    """Fine-tuning steps through FusedTrainStep for both families."""
    dataset = _labeled_dataset()
    classifier = _finetune(dataset, cell=cell, num_epochs=1)
    assert fused_forwards
    assert all(seen is classifier.encoder for seen in fused_forwards)


def test_finetune_fused_engine_rejects_custom_encoder():
    """A non-repro encoder fails loudly at fit() and at predict time."""
    dataset = _labeled_dataset()
    classifier = SequenceClassifier(_CustomEncoder(), num_classes=2, seed=2)
    with pytest.raises(TypeError):
        classifier.fit(dataset, FineTuneConfig(num_epochs=1))
    with pytest.raises(TypeError):
        classifier.predict_proba(dataset)


def test_finetune_config_validation():
    """FineTuneConfig validates like TrainConfig/PretrainConfig."""
    with pytest.raises(TypeError):
        FineTuneConfig(engine="fused")
    with pytest.raises(ValueError):
        FineTuneConfig(num_epochs=0)
    with pytest.raises(ValueError):
        FineTuneConfig(batch_size=0)
    with pytest.raises(ValueError):
        FineTuneConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        FineTuneConfig(encoder_learning_rate=-1.0)
    config = FineTuneConfig(learning_rate=0.005)
    assert config.encoder_learning_rate == 0.005  # defaults to learning_rate
