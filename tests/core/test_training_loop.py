"""The one training loop shared by CoLES, CPC, RTD, NSP, SOP and fine-tuning.

- the three configs validate every setting at construction, from one
  table (and keep exactly the settable fields they had);
- every loop runs through the one epoch driver: ``EpochStats`` history,
  one ``verbose`` line per epoch, encoder left in eval mode;
- every loop plans its epochs with the one epoch plan, so a
  ``bucket_window`` length-buckets each loop's batches (NSP/SOP ignored
  it before the plan was shared);
- the step is built where it always was (trainer construction, or the
  baseline's ``fit``), and building it builds no plan.
"""

import dataclasses

import numpy as np
import pytest

from repro.augmentations import RandomSlices
from repro.baselines import (CPC, NSP, RTD, SOP, FineTuneConfig,
                             PretrainConfig, SequenceClassifier)
from repro.core import ContrastiveTrainer, TrainConfig
from repro.core.trainer import EpochStats, apply_update
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.losses import ContrastiveLoss
from repro.nn import SGD, Parameter
from repro.runtime import FusedTrainStep
from tests.oracles import STEP_SITES

CONFIGS = (TrainConfig, PretrainConfig, FineTuneConfig)
SHARED = ["num_epochs", "batch_size", "learning_rate", "clip_norm", "seed",
          "verbose", "bucket_window", "precision"]


def test_configs_keep_their_settable_fields():
    """No option is added: 10, 9 and 9 settable values."""
    names = {cls: sorted(f.name for f in dataclasses.fields(cls))
             for cls in CONFIGS}
    assert names[TrainConfig] == sorted(SHARED + ["weight_decay", "engine"])
    assert names[PretrainConfig] == sorted(SHARED + ["max_seq_length"])
    assert names[FineTuneConfig] == sorted(SHARED
                                           + ["encoder_learning_rate"])
    assert FineTuneConfig().batch_size == 32
    assert TrainConfig().batch_size == PretrainConfig().batch_size == 16


def _rows():
    """``(config, kwargs, outcome)``: an exception type, or the
    attributes the constructed config must hold."""
    for cls in CONFIGS:
        yield cls, {"num_epochs": 0}, ValueError
        yield cls, {"learning_rate": 0.0}, ValueError
        yield cls, {"learning_rate": -1.0}, ValueError
        # A negative bound would scale every gradient by -bound/|g|.
        yield cls, {"clip_norm": -1.0}, ValueError
        yield cls, {"clip_norm": 0.0}, {"clip_norm": 0.0}  # clipping off
        yield cls, {"bucket_window": 0}, ValueError
        yield cls, {"bucket_window": 1}, {"bucket_window": 1}
        yield cls, {"precision": "float16"}, ValueError
        yield cls, {"precision": "float32"}, {"precision": "float32"}
    yield TrainConfig, {"batch_size": 1}, ValueError
    yield TrainConfig, {"batch_size": 2}, {"batch_size": 2}
    yield PretrainConfig, {"batch_size": 1}, ValueError
    yield PretrainConfig, {"batch_size": 2}, {"batch_size": 2}
    yield FineTuneConfig, {"batch_size": 0}, ValueError
    yield FineTuneConfig, {"batch_size": 1}, {"batch_size": 1}
    yield TrainConfig, {"weight_decay": -0.1}, ValueError
    yield PretrainConfig, {"max_seq_length": 0}, ValueError
    yield FineTuneConfig, {"encoder_learning_rate": -1.0}, ValueError
    yield FineTuneConfig, {"learning_rate": 0.005}, {
        "encoder_learning_rate": 0.005}  # defaults to learning_rate
    yield TrainConfig, {"engine": "tensor"}, ValueError
    yield TrainConfig, {"engine": "fused"}, {"engine": "fused"}
    # A field another config owns is an unknown keyword.
    for cls in (PretrainConfig, FineTuneConfig):
        yield cls, {"engine": "fused"}, TypeError
        yield cls, {"weight_decay": 0.0}, TypeError
    yield TrainConfig, {"max_seq_length": 150}, TypeError
    yield TrainConfig, {"encoder_learning_rate": 0.001}, TypeError


@pytest.mark.parametrize(
    "config_cls,kwargs,outcome",
    [pytest.param(cls, kwargs, outcome, id="%s-%s" % (
        cls.__name__, ",".join("%s=%r" % item for item in kwargs.items())))
     for cls, kwargs, outcome in _rows()])
def test_config_validation(config_cls, kwargs, outcome):
    """Every bad setting fails at construction, not inside the loop."""
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            config_cls(**kwargs)
        return
    config = config_cls(**kwargs)
    for name, value in outcome.items():
        assert getattr(config, name) == value


LOOPS = ("coles", "cpc", "rtd", "nsp", "sop", "finetune")


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=24, mean_length=30, min_length=12,
                              max_length=80, labeled_fraction=1.0, seed=3)


def _loop(loop, schema, **settings):
    """A fresh model of ``loop`` and the call that fits it."""
    encoder = build_encoder(schema, 8, "gru", rng=np.random.default_rng(0))
    if loop == "coles":
        model = ContrastiveTrainer(encoder, ContrastiveLoss(),
                                   RandomSlices(5, 20, 3),
                                   TrainConfig(**settings))
        return model, model.fit
    if loop == "finetune":
        model = SequenceClassifier(encoder, num_classes=2, seed=0)
        return model, lambda data: model.fit(data, FineTuneConfig(**settings))
    if loop in ("cpc", "rtd"):
        model = (CPC if loop == "cpc" else RTD)(schema, hidden_size=8, seed=0)
    else:
        model = (NSP if loop == "nsp" else SOP)(encoder, schema, seed=0)
    return model, lambda data: model.fit(data, PretrainConfig(**settings))


@pytest.mark.parametrize("loop", LOOPS)
def test_every_loop_runs_the_one_driver(loop, dataset, capsys):
    """EpochStats history, one verbose line per epoch, eval mode after."""
    model, fit = _loop(loop, dataset.schema, num_epochs=2, batch_size=6,
                       verbose=True)
    fit(dataset)
    assert [type(stats) for stats in model.history] == [EpochStats] * 2
    assert [stats.epoch for stats in model.history] == [0, 1]
    for stats in model.history:
        assert stats.num_batches >= 1
        assert np.isfinite(stats.mean_loss)
        assert stats.seconds > 0
    lines = capsys.readouterr().out.splitlines()
    name = type(model).__name__
    assert [line.split()[:3] for line in lines] == [[name, "epoch", "0"],
                                                    [name, "epoch", "1"]]
    assert not model.encoder.training


def _entities(seq_ids):
    """Entity ids in order of first appearance (CoLES views repeat them)."""
    ids, first = np.unique(seq_ids, return_index=True)
    return ids[np.argsort(first, kind="stable")].tolist()


@pytest.fixture
def forward_batches(monkeypatch):
    """Every batch a training loop's fused step ran forward on."""
    batches = []

    class RecordingStep(FusedTrainStep):
        def forward(self, batch):
            batches.append(batch)
            return super().forward(batch)

    for site in STEP_SITES:
        monkeypatch.setattr(site + ".FusedTrainStep", RecordingStep)
    return batches


@pytest.mark.parametrize("loop", LOOPS)
def test_bucket_window_buckets_every_loop(loop, dataset, monkeypatch,
                                          forward_batches):
    """With a window set, every loop's batches are length-bucketed.

    The epoch plan sorts each window of batches longest first, and
    windows are whole batches, so the entities of every batch a loop
    trains on come in non-increasing length order.  An unbucketed
    (shuffled) batch of four is sorted by chance 1 time in 24.
    """
    length = {seq.seq_id: len(seq) for seq in dataset}
    model, fit = _loop(loop, dataset.schema, num_epochs=1, batch_size=4,
                       bucket_window=2)
    if loop in ("nsp", "sop"):
        # The pair tasks' batches are the chunks they draw pairs from,
        # passed to _make_pairs as their entities' lengths.
        batches = []
        make_pairs = model._make_pairs

        def recording_pairs(lengths, rng):
            batches.append(list(lengths))
            return make_pairs(lengths, rng)

        monkeypatch.setattr(model, "_make_pairs", recording_pairs)
        fit(dataset)
    else:
        fit(dataset)
        batches = [[length[i] for i in _entities(batch.seq_ids)]
                   for batch in forward_batches]
    assert sum(len(lengths) >= 2 for lengths in batches) >= 4
    for lengths in batches:
        assert lengths == sorted(lengths, reverse=True), lengths


@pytest.mark.parametrize("loop", ["cpc", "rtd", "nsp", "sop"])
def test_pretrainers_train_on_truncated_sequences(loop, dataset,
                                                  forward_batches):
    """Every pre-training baseline trains on at most max_seq_length events."""
    assert max(len(seq) for seq in dataset) > 15
    _, fit = _loop(loop, dataset.schema, num_epochs=1, batch_size=6,
                   max_seq_length=15)
    fit(dataset)
    assert forward_batches
    assert max(batch.max_length for batch in forward_batches) <= 15


def test_building_a_trainer_builds_no_plan(dataset):
    """The trainer builds its step at construction; the plans wait."""
    encoder = build_encoder(dataset.schema, 8, "gru",
                            rng=np.random.default_rng(0))
    trainer = ContrastiveTrainer(encoder, ContrastiveLoss(),
                                 RandomSlices(5, 20, 3))
    runtime = trainer._fused_step.runtime
    assert runtime.encoder is encoder
    assert runtime.precision == trainer.config.precision
    assert runtime._weight_plan is None and runtime._encode_plan is None


def test_apply_update_clips_then_steps():
    """The one update: clip the optimizer's gradients, then step."""
    param = Parameter(np.zeros(3))
    stepped = []

    class Recording(SGD):
        def step(self):
            stepped.append(param.grad.copy())
            super().step()

    optimizer = Recording([param], lr=1.0)
    param.grad = np.array([3.0, 4.0, 0.0])
    apply_update(optimizer, 1.0)
    np.testing.assert_allclose(stepped[-1], [0.6, 0.8, 0.0])
    np.testing.assert_allclose(param.data, [-0.6, -0.8, 0.0])
    param.grad = np.array([3.0, 4.0, 0.0])
    apply_update(optimizer, 0.0)  # 0 turns clipping off
    np.testing.assert_allclose(stepped[-1], [3.0, 4.0, 0.0])
