"""Training-path throughput of the fused runtime.

``BENCH_inference.json`` and ``BENCH_serving.json`` track the serving
side; this bench tracks the *training* hot path: graph-free forward +
hand-derived BPTT (:mod:`repro.runtime.training`), where only the
objective runs through autograd — on the ``(B, H)`` embedding matrix
for CoLES, on per-step state/event leaves for CPC and RTD, and not at
all for the closed-form fine-tuning head.

The CoLES step runs twice over identical optimisation steps (same
batches, same initial weights, same loss/rng): ``precision="float64"``
(the parity reference) and the mixed ``precision="float32"`` policy
(float32 compute and gradients over float64 master weights and Adam
state), which is the gated ``steps_per_sec.fused`` key; the float32
losses are checked against the float64 run.  Gradient equivalence with
autograd (< 1e-8) is tested in ``tests/runtime/test_fused_training.py``
and ``tests/core/test_trainer_engines.py``.
Results are recorded through ``bench_record`` to
``.bench/BENCH_training.json`` (CI's bench job gates
``steps_per_sec.fused`` and ``steps_per_sec.finetune_fused`` against the
committed root baseline at the 30% budget).  Three workloads: the CoLES
training step, CPC/RTD per-step pre-training, and supervised
fine-tuning.
"""

import time

import numpy as np

from repro.augmentations import RandomSlices
from repro.baselines import CPC, RTD, FineTuneConfig, SequenceClassifier
from repro.baselines.pretrain_common import PretrainConfig
from repro.core import ContrastiveTrainer, TrainConfig, augment_batch
from repro.data.sequences import EventSequence, SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.eval import ComparisonTable
from repro.losses import ContrastiveLoss
from repro.nn import Adam

# Both benchmarks in this module record into one BENCH_training.json.
# They accumulate here and re-record the merged dict, so the file is
# complete when the whole module runs (the documented way to refresh
# baselines) and loudly partial — never silently stale — when a single
# test is cherry-picked.
_TELEMETRY = {}


def _deep_merge(into, update):
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _deep_merge(into[key], value)
        else:
            into[key] = value


def _record_training(bench_record, update):
    # Recursive merge: tests contribute sibling keys to shared subtrees
    # (steps_per_sec, baselines) regardless of execution order.
    _deep_merge(_TELEMETRY, update)
    return bench_record("training", _TELEMETRY)

# (clients, mean events) cohorts: the length-skewed population the
# inference/serving benches use, scaled to a training-step workload.
COHORTS = [(36, 30), (24, 90), (12, 220)]
NUM_BATCHES = 6
BATCH_ENTITIES = 12
HIDDEN = 48


def _longtail_dataset(seed=0):
    sequences, offset, schema = [], 0, None
    for num_clients, mean_length in COHORTS:
        cohort = make_churn_dataset(num_clients=num_clients,
                                    mean_length=mean_length, min_length=10,
                                    max_length=300, seed=seed + mean_length)
        schema = cohort.schema
        for seq in cohort:
            sequences.append(EventSequence(seq_id=offset + seq.seq_id,
                                           fields=seq.fields, label=seq.label))
        offset += 10_000
    rng = np.random.default_rng(seed)
    rng.shuffle(sequences)
    return SequenceDataset(sequences, schema, name="longtail-train")


def _training_batches(dataset, strategy, rng):
    """A fixed epoch of CoLES batches, pre-built so both precisions time
    the optimisation step only (augmentation/collation is shared)."""
    order = rng.permutation(len(dataset))
    batches = []
    for start in range(0, len(order), BATCH_ENTITIES):
        chunk = [dataset[i] for i in order[start:start + BATCH_ENTITIES]]
        if len(chunk) < 2:
            continue
        batch = augment_batch(chunk, dataset.schema, strategy, rng)
        if batch is not None:
            batches.append(batch)
        if len(batches) == NUM_BATCHES:
            break
    assert len(batches) == NUM_BATCHES
    return batches


def _run_steps(dataset, batches, strategy, precision, repeats=3):
    """Best steps/sec of ``repeats`` epochs over the fixed batch list."""
    best, losses = float("inf"), None
    for _ in range(repeats):
        encoder = build_encoder(dataset.schema, HIDDEN, "gru",
                                rng=np.random.default_rng(1))
        trainer = ContrastiveTrainer(
            encoder, ContrastiveLoss(), strategy,
            TrainConfig(num_epochs=1, batch_size=BATCH_ENTITIES,
                        precision=precision))
        optimizer = Adam(encoder.parameters(), lr=0.002)
        rng = np.random.default_rng(9)
        encoder.train()
        started = time.perf_counter()
        run_losses = [trainer.train_step(batch, optimizer, rng)
                      for batch in batches]
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best, losses = elapsed, run_losses
    return losses, best


def test_training_step_throughput(run_once, bench_record):
    def experiment():
        dataset = _longtail_dataset()
        strategy = RandomSlices(10, 80, 5)
        batches = _training_batches(dataset, strategy,
                                    np.random.default_rng(0))
        events = int(sum(batch.lengths.sum() for batch in batches))
        views = int(sum(batch.batch_size for batch in batches))

        fused64_losses, fused64_s = _run_steps(dataset, batches, strategy,
                                               "float64")
        # Mixed precision: float32 compute/gradients over float64 master
        # weights — the fast policy, and the gated steps_per_sec.fused.
        fused32_losses, fused32_s = _run_steps(dataset, batches, strategy,
                                               "float32")

        # Same optimisation: the float32 policy tracks the float64
        # reference within accumulated single-precision drift.
        np.testing.assert_allclose(fused32_losses, fused64_losses,
                                   rtol=1e-3, atol=1e-3)

        results = {
            "workload": {
                "batches": len(batches),
                "entities_per_batch": BATCH_ENTITIES,
                "views": views,
                "events": events,
                "hidden_size": HIDDEN,
            },
            "steps_per_sec": {
                "fused": len(batches) / fused32_s,
                "fused_f64": len(batches) / fused64_s,
            },
            "events_per_sec": {
                "fused": events / fused32_s,
                "fused_f64": events / fused64_s,
            },
            "speedup": {
                "precision_policy": fused64_s / fused32_s,
            },
        }
        _record_training(bench_record, results)

        table = ComparisonTable(
            "Training throughput: fused BPTT step",
            ["precision", "steps/s", "events/s"],
        )
        for precision, seconds in (("float64", fused64_s),
                                   ("float32", fused32_s)):
            table.add_row(precision, "%.2f" % (len(batches) / seconds),
                          "%.0f" % (events / seconds))
        table.print()
        return results

    run_once(experiment)


# ----------------------------------------------------------------------
# per-step objectives: CPC / RTD
# ----------------------------------------------------------------------

PRETRAIN_CLIENTS = 24
PRETRAIN_BATCH = 8


def _pretrain_dataset(seed=0):
    return make_churn_dataset(num_clients=PRETRAIN_CLIENTS, mean_length=140,
                              min_length=40, max_length=220, seed=seed)


def _run_baseline(kind, dataset, repeats=3):
    """Best seconds of ``repeats`` one-epoch fits."""
    best = float("inf")
    for _ in range(repeats):
        if kind == "cpc":
            task = CPC(dataset.schema, hidden_size=HIDDEN, num_horizons=3,
                       seed=1)
        else:
            task = RTD(dataset.schema, hidden_size=HIDDEN, seed=1)
        config = PretrainConfig(num_epochs=1, batch_size=PRETRAIN_BATCH,
                                max_seq_length=150, seed=3)
        started = time.perf_counter()
        task.fit(dataset, config)
        best = min(best, time.perf_counter() - started)
    return best


def test_per_step_baseline_throughput(run_once, bench_record):
    """CPC/RTD steps/sec, merged into BENCH_training.json.

    Runs after the CoLES step benchmark above (same file, definition
    order), so its ``baselines`` subtree joins the telemetry that test
    already accumulated in ``_TELEMETRY``.
    """

    def experiment():
        dataset = _pretrain_dataset()
        steps = -(-len(dataset) // PRETRAIN_BATCH)  # batches per epoch
        baselines = {}
        table = ComparisonTable("Per-step pre-training throughput",
                                ["method", "steps/s"])
        for kind in ("cpc", "rtd"):
            seconds = _run_baseline(kind, dataset)
            baselines[kind] = {"steps_per_sec": {"fused": steps / seconds}}
            table.add_row(kind, "%.2f" % (steps / seconds))
        table.print()

        _record_training(bench_record, {"baselines": baselines})
        return baselines

    run_once(experiment)


# ----------------------------------------------------------------------
# supervised fine-tuning: the classification head
# ----------------------------------------------------------------------

FINETUNE_CLIENTS = 28
FINETUNE_BATCH = 8


def _finetune_dataset(seed=0):
    return make_churn_dataset(num_clients=FINETUNE_CLIENTS, mean_length=120,
                              min_length=40, max_length=200,
                              labeled_fraction=1.0, seed=seed)


def _run_finetune(dataset, repeats=3):
    """Best seconds of ``repeats`` one-epoch fine-tunes."""
    best = float("inf")
    for _ in range(repeats):
        encoder = build_encoder(dataset.schema, HIDDEN, "gru",
                                rng=np.random.default_rng(1))
        classifier = SequenceClassifier(encoder, num_classes=2, seed=2)
        config = FineTuneConfig(num_epochs=1, batch_size=FINETUNE_BATCH,
                                learning_rate=0.002, seed=3)
        started = time.perf_counter()
        classifier.fit(dataset, config)
        best = min(best, time.perf_counter() - started)
    return best


def test_finetune_throughput(run_once, bench_record):
    """Supervised fine-tuning steps/sec.

    The whole step — encoder forward, closed-form cross-entropy + head
    backward, BPTT — is graph-free.  The gated key is
    ``steps_per_sec.finetune_fused`` (top level, next to the CoLES
    step's ``steps_per_sec.fused``).
    """

    def experiment():
        dataset = _finetune_dataset()
        steps = -(-len(dataset) // FINETUNE_BATCH)  # batches per epoch
        seconds = _run_finetune(dataset)
        _record_training(bench_record, {
            "steps_per_sec": {"finetune_fused": steps / seconds},
        })
        table = ComparisonTable("Fine-tuning throughput: fused "
                                "classification head", ["steps/s"])
        table.add_row("%.2f" % (steps / seconds))
        table.print()

    run_once(experiment)
