"""Section 4.0.4: training throughput.

The paper processes one batch (64 entities x 5 sub-sequences, ~28800
transactions) in 142 ms on a Tesla P-100.  We time the same training step
(scaled batch) on CPU with the pure-numpy substrate and report both
numbers; absolute speed is not expected to match, the bench documents the
gap and guards against performance regressions of the training step.
"""

import time

import numpy as np

from repro.augmentations import RandomSlices
from repro.core import TrainConfig, ContrastiveTrainer, augment_batch
from repro.data.synthetic import make_age_dataset
from repro.encoders import build_encoder
from repro.eval import ComparisonTable
from repro.experiments import paper_numbers
from repro.losses import ContrastiveLoss
from repro.nn import Adam


def test_training_step_throughput(benchmark):
    dataset = make_age_dataset(num_clients=16, mean_length=80, min_length=40,
                               max_length=120, seed=0)
    encoder = build_encoder(dataset.schema, 24, "gru",
                            rng=np.random.default_rng(0))
    trainer = ContrastiveTrainer(encoder, ContrastiveLoss(),
                                 RandomSlices(10, 60, 5),
                                 TrainConfig(num_epochs=1, batch_size=16,
                                             bucket_window=4))
    optimizer = Adam(encoder.parameters(), lr=0.001)
    rng = np.random.default_rng(0)
    batch = augment_batch(dataset, np.arange(len(dataset)),
                          trainer.strategy, rng)
    events = int(batch.lengths.sum())

    result = benchmark(trainer.train_step, batch, optimizer, rng)

    # The serving-side counterpart on the same batch: one fused forward.
    encoder.eval()
    runtime = encoder.fused_runtime()
    started = time.perf_counter()
    runtime.embed_batch(batch)
    fused_ms = (time.perf_counter() - started) * 1000
    encoder.train()

    table = ComparisonTable(
        "Section 4.0.4: training throughput",
        ["setup", "events/batch", "ms/batch"],
    )
    table.add_row("paper (P-100 GPU, batch 64x5)", "28800",
                  "%.0f" % paper_numbers.THROUGHPUT_MS_PER_BATCH)
    mean_ms = benchmark.stats["mean"] * 1000
    table.add_row("this repo (CPU, numpy, batch 16x5)", str(events),
                  "%.0f" % mean_ms)
    table.add_row("fused inference fwd (same batch)", str(events),
                  "%.1f" % fused_ms)
    table.print()
    assert np.isfinite(result)
