"""Quickstart: train CoLES on synthetic card transactions and use the
embeddings for churn prediction.

Walks the full Figure-1 pipeline of the paper:

  Phase 1  — self-supervised contrastive pre-training on ALL sequences
             (labels never touched);
  Phase 2a — the frozen embeddings become features for a gradient-boosting
             classifier on the labeled subset.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CoLES
from repro.data import train_test_split
from repro.data.synthetic import make_churn_dataset
from repro.eval import auroc
from repro.gbm import GBMConfig, GradientBoostingClassifier


def main():
    # ------------------------------------------------------------------
    # 1. Data: 300 synthetic bank clients, half labeled with churn flags.
    # ------------------------------------------------------------------
    dataset = make_churn_dataset(num_clients=300, labeled_fraction=0.5, seed=7)
    print(dataset.summary())
    train, test = train_test_split(dataset, test_fraction=0.2, seed=0)
    print("train:", train.summary())
    print("test :", test.summary())

    # ------------------------------------------------------------------
    # 2. Phase 1 — self-supervised CoLES pre-training.
    #    Random slices (Algorithm 1) build positive pairs; the contrastive
    #    loss with hard negative mining shapes the embedding space.
    #    Every encoder trains through the graph-free fused runtime
    #    (hand-derived BPTT here) — the same gradients as reverse-mode
    #    autograd to < 1e-8 (see docs/architecture.md and
    #    BENCH_training.json).
    # ------------------------------------------------------------------
    model = CoLES(
        dataset.schema,
        hidden_size=32,          # embedding dimensionality d
        encoder_type="gru",      # the paper's default phi_seq
        loss="contrastive",      # Table 4 winner
        sampler="hard",          # Table 5 winner
        strategy="random_slices",  # Table 2 winner (Algorithm 1)
        min_length=5,
        max_length=80,
        num_samples=5,           # K sub-sequences per entity (Table 1)
        seed=0,
    )
    model.fit(train, num_epochs=6, batch_size=16, learning_rate=0.01,
              verbose=True)

    # ------------------------------------------------------------------
    # 3. Phase 2a — embeddings as features for a downstream GBM.
    # ------------------------------------------------------------------
    train_labeled = train.labeled()
    embeddings_train = model.embed(train_labeled)   # (N, 32) unit vectors
    embeddings_test = model.embed(test)
    print("embedding matrix:", embeddings_train.shape)

    classifier = GradientBoostingClassifier(GBMConfig(num_rounds=60))
    classifier.fit(embeddings_train, train_labeled.label_array())
    scores = classifier.predict_proba(embeddings_test)[:, 1]
    print("churn AUROC on held-out clients: %.3f"
          % auroc(test.label_array(), scores))

    # ------------------------------------------------------------------
    # 4. The embeddings are reusable artifacts: save, reload, re-embed.
    # ------------------------------------------------------------------
    model.save("/tmp/coles_quickstart.npz")
    reloaded = CoLES(dataset.schema, hidden_size=32, seed=0)
    reloaded.load("/tmp/coles_quickstart.npz")
    np.testing.assert_allclose(reloaded.embed(test), embeddings_test)
    print("saved + reloaded encoder reproduces the embeddings exactly")

    # ------------------------------------------------------------------
    # 4b. Phase 2b — fine-tuning: attach a softmax head and train
    #     jointly on the labels (updates the encoder in place).  This
    #     runs on the same fused path (hand-derived cross-entropy +
    #     head backward) and predicts through the fused runtime.
    #     encoder_learning_rate trains the pre-trained encoder more
    #     gently than the fresh head.
    # ------------------------------------------------------------------
    classifier_ft = model.fine_tune(train, num_epochs=3,
                                    learning_rate=0.01,
                                    encoder_learning_rate=0.002)
    ft_scores = classifier_ft.predict_proba(test)[:, 1]
    print("fine-tuned churn AUROC on held-out clients: %.3f"
          % auroc(test.label_array(), ft_scores))

    # ------------------------------------------------------------------
    # 5. Serving note: `model.embed` already runs through the fused
    #    graph-free runtime with a length-bucketed batch plan (see
    #    repro.runtime and examples/deployment_pipeline.py for the full
    #    bulk + incremental ETL story).
    # ------------------------------------------------------------------
    runtime = model.encoder.fused_runtime()
    print("serving runtime ready: %s encoder, %d-dim embeddings"
          % (model.encoder.cell, runtime.output_dim))


if __name__ == "__main__":
    main()
