"""Tests for the self-supervised baselines: CPC, NSP, SOP, RTD and the
supervised classifier used for fine-tuning."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.baselines import (
    CPC,
    NSP,
    RTD,
    SOP,
    FineTuneConfig,
    PretrainConfig,
    SequenceClassifier,
    corrupt_batch,
    random_slice_pair,
    truncate_tail,
)
from repro.data import collate
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from tests.oracles import autograd_steps


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=30, mean_length=40, min_length=20,
                              max_length=60, labeled_fraction=1.0, seed=0)


FAST = PretrainConfig(num_epochs=2, batch_size=8, learning_rate=0.01,
                      max_seq_length=50, seed=0)


class TestHelpers:
    def test_truncate_tail_keeps_recent(self, dataset):
        seq = dataset[0]
        cut = truncate_tail(seq, 10)
        assert len(cut) == min(10, len(seq))
        np.testing.assert_allclose(
            cut.fields["event_time"], seq.fields["event_time"][-len(cut):]
        )

    def test_truncate_noop_when_short(self, dataset):
        seq = dataset[0]
        assert truncate_tail(seq, 10_000) is seq

    def test_random_slice_pair_consecutive(self, dataset):
        rng = np.random.default_rng(0)
        pair = random_slice_pair(len(dataset[0]), rng)
        assert pair is not None
        a, b = pair
        np.testing.assert_array_equal(np.diff(np.concatenate(pair)), 1)
        assert a[-1] + 1 == b[0]
        assert 0 <= a[0] and b[-1] < len(dataset[0])

    def test_random_slice_pair_too_short(self):
        assert random_slice_pair(5, np.random.default_rng(0)) is None


class TestPretrainConfig:
    def test_engine_validated(self):
        """Every baseline trains on the fused step: no engine knob."""
        with pytest.raises(TypeError):
            PretrainConfig(engine="fused")

    def test_numeric_fields_validated(self):
        """PretrainConfig rejects the same degenerate values TrainConfig does."""
        with pytest.raises(ValueError):
            PretrainConfig(num_epochs=0)
        with pytest.raises(ValueError):
            PretrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            PretrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            PretrainConfig(learning_rate=-1.0)

    def test_bucket_window_accepts_none_and_int(self):
        assert PretrainConfig().bucket_window is None
        assert PretrainConfig(bucket_window=4).bucket_window == 4


class TestCPC:
    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            CPC(dataset.schema, num_horizons=0)

    def test_info_nce_handles_non_prefix_masks(self, dataset):
        """Anchor validity must require BOTH the context and the target.

        A mask with interior holes (not a right-padded prefix) breaks
        the old `anchor_valid = mask[:, k:]` shortcut: position t could
        be padding while t+k is real.  The loss must count exactly the
        anchors where both ends are real events, matching a
        loop-written reference.
        """
        from repro.nn import Tensor

        cpc = CPC(dataset.schema, hidden_size=6, num_horizons=2, seed=0)
        rng = np.random.default_rng(3)
        batch_size, steps, hidden = 4, 7, 6
        dim = cpc.encoder.trx_encoder.output_dim
        states = rng.standard_normal((batch_size, steps, hidden))
        events = rng.standard_normal((batch_size, steps, dim))
        mask = np.ones((batch_size, steps), dtype=bool)
        # Interior holes: row 0 misses t=2 (but t=2+k are real), row 1
        # misses t=0 and t=4, row 3 is a plain short prefix.
        mask[0, 2] = False
        mask[1, [0, 4]] = False
        mask[3, 4:] = False
        assert np.any(~mask[:, :-1] & mask[:, 1:])  # holes, not a prefix

        loss, terms = cpc._info_nce(Tensor(states), Tensor(events), mask)

        # Loop-written reference over valid (b, t, k) anchors.
        total, expected_terms = 0.0, 0
        for k, predictor in enumerate(cpc.predictors, start=1):
            weight, bias = predictor.weight.data, predictor.bias.data
            for t in range(steps - k):
                for b in range(batch_size):
                    if not (mask[b, t] and mask[b, t + k]):
                        continue
                    scores = (states[b, t] @ weight.T + bias) @ events[:, t + k].T
                    scores = np.where(mask[:, t + k], scores, -1e9)
                    logp = scores - np.log(np.exp(scores - scores.max()).sum()) \
                        - scores.max()
                    total += -logp[b]
                    expected_terms += 1
        assert terms == expected_terms
        assert loss.item() == pytest.approx(total / expected_terms, abs=1e-10)

        # The old shortcut counted anchors whose context was padding.
        buggy_terms = sum(
            int(mask[:, k:].sum()) for k in (1, 2)
        )
        assert expected_terms < buggy_terms

    def test_fit_loss_decreases(self, dataset):
        cpc = CPC(dataset.schema, hidden_size=12, num_horizons=2, seed=0)
        config = PretrainConfig(num_epochs=4, batch_size=8, learning_rate=0.01,
                                max_seq_length=40, seed=0)
        cpc.fit(dataset, config)
        assert len(cpc.history) == 4
        assert cpc.history[-1].mean_loss < cpc.history[0].mean_loss

    def test_embed_shape(self, dataset):
        cpc = CPC(dataset.schema, hidden_size=12, num_horizons=2, seed=0)
        cpc.fit(dataset, FAST)
        emb = cpc.embed(dataset)
        assert emb.shape == (len(dataset), 12)
        assert np.isfinite(emb).all()

    def test_info_nce_better_than_chance_after_training(self, dataset):
        """After fitting, InfoNCE loss should beat log(batch) (chance)."""
        cpc = CPC(dataset.schema, hidden_size=12, num_horizons=2, seed=0)
        config = PretrainConfig(num_epochs=5, batch_size=8, learning_rate=0.01,
                                max_seq_length=40, seed=0)
        cpc.fit(dataset, config)
        assert cpc.history[-1].mean_loss < np.log(8)


class TestPairTasks:
    @pytest.mark.parametrize("cls", [NSP, SOP])
    def test_fit_and_embed(self, cls, dataset):
        encoder = build_encoder(dataset.schema, 12, "gru",
                                rng=np.random.default_rng(0))
        model = cls(encoder, dataset.schema, seed=0)
        model.fit(dataset, FAST)
        assert len(model.history) == 2
        assert np.isfinite([stats.mean_loss for stats in model.history]).all()
        emb = model.embed(dataset)
        assert emb.shape == (len(dataset), 12)

    def test_nsp_pair_semantics(self, dataset):
        """Positive pairs are consecutive; negatives come from other seqs."""
        encoder = build_encoder(dataset.schema, 8, "gru",
                                rng=np.random.default_rng(1))
        model = NSP(encoder, dataset.schema, seed=0)
        rng = np.random.default_rng(0)
        first, second, labels = model._make_pairs(
            dataset.lengths()[:12].tolist(), rng)
        for (row_a, a), (row_b, b), label in zip(first, second, labels):
            if label == 1.0:
                assert row_a == row_b
                assert a[-1] < b[0]
            else:
                assert row_a != row_b

    def test_sop_pair_semantics(self, dataset):
        """SOP pairs always share the entity; the label encodes order."""
        encoder = build_encoder(dataset.schema, 8, "gru",
                                rng=np.random.default_rng(1))
        model = SOP(encoder, dataset.schema, seed=0)
        rng = np.random.default_rng(0)
        first, second, labels = model._make_pairs(
            dataset.lengths()[:12].tolist(), rng)
        assert set(labels) == {0.0, 1.0}
        for (row_a, a), (row_b, b), label in zip(first, second, labels):
            assert row_a == row_b
            in_order = a[-1] < b[0]
            assert in_order == bool(label)

    def test_nsp_loss_stays_near_or_below_chance(self, dataset):
        """NSP is a weak, noisy objective at toy scale (it also trails in
        the paper's Table 6); we only require it not to diverge."""
        encoder = build_encoder(dataset.schema, 12, "gru",
                                rng=np.random.default_rng(1))
        model = NSP(encoder, dataset.schema, seed=0)
        config = PretrainConfig(num_epochs=6, batch_size=10,
                                learning_rate=0.005, max_seq_length=50, seed=0)
        model.fit(dataset, config)
        assert model.history[-1].mean_loss < np.log(2) + 0.15


class TestRTD:
    def test_corrupt_batch_properties(self, dataset):
        batch = collate(dataset.sequences[:6], dataset.schema)
        rng = np.random.default_rng(0)
        fields, replaced = corrupt_batch(batch, dataset.schema, 0.3, rng)
        # Times untouched, replacements only at valid positions.
        np.testing.assert_array_equal(fields["event_time"],
                                      batch.fields["event_time"])
        assert replaced.sum() > 0
        assert not replaced[~batch.mask].any()
        frac = replaced[batch.mask].mean()
        assert 0.15 < frac < 0.45

    def test_corrupt_actually_changes_fields(self, dataset):
        batch = collate(dataset.sequences[:6], dataset.schema)
        rng = np.random.default_rng(1)
        fields, replaced = corrupt_batch(batch, dataset.schema, 0.3, rng)
        rows, cols = np.nonzero(replaced)
        changed = 0
        for r, c in zip(rows, cols):
            for name in ("mcc", "trx_type", "amount"):
                if fields[name][r, c] != batch.fields[name][r, c]:
                    changed += 1
                    break
        # Donor events usually differ in at least one field.
        assert changed > 0.5 * len(rows)

    def test_corrupt_batch_distributions_unchanged(self, dataset):
        """The vectorized donor draw keeps the corruption distributions.

        Contract of the old per-position loop: each valid position is
        chosen independently with ``replace_prob``; each chosen position
        takes its donor uniformly from the *other* rows' valid events;
        times are never touched.  Checked over many trials.
        """
        batch = collate(dataset.sequences[:6], dataset.schema)
        mask = batch.mask
        # Valid event tuples per row (time excluded — donors keep the
        # target's time), to verify every replacement is a real donor
        # event from a different row.
        donor_fields = ("mcc", "trx_type", "amount")
        row_events = []
        for row in range(batch.batch_size):
            cols = np.flatnonzero(mask[row])
            row_events.append({
                tuple(batch.fields[name][row, col] for name in donor_fields)
                for col in cols
            })

        fractions, donor_matches = [], 0
        replaced_total = 0
        counts = np.zeros(mask.shape)
        for trial in range(200):
            rng = np.random.default_rng(1000 + trial)
            fields, replaced = corrupt_batch(batch, dataset.schema, 0.3, rng)
            np.testing.assert_array_equal(fields["event_time"],
                                          batch.fields["event_time"])
            assert not replaced[~mask].any()
            fractions.append(replaced[mask].mean())
            counts += replaced
            for r, c in zip(*np.nonzero(replaced)):
                replaced_total += 1
                event = tuple(fields[name][r, c] for name in donor_fields)
                other_rows = [row for row in range(batch.batch_size)
                              if row != r and event in row_events[row]]
                if other_rows:
                    donor_matches += 1
        # Bernoulli(0.3) per valid position: the mean replacement
        # fraction over 200 trials concentrates tightly around 0.3.
        assert abs(np.mean(fractions) - 0.3) < 0.02
        # Every position is eligible: each valid slot got replaced in
        # some trial, and padding never did.
        assert (counts[mask] > 0).all()
        assert (counts[~mask] == 0).all()
        # Donors are (other-row) valid events.  A donor event could
        # coincidentally equal one of the target row's events, so allow
        # a sliver of ambiguity, not a systematic miss.
        assert donor_matches > 0.99 * replaced_total

    def test_replace_prob_validated(self, dataset):
        batch = collate(dataset.sequences[:2], dataset.schema)
        with pytest.raises(ValueError):
            corrupt_batch(batch, dataset.schema, 0.0, np.random.default_rng(0))

    def test_single_row_batch_uncorrupted(self, dataset):
        batch = collate(dataset.sequences[:1], dataset.schema)
        _, replaced = corrupt_batch(batch, dataset.schema, 0.5,
                                    np.random.default_rng(0))
        assert not replaced.any()

    def test_no_cross_row_donors_leaves_batch_uncorrupted(self, dataset):
        """A hand-built batch whose valid events all sit in one row.

        ``collate`` cannot produce this (it rejects empty sequences),
        but the public ``corrupt_batch`` API can receive it; positions
        without a cross-row donor must be skipped, not spun on forever
        by the redraw loop.
        """
        source = collate(dataset.sequences[:2], dataset.schema)
        batch = type(source)(
            fields=source.fields,
            lengths=np.array([0, source.lengths[1]]),
            seq_ids=source.seq_ids,
            labels=source.labels,
            schema=source.schema,
        )
        fields, replaced = corrupt_batch(batch, dataset.schema, 0.5,
                                         np.random.default_rng(0))
        assert not replaced.any()
        for name in fields:
            np.testing.assert_array_equal(fields[name], batch.fields[name])

    def test_fit_loss_decreases(self, dataset):
        rtd = RTD(dataset.schema, hidden_size=12, seed=0)
        config = PretrainConfig(num_epochs=4, batch_size=8, learning_rate=0.01,
                                max_seq_length=40, seed=0)
        rtd.fit(dataset, config)
        assert rtd.history[-1].mean_loss < rtd.history[0].mean_loss
        assert rtd.embed(dataset).shape == (len(dataset), 12)


class TestSequenceClassifier:
    def test_validation(self, dataset):
        encoder = build_encoder(dataset.schema, 8, "gru")
        with pytest.raises(ValueError):
            SequenceClassifier(encoder, num_classes=1)

    def test_fit_improves_accuracy(self, dataset):
        encoder = build_encoder(dataset.schema, 16, "gru",
                                rng=np.random.default_rng(2))
        clf = SequenceClassifier(encoder, num_classes=2, seed=0)
        labels = dataset.label_array()
        before = (clf.predict(dataset) == labels).mean()
        clf.fit(dataset, FineTuneConfig(num_epochs=10, batch_size=10,
                                        learning_rate=0.01, seed=0))
        after = (clf.predict(dataset) == labels).mean()
        assert after >= max(before, 0.6)
        assert clf.history[-1].mean_loss < clf.history[0].mean_loss

    def test_predict_proba_is_distribution(self, dataset):
        encoder = build_encoder(dataset.schema, 8, "gru")
        clf = SequenceClassifier(encoder, num_classes=2)
        probs = clf.predict_proba(dataset)
        assert probs.shape == (len(dataset), 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(dataset)))

    def test_unlabeled_dataset_raises(self):
        ds = make_churn_dataset(num_clients=10, labeled_fraction=0.0, seed=0)
        encoder = build_encoder(ds.schema, 8, "gru")
        clf = SequenceClassifier(encoder, num_classes=2)
        with pytest.raises(ValueError):
            clf.fit(ds)

    @pytest.mark.parametrize("engine", ["tensor", "fused"])
    def test_encoder_learning_rate_respected(self, dataset, engine):
        """The encoder trains at encoder_learning_rate, not learning_rate.

        Regression test for the silently-ignored ``encoder_learning_rate``
        (one Adam at ``learning_rate`` for *all* parameters): with bias
        correction, one Adam step moves a parameter by at most its
        group's lr — so after exactly one step, encoder deltas must be
        bounded by the (much smaller) encoder rate while the head moves
        on the order of ``learning_rate``.  Adam's scale invariance makes
        the bound immune to gradient clipping.
        """
        encoder_lr, head_lr = 0.001, 0.1
        encoder = build_encoder(dataset.schema, 12, "gru",
                                rng=np.random.default_rng(7))
        clf = SequenceClassifier(encoder, num_classes=2, seed=1)
        before = {name: value.copy()
                  for name, value in encoder.state_dict().items()}
        head_before = clf.head.weight.data.copy()
        config = FineTuneConfig(
            num_epochs=1, batch_size=len(dataset), learning_rate=head_lr,
            encoder_learning_rate=encoder_lr, seed=0)
        # "tensor" steps through the autograd oracle, "fused" the runtime.
        with autograd_steps() if engine == "tensor" else nullcontext():
            clf.fit(dataset, config)
        after = encoder.state_dict()
        deltas = [np.max(np.abs(after[name] - before[name]))
                  for name, param in encoder.named_parameters()]
        max_delta = max(deltas)
        # Bounded by the configured encoder rate (old bug: ~head_lr)...
        assert max_delta <= encoder_lr * 1.001, max_delta
        # ...and the encoder genuinely moved at that rate.
        assert max_delta > 0.5 * encoder_lr
        head_delta = np.max(np.abs(clf.head.weight.data - head_before))
        assert head_delta > 10 * encoder_lr
