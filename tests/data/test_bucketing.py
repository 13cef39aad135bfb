"""The length-bucketed batch planner: coverage, ordering, padding wins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augmentations import RandomSlices
from repro.core.batching import coles_batches
from repro.data import iterate_batches
from repro.data.bucketing import (
    BUDGET_STEPS,
    bucketed_order,
    epoch_plan,
    iterate_bucketed_batches,
    padded_step_fraction,
    plan_batches,
    plan_cell_batches,
)
from repro.data.synthetic import make_churn_dataset


@pytest.fixture(scope="module")
def skewed_lengths():
    rng = np.random.default_rng(0)
    return np.concatenate([
        rng.integers(5, 15, size=60),
        rng.integers(50, 70, size=30),
        rng.integers(200, 400, size=10),
    ])


class TestPlan:
    def test_covers_every_index_once(self, skewed_lengths):
        for window in (None, 1, 4):
            batches = plan_batches(skewed_lengths, 16, shuffle=True,
                                   rng=np.random.default_rng(1),
                                   window_batches=window)
            flat = np.concatenate(batches)
            assert sorted(flat.tolist()) == list(range(len(skewed_lengths)))

    def test_global_sort_when_no_window(self, skewed_lengths):
        batches = plan_batches(skewed_lengths, 16)
        order = np.concatenate(batches)
        assert (np.diff(skewed_lengths[order]) <= 0).all()

    def test_windows_sorted_internally(self, skewed_lengths):
        window = 2
        batch_size = 8
        order = bucketed_order(skewed_lengths, batch_size,
                               rng=np.random.default_rng(2),
                               window_batches=window)
        span = window * batch_size
        for start in range(0, len(order), span):
            chunk = skewed_lengths[order[start:start + span]]
            assert (np.diff(chunk) <= 0).all()

    def test_drop_last(self, skewed_lengths):
        batches = plan_batches(skewed_lengths, 16, drop_last=True)
        assert all(len(chunk) == 16 for chunk in batches)

    def test_validation(self, skewed_lengths):
        with pytest.raises(ValueError):
            plan_batches(skewed_lengths, 0)
        with pytest.raises(ValueError):
            plan_batches(skewed_lengths, 8, window_batches=0)

    def test_bucketing_reduces_padding(self, skewed_lengths):
        rng = np.random.default_rng(3)
        shuffled = np.arange(len(skewed_lengths))
        rng.shuffle(shuffled)
        naive = [shuffled[start:start + 16]
                 for start in range(0, len(shuffled), 16)]
        bucketed = plan_batches(skewed_lengths, 16, shuffle=True,
                                rng=np.random.default_rng(3),
                                window_batches=2)
        global_sort = plan_batches(skewed_lengths, 16)
        waste_naive = padded_step_fraction(skewed_lengths, naive)
        waste_bucketed = padded_step_fraction(skewed_lengths, bucketed)
        waste_global = padded_step_fraction(skewed_lengths, global_sort)
        assert waste_bucketed < waste_naive
        assert waste_global <= waste_bucketed

    def test_padded_step_fraction_ignores_empty_chunks(self, skewed_lengths):
        """An empty chunk pads nothing: same answer as without it."""
        plan = [np.array([0, 1]), np.array([2, 3])]
        with_empty = plan[:1] + [np.array([], dtype=int)] + plan[1:]
        reference = padded_step_fraction(skewed_lengths, plan)
        assert padded_step_fraction(skewed_lengths, with_empty) == reference

    def test_padded_step_fraction_all_empty(self):
        """A plan of only empty chunks is zero waste, not a crash."""
        assert padded_step_fraction([], [np.array([], dtype=int)]) == 0.0
        assert padded_step_fraction([5, 3], []) == 0.0


class TestCellPlan:
    """The bulk plan: the global longest-first order, cut by padded cells."""

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(0, 3 * BUDGET_STEPS), max_size=300),
           batch_size=st.integers(1, 70))
    def test_cells_rows_and_coverage(self, lengths, batch_size):
        lengths = np.array(lengths, dtype=np.int64)
        batches = plan_cell_batches(lengths, batch_size)
        order = np.concatenate(batches) if batches else np.zeros(0, int)
        # Every index once, in the row plan's stable longest-first order.
        np.testing.assert_array_equal(
            order, np.concatenate(plan_batches(lengths, batch_size))
            if len(lengths) else order)
        remaining = len(lengths)
        for chunk in batches:
            assert len(chunk) >= min(batch_size, remaining)
            remaining -= len(chunk)
            longest = int(lengths[chunk].max())
            assert len(chunk) * longest <= max(batch_size * BUDGET_STEPS,
                                               batch_size * longest)
        assert remaining == 0

    def test_short_rows_ride_wide_and_long_rows_keep_batch_size(self):
        lengths = [2 * BUDGET_STEPS] * 6 + [BUDGET_STEPS // 4] * 30
        sizes = [len(chunk) for chunk in plan_cell_batches(lengths, 2)]
        assert sizes == [2, 2, 2, 8, 8, 8, 6]

    def test_empty_and_validation(self):
        assert plan_cell_batches([], 8) == []
        with pytest.raises(ValueError):
            plan_cell_batches([3, 2], 0)

    def test_zero_length_rows_plan_without_dividing(self):
        """A zero-length row is planned; collate is what rejects it."""
        batches = plan_cell_batches([0, 4, 0], 1)
        assert sorted(np.concatenate(batches).tolist()) == [0, 1, 2]


class TestEpochPlan:
    def test_no_window_is_one_shuffle_draw(self, skewed_lengths):
        """Without a window the plan is the rng's permutation, chunked."""
        chunks = epoch_plan(skewed_lengths, 16, rng=np.random.default_rng(4))
        expected = np.random.default_rng(4).permutation(len(skewed_lengths))
        np.testing.assert_array_equal(np.concatenate(chunks), expected)
        assert [len(chunk) for chunk in chunks] == [16] * 6 + [4]

    def test_window_matches_the_bucketed_planner(self, skewed_lengths):
        """With a window the plan is the shuffled, window-sorted planner's."""
        got = epoch_plan(skewed_lengths, 8, rng=np.random.default_rng(6),
                         bucket_window=2)
        want = plan_batches(skewed_lengths, 8, rng=np.random.default_rng(6),
                            shuffle=True, window_batches=2)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]
        for chunk in got:
            assert (np.diff(skewed_lengths[chunk]) <= 0).all()

    def test_unshuffled_and_drop_last(self, skewed_lengths):
        chunks = epoch_plan(skewed_lengths, 16, shuffle=False, drop_last=True)
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(96))

    def test_validation(self, skewed_lengths):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            epoch_plan(skewed_lengths, 0, rng=rng)
        with pytest.raises(ValueError):
            epoch_plan(skewed_lengths, 8, rng=rng, bucket_window=0)


class TestIterators:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_churn_dataset(num_clients=30, mean_length=40,
                                  min_length=5, max_length=120, seed=0)

    def test_iterate_bucketed_batches_covers_dataset(self, dataset):
        seen = []
        for batch in iterate_bucketed_batches(dataset.sequences,
                                              dataset.schema, 8,
                                              rng=np.random.default_rng(0)):
            assert batch.max_length == batch.lengths.max()
            seen.extend(batch.seq_ids.tolist())
        assert sorted(seen) == sorted(s.seq_id for s in dataset)

    def test_iterate_batches_delegates(self, dataset):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        direct = [b.seq_ids.tolist() for b in iterate_bucketed_batches(
            dataset.sequences, dataset.schema, 8, rng=rng_a,
            window_batches=2)]
        via = [b.seq_ids.tolist() for b in iterate_batches(
            dataset, 8, rng=rng_b, bucket_window=2)]
        assert direct == via

    def test_coles_batches_bucketed_keeps_pair_semantics(self, dataset):
        strategy = RandomSlices(5, 40, 3)
        rng = np.random.default_rng(0)
        entity_ids = set()
        for batch in coles_batches(dataset, strategy, 8, rng,
                                   bucket_window=2):
            ids, counts = np.unique(batch.seq_ids, return_counts=True)
            assert len(ids) >= 2            # negatives exist
            assert (counts >= 2).all()      # every entity has >= 2 views
            entity_ids.update(ids.tolist())
        assert len(entity_ids) == len(dataset)
