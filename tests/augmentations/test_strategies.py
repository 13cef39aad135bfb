"""Tests for the three sub-sequence generation strategies (Table 2),
including hypothesis property tests of Algorithm 1's invariants.

A strategy draws each view as a sorted array of positions into a
sequence of the given length; ``collate`` gathers the views' events."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augmentations import DisjointSlices, RandomSamples, RandomSlices
from repro.data import EventSchema, EventSequence, SequenceDataset, collate

SCHEMA = EventSchema(categorical={"mcc": 6}, numerical=("amount",))


def make_sequence(length):
    return EventSequence(
        seq_id=1,
        fields={
            "event_time": np.arange(length, dtype=float),
            "mcc": np.arange(length) % 5 + 1,
            "amount": np.arange(length, dtype=float) * 10,
        },
        label=3,
    )


def assert_positions(views, length):
    """Every view is a sorted, duplicate-free int64 array in [0, length)."""
    for view in views:
        assert view.dtype == np.int64
        assert len(view) >= 1
        assert (np.diff(view) > 0).all()
        assert 0 <= view[0] and view[-1] < length


class TestValidation:
    def test_bad_min_length(self):
        with pytest.raises(ValueError):
            RandomSlices(0, 10, 5)

    def test_bad_max_length(self):
        with pytest.raises(ValueError):
            RandomSlices(10, 5, 5)

    def test_bad_num_samples(self):
        with pytest.raises(ValueError):
            RandomSlices(1, 10, 0)


class TestRandomSlices:
    def test_lengths_within_bounds(self):
        strategy = RandomSlices(5, 20, 50)
        rng = np.random.default_rng(0)
        views = strategy.sample(60, rng)
        assert_positions(views, 60)
        for piece in views:
            assert 5 <= len(piece) <= 20

    def test_slices_are_contiguous(self):
        strategy = RandomSlices(3, 30, 30)
        rng = np.random.default_rng(1)
        for piece in strategy.sample(50, rng):
            np.testing.assert_array_equal(np.diff(piece), 1)

    def test_keeps_seq_id_and_label(self):
        strategy = RandomSlices(2, 10, 5)
        rng = np.random.default_rng(2)
        dataset = SequenceDataset([make_sequence(20)], SCHEMA)
        views = strategy.sample(20, rng)
        batch = collate(dataset, rows=[0] * len(views), positions=views)
        assert batch.seq_ids.tolist() == [1] * len(views)
        assert batch.labels.tolist() == [3] * len(views)
        for row, piece in enumerate(views):
            np.testing.assert_array_equal(
                batch.fields["event_time"][row, :len(piece)], piece)

    def test_rejection_can_return_fewer(self):
        # min=40 on a length-50 sequence: most draws of U[1,50] rejected.
        strategy = RandomSlices(40, 45, 10)
        rng = np.random.default_rng(3)
        pieces = strategy.sample(50, rng)
        assert len(pieces) < 10

    def test_empty_sequence(self):
        assert RandomSlices(1, 5, 3).sample(0, np.random.default_rng(0)) == []

    def test_guaranteed_always_returns_k(self):
        strategy = RandomSlices(40, 60, 5)
        rng = np.random.default_rng(4)
        pieces = strategy.sample_guaranteed(10, rng)
        assert len(pieces) == 5
        assert_positions(pieces, 10)

    @settings(max_examples=30, deadline=None)
    @given(
        total=st.integers(5, 120),
        min_len=st.integers(1, 20),
        extra=st.integers(0, 30),
        seed=st.integers(0, 10_000),
    )
    def test_algorithm1_invariants(self, total, min_len, extra, seed):
        """Property test of Algorithm 1: every emitted slice has length in
        [m, M] and is a contiguous window of the input."""
        strategy = RandomSlices(min_len, min_len + extra, 8)
        rng = np.random.default_rng(seed)
        views = strategy.sample(total, rng)
        assert_positions(views, total)
        for piece in views:
            assert min_len <= len(piece) <= min_len + extra
            start = int(piece[0])
            np.testing.assert_array_equal(
                piece, np.arange(start, start + len(piece))
            )


class TestRandomSamples:
    def test_preserves_order_but_not_contiguity(self):
        strategy = RandomSamples(10, 30, 50)
        rng = np.random.default_rng(5)
        saw_gap = False
        for piece in strategy.sample(60, rng):
            assert (np.diff(piece) > 0).all()  # order preserved
            if (np.diff(piece) > 1).any():
                saw_gap = True
        assert saw_gap  # at least one subset is non-contiguous

    def test_no_duplicates(self):
        strategy = RandomSamples(5, 40, 20)
        rng = np.random.default_rng(6)
        views = strategy.sample(40, rng)
        assert_positions(views, 40)
        for piece in views:
            assert len(np.unique(piece)) == len(piece)

    def test_lengths_within_bounds(self):
        strategy = RandomSamples(5, 15, 40)
        rng = np.random.default_rng(7)
        for piece in strategy.sample(50, rng):
            assert 5 <= len(piece) <= 15


class TestDisjointSlices:
    def test_segments_disjoint_and_ordered(self):
        strategy = DisjointSlices(1, 100, 5)
        rng = np.random.default_rng(8)
        pieces = strategy.sample(50, rng)
        assert 1 <= len(pieces) <= 5
        assert_positions(pieces, 50)
        covered = np.concatenate(pieces)
        assert len(np.unique(covered)) == len(covered)  # no overlap

    def test_full_cover_when_no_length_filter(self):
        strategy = DisjointSlices(1, 100, 4)
        rng = np.random.default_rng(9)
        pieces = strategy.sample(30, rng)
        total = sum(len(p) for p in pieces)
        assert total == 30  # partition covers the sequence

    def test_length_filter_applies(self):
        strategy = DisjointSlices(5, 8, 4)
        rng = np.random.default_rng(10)
        for piece in strategy.sample(40, rng):
            assert 5 <= len(piece) <= 8

    def test_short_sequence_fallback(self):
        strategy = DisjointSlices(1, 10, 5)
        pieces = strategy.sample(3, np.random.default_rng(0))
        assert len(pieces) == 1
        np.testing.assert_array_equal(pieces[0], [0, 1, 2])

    @settings(max_examples=25, deadline=None)
    @given(total=st.integers(6, 100), seed=st.integers(0, 1000))
    def test_segments_never_overlap_property(self, total, seed):
        strategy = DisjointSlices(1, total, 5)
        rng = np.random.default_rng(seed)
        pieces = strategy.sample(total, rng)
        assert_positions(pieces, total)
        covered = np.concatenate(pieces)
        assert len(np.unique(covered)) == len(covered)
