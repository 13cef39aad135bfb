"""Tests for negative-sampling strategies (Table 5)."""

import numpy as np
import pytest

from repro.losses import (
    DistanceWeightedSampler,
    HardNegativeMiner,
    RandomNegativeSampler,
)

GROUPS = np.array([0, 0, 1, 1, 2, 2])


def distance_matrix(seed=0, n=6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    d = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
    return d


ALL_SAMPLERS = [
    RandomNegativeSampler(neg_per_anchor=2),
    HardNegativeMiner(neg_per_anchor=2),
    DistanceWeightedSampler(neg_per_anchor=2, embedding_dim=4),
]


class TestCommonContract:
    @pytest.mark.parametrize("sampler", ALL_SAMPLERS, ids=lambda s: type(s).__name__)
    def test_only_cross_group_pairs(self, sampler):
        anchors, negatives = sampler.select(
            distance_matrix(), GROUPS, np.random.default_rng(0)
        )
        assert len(anchors) == len(negatives) > 0
        assert (GROUPS[anchors] != GROUPS[negatives]).all()

    @pytest.mark.parametrize("sampler", ALL_SAMPLERS, ids=lambda s: type(s).__name__)
    def test_respects_neg_per_anchor(self, sampler):
        anchors, _ = sampler.select(
            distance_matrix(), GROUPS, np.random.default_rng(1)
        )
        counts = np.bincount(anchors, minlength=6)
        assert counts.max() <= 2

    @pytest.mark.parametrize("sampler", ALL_SAMPLERS, ids=lambda s: type(s).__name__)
    def test_single_group_raises(self, sampler):
        with pytest.raises(ValueError):
            sampler.select(np.zeros((4, 4)), np.zeros(4, dtype=int),
                           np.random.default_rng(0))

    def test_neg_per_anchor_validated(self):
        with pytest.raises(ValueError):
            RandomNegativeSampler(neg_per_anchor=0)


class TestHardMining:
    def test_selects_closest(self):
        d = np.full((4, 4), 10.0)
        np.fill_diagonal(d, 0.0)
        d[0, 2] = 1.0  # closest cross-group partner of anchor 0
        d[0, 3] = 5.0
        groups = np.array([0, 0, 1, 1])
        miner = HardNegativeMiner(neg_per_anchor=1)
        anchors, negatives = miner.select(d, groups, np.random.default_rng(0))
        picked = dict(zip(anchors.tolist(), negatives.tolist()))
        assert picked[0] == 2

    def test_order_of_hardness(self):
        d = distance_matrix(3)
        miner = HardNegativeMiner(neg_per_anchor=4)
        anchors, negatives = miner.select(d, GROUPS, np.random.default_rng(0))
        for anchor in np.unique(anchors):
            partner_d = d[anchor, negatives[anchors == anchor]]
            assert (np.diff(partner_d) >= 0).all()  # sorted ascending


    @pytest.mark.parametrize("seed", range(24))
    def test_matches_a_per_anchor_stable_sort(self, seed):
        """Equal to a per-anchor loop under the tie rule, dtypes included.

        Duplicated embeddings (identical views) and rounded distances
        plant ties; a large ``neg_per_anchor`` leaves some anchors with
        fewer partners than it asks for.
        """
        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 40))
        groups = rng.integers(0, int(rng.integers(2, 8)), size=size)
        groups[:2] = [0, 1]  # at least two groups
        points = rng.standard_normal((size, 3))
        points[rng.integers(0, size, size=size // 3)] = points[
            rng.integers(0, size, size=size // 3)]
        d = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
        if seed % 2:
            d = np.round(d, 1)
        k = int(rng.integers(1, 12))
        anchors, negatives = HardNegativeMiner(k).select(d, groups, rng)
        want_anchors, want_negatives = [], []
        for anchor in range(size):
            partners = np.flatnonzero(groups != groups[anchor])
            order = np.argsort(d[anchor, partners], kind="stable")[:k]
            want_anchors += [anchor] * len(order)
            want_negatives += partners[order].tolist()
        assert anchors.dtype == negatives.dtype == np.int64
        np.testing.assert_array_equal(anchors, want_anchors)
        np.testing.assert_array_equal(negatives, want_negatives)

    def test_ties_take_the_lower_index_and_short_rows_take_all(self):
        d = np.ones((5, 5))
        groups = np.array([0, 0, 0, 1, 1])
        anchors, negatives = HardNegativeMiner(3).select(
            d, groups, np.random.default_rng(0))
        assert anchors.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4]
        assert negatives.tolist() == [3, 4, 3, 4, 3, 4, 0, 1, 2, 0, 1, 2]


class TestDistanceWeighted:
    def test_weights_prefer_moderate_distances(self):
        """Inverse-density weights must not concentrate on sqrt(2)."""
        sampler = DistanceWeightedSampler(embedding_dim=64, cutoff=0.5)
        d = np.array([0.6, 1.0, 1.414, 1.9])
        log_w = sampler._log_weights(d, 64)
        # The typical distance sqrt(2) is most likely under q, so it must
        # get the *lowest* weight.
        assert log_w.argmin() == 2

    def test_cutoff_floors_distance(self):
        sampler = DistanceWeightedSampler(embedding_dim=8, cutoff=0.5)
        w_small = sampler._log_weights(np.array([1e-6]), 8)
        w_cut = sampler._log_weights(np.array([0.5]), 8)
        np.testing.assert_allclose(w_small, w_cut)

    def test_sampling_is_stochastic(self):
        sampler = DistanceWeightedSampler(neg_per_anchor=1, embedding_dim=4)
        d = distance_matrix(5)
        first = sampler.select(d, GROUPS, np.random.default_rng(0))[1]
        draws = [
            sampler.select(d, GROUPS, np.random.default_rng(s))[1].tolist()
            for s in range(10)
        ]
        assert any(draw != first.tolist() for draw in draws)
