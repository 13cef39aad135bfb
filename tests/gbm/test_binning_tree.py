"""Tests for quantile binning and the histogram regression tree."""

import numpy as np
import pytest

from repro.gbm import BinMapper, RegressionTree, TreeParams

RNG = np.random.default_rng(0)


class TestBinMapper:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinMapper(max_bins=1)
        with pytest.raises(ValueError):
            BinMapper(max_bins=500)
        with pytest.raises(ValueError):
            BinMapper().fit(np.zeros(5))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BinMapper().transform(np.zeros((2, 2)))

    def test_bins_monotone_with_values(self):
        x = np.sort(RNG.standard_normal(200))[:, None]
        mapper = BinMapper(max_bins=16).fit(x)
        binned = mapper.transform(x)[:, 0]
        assert (np.diff(binned.astype(int)) >= 0).all()
        assert binned.max() <= 15

    def test_quantile_bins_roughly_balanced(self):
        x = RNG.standard_normal((1000, 1))
        mapper = BinMapper(max_bins=10).fit(x)
        binned = mapper.transform(x)[:, 0]
        counts = np.bincount(binned)
        assert counts.min() > 50  # ~100 each for 10 bins

    def test_constant_feature_single_bin(self):
        x = np.ones((50, 1))
        mapper = BinMapper(max_bins=8).fit(x)
        assert (mapper.transform(x) == 0).all()
        assert mapper.num_bins[0] == 1

    def test_width_mismatch_raises(self):
        mapper = BinMapper().fit(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            mapper.transform(np.zeros((5, 2)))

    def test_unseen_extremes_clamp_to_outer_bins(self):
        x = RNG.standard_normal((100, 1))
        mapper = BinMapper(max_bins=8).fit(x)
        out = mapper.transform(np.array([[-100.0], [100.0]]))
        assert out[0, 0] == 0
        assert out[1, 0] == mapper.num_bins[0] - 1


class TestRegressionTree:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            TreeParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeParams(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeParams(reg_lambda=-1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((2, 2), dtype=np.uint8))

    def test_fits_a_step_function(self):
        """A depth-1 tree must find the obvious split."""
        binned = np.repeat(np.arange(10, dtype=np.uint8), 20)[:, None]
        gradients = np.where(binned[:, 0] < 5, -1.0, 1.0)  # target +1 then -1
        hessians = np.ones(len(binned))
        tree = RegressionTree(TreeParams(max_depth=1, min_samples_leaf=5,
                                         reg_lambda=0.0))
        tree.fit(binned, gradients, hessians)
        assert tree.root_.feature == 0
        assert tree.root_.threshold_bin == 4
        preds = tree.predict(binned)
        np.testing.assert_allclose(preds[binned[:, 0] < 5], 1.0, rtol=1e-9)
        np.testing.assert_allclose(preds[binned[:, 0] >= 5], -1.0, rtol=1e-9)

    def test_leaf_value_newton_step(self):
        """leaf = -G/(H+lambda)."""
        binned = np.zeros((10, 1), dtype=np.uint8)
        gradients = np.full(10, 3.0)
        hessians = np.full(10, 2.0)
        tree = RegressionTree(TreeParams(max_depth=2, reg_lambda=1.0))
        tree.fit(binned, gradients, hessians)
        np.testing.assert_allclose(tree.predict(binned),
                                   -30.0 / (20.0 + 1.0))

    def test_max_depth_respected(self):
        binned = RNG.integers(0, 32, size=(300, 4)).astype(np.uint8)
        gradients = RNG.standard_normal(300)
        tree = RegressionTree(TreeParams(max_depth=3, min_samples_leaf=2))
        tree.fit(binned, gradients, np.ones(300))
        assert tree.depth() <= 3

    def test_min_samples_leaf_respected(self):
        binned = np.arange(20, dtype=np.uint8)[:, None]
        gradients = RNG.standard_normal(20)
        tree = RegressionTree(TreeParams(max_depth=8, min_samples_leaf=8))
        tree.fit(binned, gradients, np.ones(20))

        def check(node, rows):
            if node.is_leaf:
                assert len(rows) >= 8
                return
            left = rows[binned[rows, node.feature] <= node.threshold_bin]
            right = rows[binned[rows, node.feature] > node.threshold_bin]
            check(node.left, left)
            check(node.right, right)

        check(tree.root_, np.arange(20))

    def test_picks_informative_feature(self):
        binned = np.zeros((200, 3), dtype=np.uint8)
        binned[:, 0] = RNG.integers(0, 16, 200)  # noise
        binned[:, 2] = RNG.integers(0, 16, 200)  # signal
        gradients = np.where(binned[:, 2] < 8, -1.0, 1.0)
        tree = RegressionTree(TreeParams(max_depth=1))
        tree.fit(binned, gradients, np.ones(200))
        assert tree.root_.feature == 2

    def test_constant_gradients_make_stump(self):
        binned = RNG.integers(0, 8, size=(50, 2)).astype(np.uint8)
        tree = RegressionTree(TreeParams(max_depth=4))
        tree.fit(binned, np.zeros(50), np.ones(50))
        assert tree.depth() == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((5, 1), dtype=np.uint8),
                                 np.zeros(4), np.ones(5))

    def test_split_search_matches_the_per_feature_loop(self):
        """The feature-major split search returns exactly what one
        histogram per feature, scanned in feature order, returns: the
        same sums in the same order, and ties to the lowest feature,
        then the lowest bin.  Codes are sparse (some bins, low ones
        too, are empty), some features copy feature 0 (tied gains) and
        some are constant."""
        rng = np.random.default_rng(7)
        for _ in range(150):
            rows, features = rng.integers(10, 200), rng.integers(1, 12)
            width = int(rng.integers(2, 65))
            levels = np.sort(rng.choice(64, width, replace=False))
            binned = levels[rng.integers(0, width, size=(rows, features))]
            binned[:, rng.random(features) < 0.2] = binned[:, :1]
            binned[:, rng.random(features) < 0.1] = rng.integers(0, 3)
            binned = binned.astype(np.uint8)
            gradients = np.round(rng.standard_normal(rows), rng.integers(1, 4))
            hessians = rng.uniform(0.05, 0.25, rows)
            indices = np.flatnonzero(rng.random(rows) < 0.8)
            if len(indices) < 2:
                continue
            params = TreeParams(min_samples_leaf=int(rng.integers(1, 6)),
                                reg_lambda=float(rng.choice([0.0, 0.5, 1.0])))
            grad_sum = gradients[indices].sum()
            hess_sum = hessians[indices].sum()
            assert RegressionTree(params)._best_split(
                binned, gradients, hessians, indices, grad_sum, hess_sum
            ) == _loop_best_split(params, binned, gradients, hessians,
                                  indices, grad_sum, hess_sum)


def _loop_best_split(params, binned, gradients, hessians, indices,
                     grad_sum, hess_sum):
    """Reference split search: one histogram per feature, in a loop."""
    reg = params.reg_lambda
    parent_score = grad_sum * grad_sum / (hess_sum + reg)
    best, best_gain = None, params.min_gain
    for feature in range(binned.shape[1]):
        codes = binned[indices, feature]
        top = int(codes.max())
        if top == 0:
            continue  # constant feature in this node
        grad_left = np.cumsum(
            np.bincount(codes, gradients[indices], top + 1))[:-1]
        hess_left = np.cumsum(
            np.bincount(codes, hessians[indices], top + 1))[:-1]
        count_left = np.cumsum(np.bincount(codes, minlength=top + 1))[:-1]
        valid = ((count_left >= params.min_samples_leaf)
                 & (len(indices) - count_left >= params.min_samples_leaf))
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = (grad_left**2 / (hess_left + reg)
                     + (grad_sum - grad_left)**2 / (hess_sum - hess_left + reg)
                     - parent_score)
        gains[~valid] = -np.inf
        pick = int(np.argmax(gains))
        if gains[pick] > best_gain:
            best_gain = gains[pick]
            best = (feature, pick, float(gains[pick]))
    return best
