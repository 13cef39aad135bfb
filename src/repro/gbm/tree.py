"""Regression trees on binned features with second-order (Newton) leaves.

Each tree fits the per-sample gradients/hessians of the boosting objective.
Split gain and leaf values follow the XGBoost/LightGBM formulation:

    leaf value = -G / (H + lambda)
    gain       = G_L²/(H_L+lambda) + G_R²/(H_R+lambda) - G²/(H+lambda)

Histograms over bin codes make each split search O(n + bins) per feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TreeParams", "RegressionTree"]


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 3
    min_samples_leaf: int = 5
    reg_lambda: float = 1.0
    min_gain: float = 1e-6

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")


class _Node:
    __slots__ = ("feature", "threshold_bin", "left", "right", "value")

    def __init__(self, value=0.0):
        self.feature = -1
        self.threshold_bin = -1
        self.left = None
        self.right = None
        self.value = value

    @property
    def is_leaf(self):
        return self.left is None


class RegressionTree:
    """One boosting tree; operates on uint8-binned features."""

    def __init__(self, params=None):
        self.params = params or TreeParams()
        self.root_ = None
        self.num_leaves_ = 0

    # ------------------------------------------------------------------
    def fit(self, binned, gradients, hessians):
        binned = np.asarray(binned)
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        if binned.ndim != 2:
            raise ValueError("binned features must be 2-D")
        if len(binned) != len(gradients) or len(binned) != len(hessians):
            raise ValueError("rows/gradients/hessians length mismatch")
        indices = np.arange(len(binned))
        self.num_leaves_ = 0
        self.root_ = self._grow(binned, gradients, hessians, indices, depth=0)
        return self

    def _leaf_value(self, grad_sum, hess_sum):
        return -grad_sum / (hess_sum + self.params.reg_lambda)

    def _grow(self, binned, gradients, hessians, indices, depth):
        grad_sum = gradients[indices].sum()
        hess_sum = hessians[indices].sum()
        node = _Node(self._leaf_value(grad_sum, hess_sum))
        if depth >= self.params.max_depth or len(indices) < 2 * self.params.min_samples_leaf:
            self.num_leaves_ += 1
            return node

        best = self._best_split(binned, gradients, hessians, indices,
                                grad_sum, hess_sum)
        if best is None:
            self.num_leaves_ += 1
            return node

        feature, threshold_bin, _ = best
        goes_left = binned[indices, feature] <= threshold_bin
        node.feature = feature
        node.threshold_bin = threshold_bin
        node.left = self._grow(binned, gradients, hessians,
                               indices[goes_left], depth + 1)
        node.right = self._grow(binned, gradients, hessians,
                                indices[~goes_left], depth + 1)
        return node

    def _best_split(self, binned, gradients, hessians, indices,
                    grad_sum, hess_sum):
        """Histogram split search; returns (feature, bin, gain) or None.

        One feature-major histogram per node, bin ``code + feature *
        width``; ``argmax`` keeps the lowest feature, then bin, on ties.
        """
        params = self.params
        reg = params.reg_lambda
        parent_score = grad_sum * grad_sum / (hess_sum + reg)
        rows = binned[indices]
        count, features = rows.shape
        width = int(rows.max()) + 1
        bins = (rows + np.arange(0, features * width, width)).ravel()
        size = features * width
        grad_left, hess_left, count_left = (
            np.cumsum(hist.reshape(features, width), axis=1)[:, :-1]
            for hist in (
                np.bincount(bins, np.repeat(gradients[indices], features),
                            size),
                np.bincount(bins, np.repeat(hessians[indices], features),
                            size),
                np.bincount(bins, minlength=size)))
        valid = (count_left >= params.min_samples_leaf) & (
            count - count_left >= params.min_samples_leaf
        )
        if not valid.any():
            return None
        grad_left, hess_left = grad_left[valid], hess_left[valid]
        grad_right = grad_sum - grad_left
        hess_right = hess_sum - hess_left
        gains = (
            grad_left**2 / (hess_left + reg)
            + grad_right**2 / (hess_right + reg)
            - parent_score
        )
        gains[np.isnan(gains)] = -np.inf
        pick = int(np.argmax(gains))
        if not gains[pick] > params.min_gain:
            return None
        feature, bin_ = divmod(int(np.flatnonzero(valid)[pick]), width - 1)
        return feature, bin_, float(gains[pick])

    # ------------------------------------------------------------------
    def predict(self, binned):
        if self.root_ is None:
            raise RuntimeError("tree is not fitted")
        binned = np.asarray(binned)
        out = np.zeros(len(binned))
        # Iterative routing: stack of (node, row indices).
        stack = [(self.root_, np.arange(len(binned)))]
        while stack:
            node, rows = stack.pop()
            if len(rows) == 0:
                continue
            if node.is_leaf:
                out[rows] = node.value
                continue
            goes_left = binned[rows, node.feature] <= node.threshold_bin
            stack.append((node.left, rows[goes_left]))
            stack.append((node.right, rows[~goes_left]))
        return out

    def depth(self):
        """Actual tree depth (0 for a stump that never split)."""

        def walk(node):
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)
