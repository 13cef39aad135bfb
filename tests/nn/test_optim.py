"""Tests for SGD/Adam optimizers, gradient clipping and schedulers."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, SGD, StepLR, Tensor, clip_grad_norm


def quadratic_loss(param):
    return ((param - Tensor(np.array([1.0, -2.0]))) ** 2).sum()


class TestSGD:
    def test_single_step_matches_formula(self):
        p = Parameter(np.array([0.0, 0.0]))
        opt = SGD([p], lr=0.1)
        loss = quadratic_loss(p)
        loss.backward()
        opt.step()
        # grad = 2(p - target) = [-2, 4]
        np.testing.assert_allclose(p.data, [0.2, -0.4])

    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(2))
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0], atol=1e-6)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.zeros(2))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                quadratic_loss(p).backward()
                opt.step()
            return float(quadratic_loss(p).data)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert abs(p.data[0]) < 10.0

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        opt.step()  # no backward happened
        np.testing.assert_allclose(p.data, np.ones(2))


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0], atol=1e-4)

    def test_first_step_size_is_lr(self):
        """With bias correction the first Adam step has magnitude ~lr."""
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.01)
        opt.zero_grad()
        (p * 3.0).sum().backward()
        opt.step()
        np.testing.assert_allclose(p.data, [5.0 - 0.01], rtol=1e-6)

    def test_invariant_to_gradient_scale(self):
        """Adam normalises by second moment: scaled loss gives same step."""

        def first_step(scale):
            p = Parameter(np.array([1.0]))
            opt = Adam([p], lr=0.05)
            (p * scale).sum().backward()
            opt.step()
            return p.data[0]

        np.testing.assert_allclose(first_step(1.0), first_step(100.0), rtol=1e-6)


class TestParamGroups:
    """Per-group learning rates (the fine-tuning encoder/head split)."""

    def test_sgd_groups_step_at_their_own_rate(self):
        slow = Parameter(np.zeros(2))
        fast = Parameter(np.zeros(2))
        opt = SGD([{"params": [slow], "lr": 0.01},
                   {"params": [fast], "lr": 0.1}], lr=0.5)
        for p in (slow, fast):
            p.grad = np.ones(2)
        opt.step()
        np.testing.assert_allclose(slow.data, [-0.01, -0.01])
        np.testing.assert_allclose(fast.data, [-0.1, -0.1])

    def test_adam_first_step_magnitude_is_group_lr(self):
        slow = Parameter(np.array([5.0]))
        fast = Parameter(np.array([5.0]))
        opt = Adam([{"params": [slow], "lr": 0.001},
                    {"params": [fast], "lr": 0.1}], lr=0.5)
        slow.grad = np.array([3.0])
        fast.grad = np.array([3.0])
        opt.step()
        np.testing.assert_allclose(slow.data, [5.0 - 0.001], rtol=1e-6)
        np.testing.assert_allclose(fast.data, [5.0 - 0.1], rtol=1e-6)

    def test_group_without_lr_inherits_default(self):
        p = Parameter(np.zeros(1))
        opt = SGD([{"params": [p]}], lr=0.25)
        p.grad = np.ones(1)
        opt.step()
        np.testing.assert_allclose(p.data, [-0.25])

    def test_flat_list_is_one_group(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=0.1)
        assert len(opt.param_groups) == 1
        assert opt.param_groups[0]["params"] == [p]
        assert opt.lr == 0.1

    def test_lr_setter_applies_to_all_groups(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        opt = SGD([{"params": [a], "lr": 0.01},
                   {"params": [b], "lr": 0.1}], lr=0.5)
        opt.lr = 0.2
        assert [g["lr"] for g in opt.param_groups] == [0.2, 0.2]

    def test_empty_groups_raise(self):
        with pytest.raises(ValueError):
            SGD([{"params": [], "lr": 0.1}], lr=0.1)

    def test_step_lr_preserves_group_ratios(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        opt = SGD([{"params": [a], "lr": 0.01},
                   {"params": [b], "lr": 0.1}], lr=0.1)
        sched = StepLR(opt, step_size=1, gamma=0.5)
        sched.step()
        np.testing.assert_allclose([g["lr"] for g in opt.param_groups],
                                   [0.005, 0.05])


class TestClipping:
    def test_clip_reduces_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        total = clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(total, 20.0)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0)

    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])

    def test_handles_missing_grads(self):
        p = Parameter(np.zeros(2))
        assert clip_grad_norm([p], 1.0) == 0.0

    def test_negative_max_norm_rejected(self):
        """A negative bound would flip every gradient, so Adam climbs the loss.

        ``[3, 4, 0]`` must not silently become ``[-0.6, -0.8, -0]``.
        """
        p = Parameter(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])
        with pytest.raises(ValueError, match="max_norm"):
            clip_grad_norm([p], -1.0)
        np.testing.assert_array_equal(p.grad, [3.0, 4.0, 0.0])


class TestScheduler:
    def test_step_lr_halves(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.5)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5
        sched.step()
        sched.step()
        assert opt.lr == 0.25
