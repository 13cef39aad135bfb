"""Optimizers: SGD with momentum, Adam, gradient clipping, LR schedules."""

from __future__ import annotations

import numpy as np

__all__ = ["SGD", "Adam", "clip_grad_norm", "StepLR"]


class Optimizer:
    """Base class holding parameter groups with per-group learning rates.

    ``parameters`` is either a flat iterable of parameters (one group at
    ``lr``) or an iterable of dicts ``{"params": [...], "lr": ...}`` —
    the ``torch.optim`` parameter-group contract.  A group without its
    own ``lr`` inherits the optimizer default.  Fine-tuning uses this to
    update a pre-trained encoder more gently than its fresh head.
    """

    def __init__(self, parameters, lr):
        entries = list(parameters)
        if entries and isinstance(entries[0], dict):
            self.param_groups = [
                {"params": list(entry["params"]), "lr": entry.get("lr", lr)}
                for entry in entries
            ]
        else:
            self.param_groups = [{"params": entries, "lr": lr}]
        self.parameters = [param for group in self.param_groups
                           for param in group["params"]]
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    @property
    def lr(self):
        """The first group's learning rate (the whole list's, pre-groups).

        Assigning sets every group to the same value; per-group schedules
        should mutate ``param_groups`` directly (what :class:`StepLR`
        does, preserving the ratios between groups).
        """
        return self.param_groups[0]["lr"]

    @lr.setter
    def lr(self, value):
        for group in self.param_groups:
            group["lr"] = value

    def _param_lrs(self):
        """Yield ``(param, lr)`` over all groups, flat parameter order."""
        for group in self.param_groups:
            for param in group["params"]:
                yield param, group["lr"]

    def zero_grad(self):
        for param in self.parameters:
            param.grad = None

    def step(self):
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for (param, lr), velocity in zip(self._param_lrs(), self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data = param.data - lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimizer used for all paper models."""

    def __init__(self, parameters, lr=0.001, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first = [np.zeros_like(p.data) for p in self.parameters]
        self._second = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for (param, lr), first, second in zip(self._param_lrs(), self._first,
                                              self._second):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            first *= self.beta1
            first += (1.0 - self.beta1) * grad
            second *= self.beta2
            second += (1.0 - self.beta2) * grad * grad
            corrected_first = first / bias1
            corrected_second = second / bias2
            param.data = param.data - lr * corrected_first / (
                np.sqrt(corrected_second) + self.eps
            )


def clip_grad_norm(parameters, max_norm):
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging).  A negative
    ``max_norm`` raises ``ValueError``: it would reverse every gradient.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0 (got %r)" % (max_norm,))
    parameters = [p for p in parameters if p.grad is not None]
    total = np.sqrt(sum(float((p.grad**2).sum()) for p in parameters))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in parameters:
            param.grad = param.grad * scale
    return total


class StepLR:
    """Multiply the optimizer's lr by ``gamma`` every ``step_size`` epochs.

    Scales every parameter group, so per-group ratios (e.g. a gentler
    encoder rate under fine-tuning) are preserved across the schedule.
    """

    def __init__(self, optimizer, step_size, gamma=0.5):
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self):
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            for group in self.optimizer.param_groups:
                group["lr"] *= self.gamma
