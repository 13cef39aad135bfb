"""Reverse-mode automatic differentiation on numpy arrays.

This module is the substrate replacing PyTorch's autograd in the CoLES
reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` together with an
optional gradient buffer and a closure that propagates gradients to its
parents.  Calling :meth:`Tensor.backward` performs a topological sort of the
recorded computation graph and accumulates gradients in reverse order.

Broadcasting follows numpy semantics; gradients flowing into a broadcast
operand are summed back to the operand's original shape by
:func:`_unbroadcast`.

Only the operations needed by the CoLES encoders, losses and baselines are
implemented, but each follows the exact mathematical definition, and the
test-suite checks every op against central finite differences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "no_grad"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(grad, shape):
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value):
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward = None
        self._parents = ()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents, backward):
        """Create a graph node whose gradient flows to ``parents``."""
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        if requires:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def ensure(value):
        """Coerce ``value`` to a Tensor (constants get no gradient)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def numpy(self):
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self):
        return float(self.data)

    def detach(self):
        """Return a new Tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return "Tensor(%r, requires_grad=%r)" % (self.data, self.requires_grad)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None):
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so ``loss.backward()`` works on scalars).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, parent_grad in node._backward(node_grad):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data + other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.data.shape)),
                (other, _unbroadcast(grad, other.data.shape)),
            )

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad * other.data, self.data.shape)),
                (other, _unbroadcast(grad * self.data, other.data.shape)),
            )

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(grad):
            return ((self, -grad),)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data - other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.data.shape)),
                (other, _unbroadcast(-grad, other.data.shape)),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other):
        return Tensor.ensure(other) - self

    def __truediv__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad / other.data, self.data.shape)),
                (
                    other,
                    _unbroadcast(
                        -grad * self.data / (other.data**2), other.data.shape
                    ),
                ),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor.ensure(other) / self

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            return ((self, grad * exponent * self.data ** (exponent - 1)),)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                ga = grad * b
                gb = grad * a
            elif a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = _unbroadcast(
                    (grad[..., None, :] * b).sum(axis=-1), a.shape
                )
                gb = _unbroadcast(a[:, None] * grad[..., None, :], b.shape)
            elif b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = _unbroadcast(grad[..., :, None] * b, a.shape)
                gb = _unbroadcast((grad[..., :, None] * a).sum(axis=-2), b.shape)
            else:
                ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
            return ((self, ga), (other, gb))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return ((self, grad * out_data),)

        return Tensor._make(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            return ((self, grad / self.data),)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            return ((self, grad * 0.5 / out_data),)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            return ((self, grad * (1.0 - out_data**2)),)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            return ((self, grad * out_data * (1.0 - out_data)),)

        return Tensor._make(out_data, (self,), backward)

    def relu(self):
        mask = self.data > 0

        def backward(grad):
            return ((self, grad * mask),)

        return Tensor._make(self.data * mask, (self,), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(grad):
            return ((self, grad * sign),)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip_min(self, low):
        """Elementwise max(self, low); gradient is zero where clipped."""
        mask = self.data > low

        def backward(grad):
            return ((self, grad * mask),)

        return Tensor._make(np.maximum(self.data, low), (self,), backward)

    def clip_max(self, high):
        """Elementwise min(self, high); gradient is zero where clipped."""
        mask = self.data < high

        def backward(grad):
            return ((self, grad * mask),)

        return Tensor._make(np.minimum(self.data, high), (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((self, np.broadcast_to(g, self.data.shape).copy()),)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = self.data == out
            # Split gradient equally between ties for determinism.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return ((self, g * mask / counts),)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims=False):
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.data.shape

        def backward(grad):
            return ((self, grad.reshape(old_shape)),)

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, axis1=-1, axis2=-2):
        def backward(grad):
            return ((self, np.swapaxes(grad, axis1, axis2)),)

        return Tensor._make(np.swapaxes(self.data, axis1, axis2), (self,), backward)

    @property
    def T(self):
        return self.transpose(0, 1) if self.ndim == 2 else self.transpose()

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return ((self, full),)

        return Tensor._make(out_data, (self,), backward)

    def take_rows(self, indices):
        """Gather rows along axis 0 (embedding-style lookup)."""
        # reprolint: disable=RP001 -- gather indices keep their
        # integer dtype.
        indices = np.asarray(indices)
        out_data = self.data[indices]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, indices, grad)
            return ((self, full),)

        return Tensor._make(out_data, (self,), backward)

    def masked_fill(self, mask, value):
        """Replace entries where ``mask`` is True with ``value`` (no grad there)."""
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad):
            return ((self, grad * ~mask),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # comparisons (no gradient; returned as plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor.ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        pairs = []
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(start, stop)
            pairs.append((tensor, grad[tuple(sl)]))
        return tuple(pairs)

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors, axis=0):
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [Tensor.ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        parts = np.split(grad, len(tensors), axis=axis)
        return tuple(
            (tensor, np.squeeze(part, axis=axis))
            for tensor, part in zip(tensors, parts)
        )

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition, a, b):
    """Elementwise select: ``a`` where condition else ``b``."""
    condition = np.asarray(condition, dtype=bool)
    a = Tensor.ensure(a)
    b = Tensor.ensure(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad):
        return (
            (a, _unbroadcast(grad * condition, a.data.shape)),
            (b, _unbroadcast(grad * ~condition, b.data.shape)),
        )

    return Tensor._make(out_data, (a, b), backward)
