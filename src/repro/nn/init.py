"""Weight initialisation helpers (Glorot/orthogonal/normal)."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "orthogonal", "normal", "zeros"]


def xavier_uniform(shape, rng, gain=1.0):
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(shape, rng, gain=1.0):
    """Orthogonal init (used for recurrent weight matrices)."""
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def normal(shape, rng, std=0.02):
    return rng.standard_normal(shape) * std


def zeros(shape):
    return np.zeros(shape, dtype=np.float64)


def _fans(shape):
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out
