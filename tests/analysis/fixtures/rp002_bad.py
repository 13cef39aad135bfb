"""RP002 fixture: the three promotion patterns (all flagged)."""

import numpy as np

#: A ufunc over a constant expression is a float64 numpy scalar too.
GELU_C = np.sqrt(2.0 / np.pi)


def promote(x):
    """Explicit float64 cast plus a numpy-scalar constant."""
    scale = np.log(10000.0)
    doubled = x.astype(np.float64)
    return doubled * scale


def recopy(x, dtype):
    """``astype`` without ``copy=False`` always allocates."""
    return x.astype(dtype)


def gauss(x):
    """Literal arithmetic with ``np.e`` inside a kernel."""
    return x * np.exp(-0.5 * np.e)
