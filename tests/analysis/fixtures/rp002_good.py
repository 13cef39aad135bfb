"""RP002 fixture: policy-dtype compute (clean)."""

import math

import numpy as np

#: Hoisted constant: the ufunc sees a name, not a literal.
LOG_BASE = 10000.0

#: A Python-float constant from ``math`` is dtype-preserving.
GELU_C = math.sqrt(2.0 / math.pi)


def scaled(x, plan_dtype):
    """Constants are cast to the plan dtype before entering the kernel."""
    scale = np.asarray(np.log(LOG_BASE), dtype=plan_dtype)
    return x * scale


def cast(x, dtype):
    """Casts on hot paths skip the copy when the dtype already matches."""
    return x.astype(dtype, copy=False)


def score_scale(head_dim, plan_dtype):
    """A ufunc on a runtime value, cast to the plan dtype."""
    return plan_dtype.type(1.0 / np.sqrt(head_dim))
