"""RP002 — float64 promotion and redundant casts in fused kernels.

The hot-path modules (``runtime/kernels.py``, ``runtime/attention.py``)
compute in the plan's policy dtype; three statically-visible patterns
break that:

1. explicit promotion — ``.astype(np.float64)`` or
   ``np.asarray(x, dtype=np.float64)`` on data arrays inside a kernel
   promotes every downstream op of a float32 plan to float64;
2. numpy-scalar constants — ``np.log(10000.0)``, ``np.sqrt(2.0 /
   np.pi)`` and friends (a ufunc over a constant expression: numeric
   literals, ``np.pi`` and ``np.e`` under arithmetic) produce a *numpy*
   float64 scalar which (unlike a bare Python float, which is
   dtype-preserving under both value-based and NEP 50 promotion)
   promotes float32 arrays it meets in a ufunc expression; use
   ``math`` for the constant, or cast it to the plan dtype;
3. copy-always casts — ``x.astype(dt)`` without ``copy=False``
   materialises a fresh buffer even when ``x`` already has the target
   dtype, a silent extra allocation per call on paths the PR 6
   micro-optimisations exist to avoid.
"""

from __future__ import annotations

import ast

from ..engine import Rule, numpy_aliases

__all__ = ["Float64PromotionRule"]

#: Unary ufuncs whose Python-literal result is a float64 numpy scalar.
SCALAR_UFUNCS = ("log", "log2", "log10", "exp", "sqrt", "float64",
                 "float_power")


class Float64PromotionRule(Rule):
    """Flag float64-promoting ops and uncopied casts on hot paths."""

    id = "RP002"
    name = "float64-promotion"
    rationale = ("fused kernels must compute in the plan dtype; float64 "
                 "scalars/casts silently double the hot-path cost "
                 "(PR 6 precision policy + micro-optimisations)")
    default_scope = ("src/repro/runtime/kernels.py",
                     "src/repro/runtime/attention.py")
    default_options = {"scalar_ufuncs": list(SCALAR_UFUNCS)}

    def check(self, module, options):
        """Yield findings for the three promotion patterns."""
        aliases = numpy_aliases(module.tree)
        scalar_ufuncs = set(options.get("scalar_ufuncs", SCALAR_UFUNCS))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = (self._promoting_cast(module, node, aliases)
                       or self._scalar_constant(module, node, aliases,
                                                scalar_ufuncs)
                       or self._copy_always_cast(module, node))
            if finding is not None:
                yield finding

    # ------------------------------------------------------------------
    def _promoting_cast(self, module, node, aliases):
        """``.astype(np.float64)`` / ``np.asarray(..., dtype=np.float64)``."""
        target = None
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype" and node.args):
            target = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    target = keyword.value
        if target is None or not self._is_np_float64(target, aliases):
            return None
        return self.finding(
            module, node,
            "explicit float64 promotion in a fused kernel: under the "
            "float32 policy every downstream op re-runs in double "
            "precision; use the plan/policy dtype (or suppress with the "
            "parity rationale)",
        )

    def _scalar_constant(self, module, node, aliases, scalar_ufuncs):
        """``np.log(10000.0)``-style numpy-scalar constant producers."""
        if not (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in aliases
                and node.func.attr in scalar_ufuncs):
            return None
        if not node.args or not all(_is_constant(arg, aliases)
                                    for arg in node.args):
            return None
        return self.finding(
            module, node,
            "np.%s(<constant>) produces a float64 numpy scalar that "
            "promotes float32 arrays in ufunc expressions (bare Python "
            "floats are dtype-preserving, numpy scalars are not); use "
            "math for the constant or cast it to the plan dtype"
            % node.func.attr,
        )

    def _copy_always_cast(self, module, node):
        """``x.astype(dt)`` without ``copy=False``."""
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"):
            return None
        for keyword in node.keywords:
            if keyword.arg == "copy":
                return None
        return self.finding(
            module, node,
            ".astype() without copy=False re-copies the buffer even when "
            "the dtype already matches; pass copy=False on hot paths "
            "(or copy=True if the caller must own the buffer)",
        )

    @staticmethod
    def _is_np_float64(node, aliases):
        return (isinstance(node, ast.Attribute)
                and node.attr == "float64"
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases)


#: Numpy constants that count as literals in a constant expression.
NUMPY_CONSTANTS = ("pi", "e")


def _is_constant(node, aliases):
    """Whether ``node`` is arithmetic over numeric literals, ``np.pi``
    and ``np.e`` (``2.0 / np.pi``, ``-0.5``, ``10 ** 4``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        return _is_constant(node.operand, aliases)
    if isinstance(node, ast.BinOp):
        return (_is_constant(node.left, aliases)
                and _is_constant(node.right, aliases))
    if isinstance(node, ast.Attribute):
        return (node.attr in NUMPY_CONSTANTS
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases)
    return isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (int, float))
