"""RP003 — ``param.data`` writes vs the packed-plan invalidation contract.

Packed ``WeightPlan``/``EncodePlan``/``TransformerPlan`` caches (PR 6/8)
are keyed on *parameter-buffer identity*: consumers call the runtime's
``weight_plan()``/``encode_plan()``, which rebuild a plan whose live
buffers changed, and the optimisers *rebind* ``param.data`` to a fresh
buffer each step so the identity check trips.  Two write patterns
break that contract:

- **in-place mutation** (``param.data[...] = x``, ``param.data += x``,
  ``param.data.fill(...)``, ``np.copyto(param.data, ...)``) changes the
  weights without changing identity — every cached plan keeps serving
  the stale pre-cast copy.  Always flagged.
- **rebinds outside the contract** (``param.data = x``) are only safe
  from functions the contract knows about: the optimizer/serialization
  entry points (``allowed_rebinders``, default ``step`` /
  ``load_state_dict``) or code that itself re-validates plans — the
  rule walks the module's call graph so a helper called by a validating
  function counts.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["PlanInvalidationRule"]

#: Calls that (re)validate a packed plan against the live buffers.
VALIDATORS = ("weight_plan", "encode_plan", "build_weight_plan",
              "build_transformer_plan", "build_encode_plan", "as_plan")

#: ndarray methods that write through the buffer in place.
MUTATING_METHODS = ("fill", "sort", "partition", "put", "itemset",
                    "setfield", "resize")

#: Function names whose ``param.data`` rebinds are the contract itself.
#: ``__init__`` is allowed because a buffer bound during construction
#: cannot be cached by any plan yet.
ALLOWED_REBINDERS = ("step", "load_state_dict", "__init__")


class PlanInvalidationRule(Rule):
    """Flag ``.data`` writes that packed plans cannot observe."""

    id = "RP003"
    name = "plan-invalidation"
    rationale = ("packed plans cache on param.data buffer identity; "
                 "in-place writes serve stale weights and rebinds are "
                 "only safe on the optimizer/serialization paths "
                 "(PR 6/8 plan contract)")
    default_scope = ("src/repro/runtime/", "src/repro/serving/",
                     "src/repro/nn/")
    default_options = {
        "allowed_rebinders": list(ALLOWED_REBINDERS),
        "validators": list(VALIDATORS),
    }

    def check(self, module, options):
        """Yield findings for stale-plan ``.data`` writes."""
        allowed = set(options.get("allowed_rebinders", ALLOWED_REBINDERS))
        validators = set(options.get("validators", VALIDATORS))
        graph = _CallGraph(module.tree, validators)
        findings = []
        for function, node, kind, detail in _data_writes(module.tree):
            if kind == "mutate":
                findings.append(self.finding(
                    module, node,
                    "in-place mutation of a parameter buffer (%s): packed "
                    "plans cache on buffer identity and will keep serving "
                    "the stale pre-cast weights; rebind param.data to a "
                    "fresh buffer instead" % detail,
                ))
            else:  # rebind
                name = function.name if function is not None else "<module>"
                if function is not None and (name in allowed
                                             or graph.validates(function)):
                    continue
                findings.append(self.finding(
                    module, node,
                    "param.data rebind in %r, which neither matches "
                    "allowed_rebinders %s nor reaches a plan validator "
                    "(%s) on its call graph: cached plans may serve stale "
                    "weights until the next validated entry point"
                    % (name, sorted(allowed),
                       "/".join(sorted(validators)[:3]) + "/..."),
                ))
        return findings


def _is_data_attr(node):
    """Whether ``node`` is an ``<expr>.data`` attribute access."""
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _contains_data_attr(node):
    """Whether ``.data`` appears anywhere inside ``node``'s base chain."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if _is_data_attr(node):
            return True
        node = node.value
    return False


def _data_writes(tree):
    """Yield ``(enclosing_function, node, kind, detail)`` for .data writes.

    ``kind`` is ``"rebind"`` for plain attribute assignment and
    ``"mutate"`` for anything that writes through the existing buffer.
    """
    writes = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if _is_data_attr(target):
                    writes.append((function, node, "rebind", "assignment"))
                elif (isinstance(target, (ast.Subscript, ast.Attribute))
                        and _contains_data_attr(target)):
                    writes.append((function, node, "mutate",
                                   "subscript/attribute store"))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_data_attr(node.target):
                writes.append((function, node, "rebind", "assignment"))
        elif isinstance(node, ast.AugAssign):
            if _contains_data_attr(node.target):
                writes.append((function, node, "mutate",
                               "augmented assignment"))
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATING_METHODS
                    and _contains_data_attr(node.func.value)):
                writes.append((function, node, "mutate",
                               ".%s() call" % node.func.attr))
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "copyto"
                    and node.args and _contains_data_attr(node.args[0])):
                writes.append((function, node, "mutate", "np.copyto target"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return writes


class _CallGraph:
    """Intra-module call graph with plan-validation reachability."""

    def __init__(self, tree, validators):
        self._callees = {}
        self._direct = {}
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        by_name = {}
        for function in functions:
            by_name.setdefault(function.name, []).append(function)
        for function in functions:
            called = set()
            direct = False
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node.func)
                if name is None:
                    continue
                if name in validators:
                    direct = True
                called.update(by_name.get(name, []))
            self._callees[function] = called
            self._direct[function] = direct
        self._validating = self._closure()

    def _closure(self):
        validating = {f for f, direct in self._direct.items() if direct}
        changed = True
        while changed:
            changed = False
            for function, callees in self._callees.items():
                if function in validating:
                    continue
                if any(callee in validating for callee in callees):
                    validating.add(function)
                    changed = True
        return validating

    def validates(self, function):
        """Whether ``function`` (transitively) re-validates plans."""
        return function in self._validating


def _called_name(func):
    """Bare or attribute call target name (``f`` / ``self.f`` → ``"f"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
