"""RP006 — per-entity state calls inside loops in the serving layers.

The state layer has a batch plane: ``StateBackend.gather``/``scatter``
and the sharded store's routed versions move a whole id list through a
few numpy calls.  The bulk load, the flush, the query miss path,
``restore`` and reopen go through it.  A loop that calls
``state_of``/``put_state`` per entity, or ``get``/``put`` on a
``.backend``, brings back the chain of Python frames per entity that
the batch plane removed.  The rule flags such calls inside the repeated
parts of a ``for``/``while`` loop or a comprehension.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["PerEntityStateLoopRule"]

#: Per-entity state calls, flagged on any receiver (or as bare names).
STATE_CALLS = ("state_of", "put_state")
#: Per-entity backend calls, flagged on a ``backend`` receiver.
BACKEND_CALLS = ("get", "put")


class PerEntityStateLoopRule(Rule):
    """Flag per-entity state reads/writes repeated inside loops."""

    id = "RP006"
    name = "per-entity-state-loop"
    rationale = ("batch paths move state through gather()/scatter(); a "
                 "per-entity state call inside a loop brings back the "
                 "Python chain per entity")
    default_scope = ("src/repro/runtime/", "src/repro/serving/")

    def check(self, module, options):
        """Yield one finding per state call inside a loop body."""
        flagged = set()
        for loop in ast.walk(module.tree):
            for part in _repeated_parts(loop):
                for node in ast.walk(part):
                    name = _state_call(node)
                    if name is None or id(node) in flagged:
                        continue
                    flagged.add(id(node))
                    yield self.finding(
                        module, node,
                        "per-entity %s() inside a loop; read or write the "
                        "batch through gather()/scatter()" % name,
                    )


def _repeated_parts(node):
    """The sub-trees of a loop or comprehension that run once per item."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test] + node.body
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        heads = [node.elt]
    elif isinstance(node, ast.DictComp):
        heads = [node.key, node.value]
    else:
        return []
    # The first generator's iterable is evaluated once; everything else
    # (conditions, inner iterables) runs per item.
    inner = [generator.iter for generator in node.generators[1:]]
    conditions = [test for generator in node.generators
                  for test in generator.ifs]
    return heads + inner + conditions


def _state_call(node):
    """The flagged method name when ``node`` is a per-entity state call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id if func.id in STATE_CALLS else None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in STATE_CALLS:
        return func.attr
    receiver = func.value
    on_backend = ((isinstance(receiver, ast.Attribute)
                   and receiver.attr == "backend")
                  or (isinstance(receiver, ast.Name)
                      and receiver.id == "backend"))
    if func.attr in BACKEND_CALLS and on_backend:
        return "backend." + func.attr
    return None
