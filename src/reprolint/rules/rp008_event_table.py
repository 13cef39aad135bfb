"""RP008 — per-entity objects on batch paths.

A ``SequenceDataset`` is one event table: offsets plus one flat array
per field.  Batch paths ask the dataset (``lengths()``, ``ids``,
``labels``, ``dataset[i]``) and gather every batch through ``collate``'s
table source, by rows or by per-row positions.  Reading ``.sequences``
builds one ``EventSequence`` view per row, and calling
``EventSequence(...)`` builds a per-entity object: both bring back the
per-entity Python the table removed.  Reading ``.offsets`` or
``.columns`` ties a module to the layout, which only ``repro.data``
knows.  The rule flags all four.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["PerEntityObjectRule"]

#: Dataset attributes only ``repro.data`` reads.
LAYOUT_ATTRIBUTES = ("sequences", "offsets", "columns")


class PerEntityObjectRule(Rule):
    """Flag per-entity views, layout reads and EventSequence builds."""

    id = "RP008"
    name = "per-entity-objects"
    rationale = ("batch paths gather rows and positions from the dataset's "
                 "event table through collate(); .sequences and "
                 "EventSequence(...) build per-entity objects, and "
                 ".offsets/.columns belong to repro.data")
    default_scope = ("src/repro/runtime/", "src/repro/core/",
                     "src/repro/augmentations/", "src/repro/baselines/")

    def check(self, module, options):
        """Yield one finding per layout read or EventSequence call."""
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr in LAYOUT_ATTRIBUTES):
                yield self.finding(
                    module, node,
                    "reads .%s of a dataset on a batch path; ask the "
                    "dataset (lengths(), ids, labels) and gather through "
                    "collate(dataset, rows=..., positions=...)" % node.attr,
                )
            elif isinstance(node, ast.Call) and _called_name(node) == "EventSequence":
                yield self.finding(
                    module, node,
                    "EventSequence() on a batch path; draw position arrays "
                    "and gather them through collate(dataset, rows=..., "
                    "positions=...)",
                )


def _called_name(node):
    """The called name of a bare or attribute call (else None)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None
