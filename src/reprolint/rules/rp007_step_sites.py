"""RP007 — train steps and gradient clipping outside the training driver.

Every training loop (CoLES, CPC, RTD, NSP/SOP, fine-tuning) runs
through one epoch driver in ``repro/core/trainer.py``: ``build_step``
is the one place a ``FusedTrainStep`` is built (tests swap the oracle
step in by patching the one module it is looked up in), and
``apply_update`` is the one update (clip, then ``optimizer.step()``).
A loop that builds its own step escapes the oracle, and one that clips
on its own can drift from the others' update (the copies once disagreed
on which parameters they clipped).  The rule flags ``FusedTrainStep(...)``
and ``clip_grad_norm(...)`` calls, bare or through a module attribute,
in any module but the driver's (``allowed_modules``).
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["TrainingDriverRule"]

#: Flagged callable -> the driver helper to call instead.
DRIVER_CALLS = {
    "FusedTrainStep": "build_step()",
    "clip_grad_norm": "apply_update()",
}

#: Path fragments of the modules allowed to make those calls.
ALLOWED_MODULES = ("src/repro/core/trainer.py",)


class TrainingDriverRule(Rule):
    """Flag train-step construction and clipping outside the driver."""

    id = "RP007"
    name = "training-driver"
    rationale = ("every training loop builds its step with build_step() "
                 "and updates with apply_update() in the one epoch "
                 "driver; a private copy escapes the test oracle and "
                 "drifts from the shared update")
    default_scope = ("src/repro/core/", "src/repro/baselines/")
    default_options = {"allowed_modules": list(ALLOWED_MODULES)}

    def check(self, module, options):
        """Yield one finding per flagged call outside the allowed modules."""
        path = module.path.replace("\\", "/")
        if any(fragment in path for fragment in options["allowed_modules"]):
            return
        for node in ast.walk(module.tree):
            name = _called_name(node)
            if name in DRIVER_CALLS:
                yield self.finding(
                    module, node,
                    "%s() outside the training driver; use "
                    "repro.core.trainer.%s" % (name, DRIVER_CALLS[name]),
                )


def _called_name(node):
    """The called name of a bare or attribute call (else None)."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None
