"""The rule battery: one module per invariant, registered here.

Each rule guards one hand-maintained invariant of the fused runtime —
see ``docs/static-analysis.md`` for the catalogue with the PR that
introduced each invariant.  Adding a rule = adding a module with a
:class:`reprolint.engine.Rule` subclass and listing it in
:data:`ALL_RULES`; scope/options are overridable per rule id under
``[tool.reprolint.rules.<id>]`` in pyproject.toml.
"""

from .rp001_dtype import DtypeLessConstructorRule
from .rp002_promotion import Float64PromotionRule
from .rp003_plans import PlanInvalidationRule
from .rp004_threads import ThreadFanoutMutationRule
from .rp005_contracts import ArrayContractRule
from .rp006_state_loops import PerEntityStateLoopRule
from .rp007_step_sites import TrainingDriverRule
from .rp008_event_table import PerEntityObjectRule

__all__ = ["ALL_RULES", "all_rules", "rules_by_id"]

ALL_RULES = (
    DtypeLessConstructorRule,
    Float64PromotionRule,
    PlanInvalidationRule,
    ThreadFanoutMutationRule,
    ArrayContractRule,
    PerEntityStateLoopRule,
    TrainingDriverRule,
    PerEntityObjectRule,
)


def all_rules(select=None):
    """Instantiate the battery (optionally only ids in ``select``)."""
    rules = [cls() for cls in ALL_RULES]
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.id in wanted]
    return rules


def rules_by_id():
    """``{"RP001": rule_instance, ...}`` for the full battery."""
    return {rule.id: rule for rule in all_rules()}
