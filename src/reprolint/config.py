"""Configuration: ``[tool.reprolint]`` in pyproject.toml.

Lint severity and scope live next to the ruff configuration so there is
exactly one place that says which packages are policy-scoped.  The
layout::

    [tool.reprolint]
    exclude = ["__pycache__"]
    baseline = ".reprolint-baseline.json"

    [tool.reprolint.rules.RP001]
    scope = ["src/repro/runtime/", "src/repro/serving/", "src/repro/nn/"]

Every key is optional — rules carry their defaults (``Rule.default_scope``
and the option dicts in :mod:`reprolint.rules`) — and unknown keys are
passed through to the rule, so a rule can grow knobs without touching
this module.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field

__all__ = ["Config", "load_config", "find_pyproject"]

#: Path fragments never linted, even when explicitly passed.
DEFAULT_EXCLUDE = ["__pycache__/", "/.git/", "/build/", "/dist/"]


@dataclass
class Config:
    """Resolved reprolint configuration."""

    exclude: list = field(default_factory=lambda: list(DEFAULT_EXCLUDE))
    baseline: str = None
    rules: dict = field(default_factory=dict)
    source: str = "<defaults>"

    def rule_options(self, rule):
        """Defaults of ``rule`` overlaid with its pyproject table."""
        options = dict(getattr(rule, "default_options", {}))
        options.update(self.rules.get(rule.id, {}))
        return options


def find_pyproject(start):
    """Nearest ``pyproject.toml`` at or above ``start`` (or None)."""
    current = os.path.abspath(start)
    if os.path.isfile(current):
        current = os.path.dirname(current)
    while True:
        candidate = os.path.join(current, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def load_config(pyproject=None, start="."):
    """Load ``[tool.reprolint]`` (searching upward from ``start``)."""
    path = pyproject or find_pyproject(start)
    if path is None:
        return Config()
    with open(path, "rb") as handle:
        table = tomllib.load(handle).get("tool", {}).get("reprolint", {})
    if not isinstance(table, dict):
        return Config(source=path)
    rules = {
        str(rule_id): dict(options)
        for rule_id, options in table.get("rules", {}).items()
        if isinstance(options, dict)
    }
    exclude = list(DEFAULT_EXCLUDE)
    for fragment in table.get("exclude", []):
        if fragment not in exclude:
            exclude.append(fragment)
    return Config(
        exclude=exclude,
        baseline=table.get("baseline"),
        rules=rules,
        source=path,
    )
