"""Test-suite setup: put the repo root on ``sys.path`` so test modules can
``from tests.oracles import ...`` (and ``tests.helpers``) however pytest
is launched, share the fused-step spy fixture, and fail the kernel tests
on numpy floating-point warnings."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from repro.runtime import FusedTrainStep  # noqa: E402
from tests.oracles import STEP_SITES  # noqa: E402

#: Test directories held to strict floating point: the fused kernels
#: (forward, train forward, BPTT), the downstream GBM's split search and
#: the serving path.  An overflow, invalid or divide-by-zero
#: ``RuntimeWarning`` there fails the test instead of printing a warning.
KERNEL_TEST_DIRS = ("runtime", "core", "baselines", "gbm", "serving")


def pytest_collection_modifyitems(items):
    """Mark every test under :data:`KERNEL_TEST_DIRS` with
    ``filterwarnings("error::RuntimeWarning")``."""
    strict = tuple(os.path.join(ROOT, "tests", name, "")
                   for name in KERNEL_TEST_DIRS)
    for item in items:
        if str(item.path).startswith(strict):
            item.add_marker(
                pytest.mark.filterwarnings("error::RuntimeWarning"))


@pytest.fixture
def fused_forwards(monkeypatch):
    """Encoders each training loop's ``FusedTrainStep.forward`` ran on.

    Every loop builds its step through ``repro.core.trainer.build_step``,
    which looks ``FusedTrainStep`` up in the one module of
    ``STEP_SITES``; a recording subclass goes in its place, so the list
    shows that (and on what) the loop stepped through the fused runtime.
    """
    forwards = []

    class RecordingStep(FusedTrainStep):
        def forward(self, batch):
            forwards.append(self.encoder)
            return super().forward(batch)

    for site in STEP_SITES:
        monkeypatch.setattr(site + ".FusedTrainStep", RecordingStep)
    return forwards
