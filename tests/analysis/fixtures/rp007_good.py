"""RP007 fixture: loops that go through the driver's helpers."""

from repro.core.trainer import apply_update, build_step, run_epochs
from repro.runtime.training import FusedTrainStep


def fit(model, optimizer, config, batches):
    step = build_step(model.encoder, config.precision)

    def one(batch):
        optimizer.zero_grad()
        step.backward(step.forward(batch))
        apply_update(optimizer, config.clip_norm)

    return run_epochs(model, config, batches, one)


def is_fused(step):
    return isinstance(step, FusedTrainStep)
