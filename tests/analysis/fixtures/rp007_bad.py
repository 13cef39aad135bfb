"""RP007 fixture: a loop building its own step and clipping (four flagged)."""

from repro.nn import clip_grad_norm
from repro.runtime import training
from repro.runtime.training import FusedTrainStep


def fit(encoder, optimizer, batches, config):
    step = FusedTrainStep(encoder, precision=config.precision)
    for batch in batches:
        step.backward(step.forward(batch))
        clip_grad_norm(optimizer.parameters, config.clip_norm)
        optimizer.step()


def other_step(encoder, nn, params):
    nn.clip_grad_norm(params, 5.0)
    return training.FusedTrainStep(encoder)
