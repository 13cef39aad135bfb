"""Autograd oracles for the fused runtime.

Production code has one execution engine, :mod:`repro.runtime`.  The
tests check it against reverse-mode autograd through the :mod:`repro.nn`
modules:

- :class:`AutogradTrainStep` has :class:`~repro.runtime.FusedTrainStep`'s
  ``forward``/``backward``/``backward_classification`` interface but
  builds the Tensor graph.  Inside :func:`autograd_steps` every training
  loop (CoLES, CPC, RTD, NSP/SOP, fine-tuning) steps through it, so a
  parity test runs the same loop on both and compares the weights;
- :func:`tensor_embed` is the eval-mode autograd forward over a dataset
  in naive batch order, the reference for the inference paths.
"""

import contextlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.data.batches import collate
from repro.encoders import RnnSeqEncoder
from repro.nn import Tensor, no_grad
from repro.nn import functional as F

#: Modules whose training loops look the ``FusedTrainStep`` name up.
STEP_SITES = ("repro.runtime.training", "repro.baselines.cpc",
              "repro.baselines.rtd", "repro.baselines.pair_tasks",
              "repro.baselines.supervised")


@dataclass
class AutogradCache:
    """Graph outputs of one forward, with the fused cache's array views."""

    event_out: Tensor       # (B, T, D) trx-encoder output
    state_out: Tensor       # (B, T, H) per-step states
    embedding_out: Tensor   # (B, H) post-head embeddings

    @property
    def events(self):
        return self.event_out.data

    @property
    def states(self):
        return self.state_out.data

    @property
    def embeddings(self):
        return self.embedding_out.data


class AutogradTrainStep:
    """``FusedTrainStep`` over the autograd graph of the encoder's modules."""

    def __init__(self, encoder, precision="float64"):
        if precision != "float64":
            raise ValueError("the autograd oracle computes in float64 only")
        self.encoder = encoder

    def forward(self, batch):
        encoder = self.encoder
        events = encoder.trx_encoder(batch)
        if isinstance(encoder, RnnSeqEncoder):
            states, pooled = encoder.rnn(events, mask=batch.mask)
        else:
            states, pooled = encoder.transformer(encoder.input_proj(events),
                                                 mask=batch.mask)
        return AutogradCache(events, states, encoder._head(pooled))

    def backward(self, cache, d_embeddings=None, d_states=None,
                 d_events=None):
        total = None
        for output, grad in ((cache.embedding_out, d_embeddings),
                             (cache.state_out, d_states),
                             (cache.event_out, d_events)):
            if grad is not None:
                term = (output * grad).sum()
                total = term if total is None else total + term
        if total is not None:
            total.backward()

    def backward_classification(self, cache, head, targets):
        loss = F.cross_entropy(head(cache.embedding_out), targets)
        loss.backward()
        return loss.item()


@contextlib.contextmanager
def autograd_steps():
    """Run every training loop on :class:`AutogradTrainStep` in the block.

    A ``ContrastiveTrainer`` picks its step at construction, the baselines
    at ``fit()``; both must happen inside the block.
    """
    with pytest.MonkeyPatch.context() as patch:
        for site in STEP_SITES:
            patch.setattr(site + ".FusedTrainStep", AutogradTrainStep)
        yield


def tensor_embed(encoder, dataset, batch_size=64):
    """Eval-mode autograd embeddings ``(N, d)``, naive batch order."""
    encoder.eval()
    embeddings = np.zeros((len(dataset), encoder.output_dim))
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            chunk = dataset.sequences[start:start + batch_size]
            batch = collate(chunk, dataset.schema)
            embeddings[start:start + len(chunk)] = encoder.embed(batch).data
    return embeddings
