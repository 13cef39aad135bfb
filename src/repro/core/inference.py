"""Inference: batch embedding of datasets and incremental updates.

Section 4.3.1 of the paper describes the deployment pipeline: embeddings
are computed once and then *incrementally* refreshed as new transactions
arrive — recurrent encoders allow ``c_{t+k}`` to be computed from ``c_t``
and the new events only.

Since the runtime refactor this module is a thin façade over
:mod:`repro.runtime`: every repro encoder — recurrent *and* transformer
— serves through the fused graph-free kernels with a length-sorted
batch plan; only custom encoders outside those families fall back to
the differentiable Tensor path under ``no_grad``.  Both paths agree to
< 1e-10 (float64).
"""

from __future__ import annotations

import numpy as np

from ..data.batches import collate
from ..encoders.seq_encoder import RnnSeqEncoder, TransformerSeqEncoder
from ..nn import no_grad
from ..runtime import EmbeddingStore, FusedEncoderRuntime
from ..serving import EmbeddingService

__all__ = ["embed_dataset", "IncrementalEmbedder", "serve"]


def _embed_dataset_tensor(encoder, dataset, batch_size):
    """Reference path: eval-mode autograd forward, naive batch order."""
    encoder.eval()
    embeddings = np.zeros((len(dataset), encoder.output_dim))
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            chunk = dataset.sequences[start:start + batch_size]
            batch = collate(chunk, dataset.schema)
            embeddings[start:start + len(chunk)] = encoder.embed(batch).data
    return embeddings


def _embed_dataset_fused(encoder, dataset, batch_size, precision, workers):
    """Hot path: fused kernels over a globally length-sorted batch plan."""
    if isinstance(encoder, FusedEncoderRuntime):
        runtime = encoder
    else:
        kwargs = {}
        if precision is not None:
            kwargs["precision"] = precision
        if workers is not None:
            kwargs["workers"] = workers
        runtime = FusedEncoderRuntime(encoder, **kwargs)
    return runtime.embed_dataset(dataset, batch_size=batch_size)


def embed_dataset(encoder, dataset, batch_size=64, runtime="auto",
                  precision=None, workers=None):
    """Embed every sequence; returns ``(N, d)`` float array.

    ``runtime`` selects the execution path:

    - ``"auto"`` (default): fused kernels for every repro encoder
      (recurrent and transformer), Tensor path for custom encoders;
    - ``"fused"``: require the fused runtime (TypeError for encoders the
      fused kernels do not cover);
    - ``"tensor"``: force the differentiable path (used by equivalence
      tests and benchmarks).

    ``precision`` and ``workers`` configure the fused runtime's dtype
    policy and bucket-parallel worker count (None: the runtime defaults).
    The Tensor path is the float64 reference and ignores both.
    """
    if runtime not in ("auto", "fused", "tensor"):
        raise ValueError("unknown runtime %r" % runtime)
    if runtime == "tensor":
        return _embed_dataset_tensor(encoder, dataset, batch_size)
    if runtime == "fused" or isinstance(
        encoder, (RnnSeqEncoder, TransformerSeqEncoder, FusedEncoderRuntime)
    ):
        return _embed_dataset_fused(encoder, dataset, batch_size,
                                    precision, workers)
    return _embed_dataset_tensor(encoder, dataset, batch_size)


def serve(encoder, dataset=None, schema=None, **service_kwargs):
    """Stand up an online :class:`~repro.serving.EmbeddingService`.

    The serving entry point of the deployment story: give it a trained
    recurrent encoder and (optionally) the historical dataset to
    bulk-load, and it returns a ready service — sharded state,
    micro-batched ingestion, hot-embedding cache.

    ``schema`` defaults to ``dataset.schema``; keyword arguments
    (``num_shards``, ``cache_capacity``, ``flush_events``, ``batch_size``,
    ``precision``, ``workers``, and the storage knobs ``backend_dir``,
    ``codec`` and ``backend``) pass through to
    :class:`~repro.serving.EmbeddingService`.  States live in RAM unless
    ``backend_dir`` names a directory: ``serve(encoder, dataset,
    backend_dir=path, codec="int8")`` stands up an out-of-core,
    quantized-at-rest service.
    """
    if schema is None:
        if dataset is None:
            raise ValueError("serve() needs a schema (or a dataset to "
                             "take it from)")
        schema = dataset.schema
    service = EmbeddingService(encoder, schema, **service_kwargs)
    if dataset is not None:
        service.bulk_load(dataset)
    return service


class IncrementalEmbedder:
    """Streaming embedding refresh for one encoder; the paper's ETL client.

    A thin wrapper around :class:`repro.runtime.EmbeddingStore` kept for
    API stability: ``update`` folds new events into the stored recurrent
    state and returns the refreshed embedding, bit-equal to a full
    recompute.  Transformers cannot reuse prior computation and are
    rejected up front (the store itself would only fail at ``update``).
    """

    def __init__(self, encoder, precision=None):
        self.store = EmbeddingStore(encoder, precision=precision)
        if not self.store.runtime.is_recurrent:
            raise TypeError(
                "incremental inference requires a recurrent encoder "
                "(got %s)" % type(encoder).__name__
            )
        self.encoder = self.store.runtime.encoder
        self.encoder.eval()  # seed-API behavior: embedders serve in eval mode

    def known_entities(self):
        return self.store.known_entities()

    def update(self, entity_id, events, schema):
        """Fold new ``events`` (an :class:`EventSequence`) into the state."""
        return self.store.update(entity_id, events, schema)

    def embedding(self, entity_id):
        """Current embedding of the entity (unit-normalised if configured)."""
        return self.store.embedding(entity_id)
