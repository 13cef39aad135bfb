"""Inference: batch embedding of datasets and the serving entry point.

Section 4.3.1 of the paper describes the deployment pipeline: embeddings
are computed once and then *incrementally* refreshed as new transactions
arrive — recurrent encoders allow ``c_{t+k}`` to be computed from ``c_t``
and the new events only.  The incremental half lives in
:class:`repro.runtime.EmbeddingStore` and, sharded and online, in
:class:`repro.serving.EmbeddingService`.

This module is a thin façade over :mod:`repro.runtime`: every repro
encoder — recurrent *and* transformer — serves through the fused
graph-free kernels with a length-sorted batch plan.  Other encoders get
the runtime's ``TypeError``.
"""

from __future__ import annotations

from ..runtime import FusedEncoderRuntime
from ..serving import EmbeddingService

__all__ = ["embed_dataset", "serve"]


def embed_dataset(encoder, dataset, batch_size=64, precision=None,
                  workers=None):
    """Embed every sequence; returns ``(N, d)`` float array.

    ``encoder`` is a repro sequence encoder or a ready
    :class:`~repro.runtime.FusedEncoderRuntime`.  ``precision`` and
    ``workers`` configure the runtime's dtype policy and bucket-parallel
    worker count (None: the runtime's own).  A runtime keeps its
    precision: asking it for a different one raises ``ValueError``.
    Batches take at least ``batch_size`` rows; recurrent encoders take
    more for sequences shorter than
    :data:`~repro.data.bucketing.BUDGET_STEPS` steps (the bulk plan of
    :meth:`~repro.runtime.FusedEncoderRuntime.run_dataset`).
    """
    runtime = FusedEncoderRuntime.of(encoder, precision)
    return runtime.embed_dataset(dataset, batch_size=batch_size,
                                 workers=workers)


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
