"""Span tracing for the benchmark's traced runs (``--trace 1``).

The tracer wraps public functions of each ``repro`` layer from outside the
package: it swaps the attribute a caller looks up (a module global or a
class method) for a wrapper that records one span per call and restores
the original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

A span is ``(name, start, end, span_id, parent_id, trace_id)`` with
``perf_counter`` seconds.  The parent is the innermost traced call still
open on the same thread; spans nested under one root call (one query, one
flush, one training step) share the root's ``trace_id``.  Spans stay in
memory and are written out once, by :meth:`Tracer.write`.
"""

import functools
import itertools
import threading
import time

import numpy as np

from repro.core import batching
from repro.data import batches
from repro.nn.optim import Adam
from repro.runtime import attention, engine, kernels, store, training
from repro.runtime.engine import FusedEncoderRuntime
from repro.runtime.training import FusedTrainStep
from repro.serving import pipeline, service, sharding
from repro.serving.microbatch import MicroBatcher


def _note_padding(tracer, batch):
    """Collate hook: padded cells and all ``B * T`` cells of a batch."""
    cells = batch.batch_size * batch.max_length
    tracer.note("data.padded_cells", cells - int(batch.lengths.sum()))
    tracer.note("data.cells", cells)


def _note_batches(tracer, result):
    """advance_entities hook: fused batches the bucketed plan ran."""
    tracer.note("runtime.store.batches", result.batches)


#: (span name, sites where callers look the callable up, result hook).
#: Every site of one name holds the same original callable.
SITES = [
    ("data.collate",
     [(batches, "collate"), (engine, "collate"), (store, "collate"),
      (batching, "collate")], _note_padding),
    ("encoders.encode_events",
     [(FusedEncoderRuntime, "encode_events")], None),
    ("runtime.kernels.rnn_forward", [(kernels, "rnn_forward")], None),
    ("runtime.attention.transformer_forward",
     [(attention, "transformer_forward")], None),
    ("runtime.store.bulk_load_states",
     [(store, "bulk_load_states"), (sharding, "bulk_load_states")], None),
    ("runtime.store.advance_entities",
     [(store, "advance_entities"), (sharding, "advance_entities"),
      (service, "advance_entities")], _note_batches),
    ("serving.sharding.state_of",
     [(sharding.ShardedEmbeddingStore, "state_of")], None),
    ("serving.sharding.put_state",
     [(sharding.ShardedEmbeddingStore, "put_state")], None),
    ("serving.sharding.embeddings",
     [(sharding.ShardedEmbeddingStore, "embeddings")], None),
    ("serving.microbatch.add", [(MicroBatcher, "add")], None),
    ("serving.microbatch.drain", [(MicroBatcher, "drain")], None),
    ("serving.service.query", [(service.EmbeddingService, "query")], None),
    ("serving.pipeline.submit",
     [(pipeline.AsyncIngestPipeline, "submit")], None),
    ("core.batching.augment_batch", [(batching, "augment_batch")], None),
    ("runtime.training.forward", [(FusedTrainStep, "forward")], None),
    ("runtime.training.backward", [(FusedTrainStep, "backward")], None),
    ("losses.loss_gradient", [(training, "loss_gradient")], None),
    ("nn.optim.step", [(Adam, "step")], None),
]


class Tracer:
    """In-memory span recorder over the layer :data:`SITES`."""

    def __init__(self):
        self.spans = []
        self.notes = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def note(self, key, value):
        """Record ``value`` under ``key``; :meth:`total` sums them.

        Hooks run on any thread, so values are appended (atomic) rather
        than added into a shared total.
        """
        self.notes.setdefault(key, []).append(value)

    def _wrap(self, name, original, hook):
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent_id, trace_id = stack[-1] if stack else (0, span_id)
            stack.append((span_id, trace_id))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent_id, trace_id))
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self):
        """Swap every site for its traced wrapper; idempotent."""
        if self._patches:
            return
        for name, places, hook in SITES:
            owner, attr = places[0]
            traced = self._wrap(name, vars(owner)[attr], hook)
            for owner, attr in places:
                self._patches.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, traced)

    def uninstall(self):
        """Restore every original callable."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def summary(self, intervals=None):
        """Per-name ``{calls, ms, self_ms}``; ``intervals`` limits by start."""
        children = {}
        for _, start, end, _, parent_id, _ in self.spans:
            if parent_id:
                children[parent_id] = children.get(parent_id, 0.0) + end - start
        out = {}
        for name, start, end, span_id, _, _ in self.spans:
            if intervals is not None and not any(
                    low <= start < high for low, high in intervals):
                continue
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - children.get(span_id, 0.0)) * 1e3
        return out

    def total(self, key):
        return sum(self.notes.get(key, ()))

    def write(self, path):
        """Write every span as columns of one ``.npz`` file."""
        names = sorted({span[0] for span in self.spans})
        code = {name: index for index, name in enumerate(names)}
        columns = list(zip(*self.spans)) or [()] * 6
        np.savez(path, names=np.array(names),
                 name=np.array([code[n] for n in columns[0]], dtype=np.int16),
                 start=np.array(columns[1], dtype=np.float64),
                 end=np.array(columns[2], dtype=np.float64),
                 span_id=np.array(columns[3], dtype=np.int64),
                 parent_id=np.array(columns[4], dtype=np.int64),
                 trace_id=np.array(columns[5], dtype=np.int64))


class TraceWindow:
    """Tracing plan of one run's timed phase.

    Untraced runs never trace.  A traced run traces set-up, then alternates
    the timed phase's windows (rounds, or slices of time): even windows run
    untraced and odd ones traced.  Both kinds then see the same drift of
    program state and host speed, and comparing them gives the tracing
    overhead on the workload's primary metric.  Workloads call
    :meth:`poll` as each window starts.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.intervals = []   # [start, end] of each traced window

    @property
    def tracing(self):
        return bool(self.intervals) and self.intervals[-1][1] is None

    def begin_setup(self):
        if self.tracer is not None:
            self.tracer.install()

    def begin_timed(self, started, seconds):
        """Start the timed phase at ``started``; returns its deadline."""
        if self.tracer is not None:
            self.tracer.uninstall()
        return started + seconds

    def poll(self, now, index):
        """Window ``index`` has started at ``now``; odd windows are traced."""
        if self.tracer is None or (index % 2 == 1) == self.tracing:
            return
        if self.tracing:
            self.tracer.uninstall()
            self.intervals[-1][1] = now
        else:
            self.tracer.install()
            self.intervals.append([now, None])

    def traced(self, when):
        """Whether an operation that started at ``when`` ran traced."""
        return any(start <= when < end for start, end in self.intervals)

    def traced_seconds(self):
        return sum(end - start for start, end in self.intervals)

    def end_timed(self, now):
        if self.tracer is not None:
            self.tracer.uninstall()
            if self.tracing:
                self.intervals[-1][1] = now
