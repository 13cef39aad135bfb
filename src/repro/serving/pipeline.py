"""Asynchronous ingest: a bounded pending queue + background flusher.

Synchronous :meth:`~repro.serving.EmbeddingService.ingest` makes an
unlucky producer pay for the whole fused flush its chunk happens to
trigger — tens of milliseconds on a call that usually costs
microseconds.  :class:`AsyncIngestPipeline` decouples the two halves:
:meth:`~AsyncIngestPipeline.submit` enqueues chunks into a bounded
pending queue (``max_pending_events`` backpressure — block until the
flusher catches up, or reject immediately with a typed
:class:`BackpressureError`), and one background flusher thread applies
them to the service in submission order.

**Equivalence.** A single consumer draining a FIFO replays *exactly*
the ``batcher.add`` / threshold-flush call sequence the synchronous
path would have run, so after :meth:`~AsyncIngestPipeline.drain` the
service state — and every embedding — is bit-identical to having called
``service.ingest`` inline, for any precision, backend or codec
(asserted in ``tests/serving/test_async_pipeline.py``).  Concurrent
queries keep the service's never-stale contract over *applied and
buffered* events; a chunk still sitting in the pipeline queue is not
visible yet — ``drain()`` is the read-your-writes barrier.  Queries
that force partial flushes of buffered entities regroup the fused
batches, which keeps results within the runtime's precision drift
bounds (float32 ~1e-5, float64 ~1e-10) instead of bit-identical — the
same caveat the synchronous service has.

**Handoff.** ``submit`` sizes each chunk once and queues it as
``(chunk, size)``; the size travels on to the service's buffer append,
so the flusher counts no events itself.  Per chunk the flusher takes
the pipeline's condition twice (to take the chunk, then to settle it:
counters, freed room, wake-ups) and the service lock once.  Chunks are
applied one per service-lock hold on purpose: a query that wants the
lock waits for at most one chunk's buffer append, and each chunk's room
is freed as soon as it is applied.  Applying every queued chunk
under one hold, or freeing the room of a taken batch only after the
whole batch, both lengthened the query tail.  ``submit`` times each
chunk with ``perf_counter`` and records the sample in a ``finally``,
so a rejected or failed submit still records one.

**Threading.** Plain ``threading.Thread``, no ``asyncio``: the heavy
work (fused kernels through BLAS) releases the GIL, the service's lock
guards its buffer, store and cache (a flush computes with it released,
so queries of other entities go on meanwhile), and no shared state is
ever mutated from thread-pool workers — reprolint's RP004 thread-purity
contract holds with zero suppressions.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..data.sequences import EventSequence
from .microbatch import chunk_size

__all__ = ["AsyncIngestPipeline", "BackpressureError"]


class BackpressureError(RuntimeError):
    """``submit`` rejected a chunk: the pending queue is full.

    Raised only under ``on_full="reject"``.  Carries the queue state at
    rejection time so callers can implement retry/shed policies.
    """

    def __init__(self, message, pending_events, max_pending_events):
        super().__init__(message)
        self.pending_events = int(pending_events)
        self.max_pending_events = int(max_pending_events)


class AsyncIngestPipeline:
    """Bounded async ingest queue in front of an :class:`EmbeddingService`.

    Parameters
    ----------
    service:
        The :class:`~repro.serving.EmbeddingService` to feed.  The
        pipeline owns no state of its own beyond the queue — counters,
        cache, store and latency telemetry all live on the service, so
        ``service.stats()`` stays the single observability surface.
    max_pending_events:
        Backpressure bound: the maximum number of events (not chunks)
        queued but not yet applied.  A chunk larger than the whole bound
        is admitted alone once the queue is empty — otherwise it could
        never be accepted.
    on_full:
        ``"block"`` (default) makes ``submit`` wait until the flusher
        frees room; ``"reject"`` raises :class:`BackpressureError`
        immediately.

    ``submit`` latency (enqueue + any backpressure wait) is recorded as
    the service's ``ingest`` operation — the producer-visible ingest
    cost, directly comparable to synchronous ``service.ingest`` samples.
    Use as a context manager to guarantee :meth:`close`.
    """

    def __init__(self, service, max_pending_events=8192, on_full="block"):
        if max_pending_events < 1:
            raise ValueError("max_pending_events must be >= 1")
        if on_full not in ("block", "reject"):
            raise ValueError("on_full must be 'block' or 'reject' (got %r)"
                             % (on_full,))
        self.service = service
        self.max_pending_events = int(max_pending_events)
        self.on_full = on_full
        self._cond = threading.Condition()
        self._queue = deque()      # pending chunks, submission order
        self._pending_events = 0   # events queued + in the in-flight chunk
        self._inflight = 0         # events of the chunk being applied
        self._errors = deque()     # exceptions deferred to drain()/close()
        self._closed = False
        self.submitted_chunks = 0
        self.submitted_events = 0
        self.applied_chunks = 0
        self.rejected_chunks = 0
        self.blocked_submits = 0
        self.errors_seen = 0
        self._flusher = threading.Thread(target=self._drain_loop,
                                         name="repro-ingest-flusher",
                                         daemon=True)
        self._flusher.start()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, events):
        """Enqueue one chunk (or an iterable of chunks) for async ingest.

        Type and emptiness are validated here, synchronously — those are
        producer bugs and should raise at the call site.  The
        append-only time-order contract needs buffered state, so it is
        checked by the flusher when the chunk is applied; a violation is
        deferred and re-raised by :meth:`drain` (other chunks are still
        applied).  Returns the number of events accepted.
        """
        chunks = [events] if isinstance(events, EventSequence) else events
        accepted = 0
        record, clock = self.service.latency.record, time.perf_counter
        for chunk in chunks:
            size = chunk_size(chunk)
            start = clock()
            try:
                self._enqueue(chunk, size)
            finally:
                record("ingest", clock() - start)
            accepted += size
        return accepted

    def _enqueue(self, chunk, size):
        """Queue one validated ``size``-event chunk, honouring backpressure."""
        with self._cond:
            if self._closed:
                raise RuntimeError("pipeline is closed")
            blocked = False
            # The `pending > 0` clause admits an oversize chunk alone
            # once the queue is empty — otherwise it could never fit and
            # block/reject would livelock the producer.
            while (self._pending_events + size > self.max_pending_events
                   and self._pending_events > 0):
                if self.on_full == "reject":
                    self.rejected_chunks += 1
                    raise BackpressureError(
                        "ingest queue full: %d events pending against "
                        "max_pending_events=%d"
                        % (self._pending_events, self.max_pending_events),
                        self._pending_events, self.max_pending_events,
                    )
                if not blocked:
                    blocked = True
                    self.blocked_submits += 1
                self._cond.wait()
                if self._closed:
                    raise RuntimeError("pipeline closed while submit was "
                                       "blocked on backpressure")
            self._queue.append((chunk, size))
            self._pending_events += size
            self.submitted_chunks += 1
            self.submitted_events += size
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # consumer side (the flusher thread)
    # ------------------------------------------------------------------
    def _drain_loop(self):
        """Apply queued chunks in FIFO order until closed and empty.

        Two ``_cond`` holds per chunk: one takes it off the queue, one
        settles it (the applied or deferred-error counter, its pending
        room, and the wake-up of blocked producers and ``drain``).
        """
        cond, queue = self._cond, self._queue
        apply = self.service._apply_chunk
        while True:
            with cond:
                while not queue and not self._closed:
                    cond.wait()
                if not queue:
                    return  # closed, nothing left to apply
                chunk, size = queue.popleft()
                self._inflight = size
            # The service's own lock guards this against every
            # synchronous ingest/flush/query — the pipeline never
            # touches store, batcher or cache directly.  One chunk per
            # service-lock hold: a query waits for at most one chunk.
            error = None
            try:
                apply(chunk, size)
            except Exception as caught:  # deferred, surfaced at drain()
                error = caught
            with cond:
                if error is None:
                    self.applied_chunks += 1
                else:
                    self._errors.append(error)
                    self.errors_seen += 1
                self._pending_events -= size
                self._inflight = 0
                cond.notify_all()

    # ------------------------------------------------------------------
    # barriers and lifecycle
    # ------------------------------------------------------------------
    @property
    def pending_events(self):
        """Events submitted but not yet applied (queued + in flight)."""
        with self._cond:
            return self._pending_events

    def drain(self):
        """Block until every submitted chunk is applied, then flush.

        The read-your-writes barrier: afterwards the service state is
        exactly the synchronous ingest of every submitted chunk and
        nothing is buffered.  Returns the entity ids the final flush
        refreshed.  The oldest exception the flusher deferred (e.g. an
        out-of-order chunk) is re-raised here — one per ``drain`` call;
        ``stats()["deferred_errors"]`` counts them all.
        """
        with self._cond:
            while self._queue or self._inflight:
                self._cond.wait()
            error = self._errors.popleft() if self._errors else None
        if error is not None:
            raise error
        return self.service.flush()

    def close(self, drain=True):
        """Stop the flusher thread; idempotent.

        ``drain=True`` (default) runs a full :meth:`drain` first —
        applying and flushing everything and re-raising deferred errors.
        ``drain=False`` skips the final flush and error check but still
        lets the flusher finish chunks already queued (nothing is
        discarded).  Afterwards ``submit`` raises — also when the drain
        re-raised a deferred error: the pipeline is closed and the
        flusher joined before the error propagates.
        """
        try:
            if drain and self._flusher.is_alive():
                self.drain()
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify_all()
            self._flusher.join()
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        # After an exception in the body, close without draining so the
        # original error is not masked by a deferred ingest error.
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------
    def stats(self):
        """Pipeline telemetry: knobs, queue depth and lifetime counters."""
        with self._cond:
            return {
                "max_pending_events": self.max_pending_events,
                "on_full": self.on_full,
                "queued_events": self._pending_events,
                "queued_chunks": (len(self._queue)
                                  + (1 if self._inflight else 0)),
                "submitted_chunks": self.submitted_chunks,
                "submitted_events": self.submitted_events,
                "applied_chunks": self.applied_chunks,
                "rejected_chunks": self.rejected_chunks,
                "blocked_submits": self.blocked_submits,
                "deferred_errors": self.errors_seen,
                "closed": self._closed,
            }
