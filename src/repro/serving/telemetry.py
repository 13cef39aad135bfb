"""Lightweight latency percentiles for the serving read/write path.

Production feature stores state their SLOs in *tail* latency — the p99
of a query issued while ingest pressure is high — not in mean
throughput.  :class:`LatencyRecorder` is the measurement side of that
contract: every service operation (``ingest`` / ``flush`` / ``query``)
records its wall-clock duration with :meth:`LatencyRecorder.record`,
and :meth:`EmbeddingService.stats` exposes the reduced percentiles as
its ``latency_ms`` subtree — the same numbers the million-entity stress
benchmark records into ``BENCH_serving.json`` and CI gates
(``latency_ms.query.p99=lower``).

Each operation has its own lock, so the producer's per-chunk ``ingest``
samples never hold the lock a query takes for its ``query`` and
``lock_wait`` samples.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["LatencyRecorder"]


class _Series:
    """One operation's samples: a ring, lifetime count and total, a lock."""

    __slots__ = ("lock", "ring", "count", "total")

    def __init__(self, capacity):
        self.lock = threading.Lock()
        self.ring = np.zeros(capacity, dtype=np.float64)
        self.count = 0
        self.total = 0.0


class LatencyRecorder:
    """Thread-safe per-operation latency samples with percentile summaries.

    Each named operation keeps its most recent ``capacity`` wall-clock
    samples in a fixed-size float64 ring buffer — recording is O(1),
    allocation-free after the first sample, and cheap enough
    (microseconds) to sit on the hot serving path.  Lifetime sample
    count and total are kept alongside, so :meth:`summary` reports an
    exact ``count``/``mean`` while the percentiles describe the retained
    window.  All methods are safe to call from any thread: each
    operation's samples have their own lock, and one more guards only
    the map from operation to samples, so no sample is ever torn or
    lost and recording one operation never waits for another.
    """

    #: Percentiles reported by :meth:`summary` (as ``p50``/``p95``/``p99``).
    PERCENTILES = (50, 95, 99)

    def __init__(self, capacity=65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()  # guards the map, not the samples
        self._series = {}              # op -> _Series

    def record(self, op, seconds):
        """Add one sample: ``seconds`` (a float scalar) spent in ``op``."""
        seconds = float(seconds)
        series = self._series.get(op)
        if series is None:
            with self._lock:
                series = self._series.get(op)
                if series is None:
                    series = self._series[op] = _Series(self.capacity)
        with series.lock:
            series.ring[series.count % self.capacity] = seconds
            series.count += 1
            series.total += seconds

    @contextmanager
    def time(self, op):
        """Record the wall-clock duration of the ``with`` body as ``op``.

        The sample is recorded even when the body raises — a failed call
        still occupied the operation's latency budget.
        """
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record(op, time.perf_counter() - start)

    def operations(self):
        """Sorted names of every operation with at least one sample."""
        with self._lock:
            return sorted(op for op, series in self._series.items()
                          if series.count)

    def summary(self):
        """Millisecond statistics per operation.

        Returns ``{op: {"count", "mean", "p50", "p95", "p99", "max"}}``
        — floats in milliseconds, except ``count`` (lifetime sample
        count).  ``mean`` is exact over the lifetime; the percentiles
        and ``max`` cover the retained window of up to ``capacity`` most
        recent samples.  Each operation's lock is held only to copy its
        window; the percentiles are computed outside it.
        """
        with self._lock:
            series_of = list(self._series.items())
        out = {}
        for op, series in series_of:
            with series.lock:
                count, total = series.count, series.total
                window = series.ring[:min(count, self.capacity)].copy()
            if not count:
                continue  # created by a record that has not written yet
            top = float(window.max())
            quantiles = np.percentile(window, self.PERCENTILES,
                                      overwrite_input=True)
            stats = {
                "count": int(count),
                "mean": float(total / count) * 1e3,
                "max": top * 1e3,
            }
            for tag, value in zip(self.PERCENTILES, quantiles):
                stats["p%d" % tag] = float(value) * 1e3
            out[op] = stats
        return out

    def reset(self):
        """Drop every sample and counter (e.g. after a warm-up phase)."""
        with self._lock:
            self._series = {}
