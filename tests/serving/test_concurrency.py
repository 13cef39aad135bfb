"""EmbeddingService under concurrency: held flushes and a threaded stress run.

A flush drains the buffer under the service lock, computes with the lock
released, and publishes its states (store scatter plus cache
invalidation) under the lock again.  The held-flush tests patch
``repro.serving.service.advance_entities`` so a flush stops between its
drain and its compute, then check what the rest of the service does
meanwhile: a query of another entity returns, a query of an in-flight
entity waits for the publish (and records the wait as ``lock_wait``),
the append-only check still sees the in-flight chunk, membership counts
in-flight entities, and ``bulk_load``/``load``/``save`` wait for the
publish.  The stress test runs synchronous producers, an async pipeline
and readers together and checks every served row against cold
recomputes of that entity's prefixes.
"""

import bisect
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.inference import embed_dataset
from repro.data.sequences import EventSequence, SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.serving import AsyncIngestPipeline, EmbeddingService
from repro.serving import service as service_module

WAIT = 10.0     # bound on any wait a passing run finishes in milliseconds
PROMPT = 2.0    # bound on a call that must not wait for the held flush
HOLD = 0.2      # how long a call that must wait is seen waiting
ATOL = 1e-10    # float64 parity with a cold recompute


@pytest.fixture(scope="module")
def dataset():
    return make_churn_dataset(num_clients=12, mean_length=30, min_length=12,
                              max_length=60, seed=21)


@pytest.fixture(scope="module")
def encoder(dataset):
    encoder = build_encoder(dataset.schema, 12, "gru",
                            rng=np.random.default_rng(0))
    encoder.eval()
    return encoder


def _cold(encoder, sequences, schema):
    """float64 cold embeddings ``(N, d)`` of whole sequences."""
    return embed_dataset(encoder, SequenceDataset(list(sequences), schema),
                         precision="float64")


def _chunk(entity_id, times, schema):
    fields = {schema.time_field: np.asarray(times, dtype=np.float64)}
    for name in schema.categorical:
        fields[name] = np.ones(len(times), dtype=np.int64)
    for name in schema.numerical:
        fields[name] = np.ones(len(times), dtype=np.float64)
    return EventSequence(seq_id=entity_id, fields=fields, label=None)


def _wait_until(predicate, timeout=WAIT):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


class Call(threading.Thread):
    """``fn(*args)`` on its own thread; :meth:`result` joins and returns."""

    def __init__(self, fn, *args):
        super().__init__(daemon=True)
        self.fn, self.args = fn, args
        self.value = self.error = None
        self.start()

    def run(self):
        try:
            self.value = self.fn(*self.args)
        except Exception as error:  # re-raised by result()
            self.error = error

    def result(self, timeout=WAIT):
        self.join(timeout)
        assert not self.is_alive(), "call still running after %gs" % timeout
        if self.error is not None:
            raise self.error
        return self.value


class HeldFlush:
    """The service's ``advance_entities``, stopped until :meth:`release`."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.released = threading.Event()
        original = service_module.advance_entities

        def held(*args, **kwargs):
            self.entered.set()
            self.released.wait(WAIT)
            return original(*args, **kwargs)

        monkeypatch.setattr(service_module, "advance_entities", held)

    def start(self, service, chunk):
        """Buffer ``chunk``, then flush it on a thread; returns the call
        once the flush holds its drained chunk in flight."""
        service.ingest(chunk)
        flush = Call(service.flush)
        assert self.entered.wait(WAIT)
        return flush

    def release(self):
        self.released.set()


@pytest.fixture
def held(monkeypatch):
    hold = HeldFlush(monkeypatch)
    yield hold
    hold.release()  # never leave a test's threads stopped


@pytest.fixture
def split(dataset):
    """``(history, tails)``: the first and last halves of each sequence."""
    history = [seq.slice(0, len(seq) // 2) for seq in dataset]
    tails = [seq.slice(len(seq) // 2, len(seq)) for seq in dataset]
    return SequenceDataset(history, dataset.schema), tails


def _service(encoder, schema, history=None, **kwargs):
    kwargs.setdefault("num_shards", 4)
    kwargs.setdefault("flush_events", 10_000)
    service = EmbeddingService(encoder, schema, precision="float64",
                               **kwargs)
    if history is not None:
        service.bulk_load(history)
    return service


class TestHeldFlush:
    def test_query_of_another_entity_returns(self, dataset, encoder, split,
                                             held):
        history, tails = split
        service = _service(encoder, dataset.schema, history)
        flush = held.start(service, tails[0])
        other = history[1].seq_id
        query = Call(service.query, [other])
        query.join(PROMPT)
        assert not query.is_alive(), "query waited for another entity"
        np.testing.assert_allclose(
            query.result(), _cold(encoder, [history[1]], dataset.schema),
            atol=ATOL)
        held.release()
        assert flush.result() == [tails[0].seq_id]

    def test_query_of_an_in_flight_entity_waits_for_the_publish(
            self, dataset, encoder, split, held):
        history, tails = split
        service = _service(encoder, dataset.schema, history)
        first, other = tails[0].seq_id, history[1].seq_id
        flush = held.start(service, tails[0])
        query = Call(service.query, [first, other])
        assert _wait_until(lambda: service.queries == 2)  # it has entered
        blocked_at = time.perf_counter()
        query.join(HOLD)
        assert query.is_alive(), "query read an entity still in flight"
        released_at = time.perf_counter()
        held.release()
        served = query.result()
        flush.result()
        np.testing.assert_allclose(
            served, _cold(encoder, [dataset[0], history[1]], dataset.schema),
            atol=ATOL)
        lock_wait = service.stats()["latency_ms"]["lock_wait"]
        assert lock_wait["count"] == 1
        assert lock_wait["max"] >= (released_at - blocked_at) * 1e3

    def test_out_of_order_chunk_for_an_in_flight_entity_raises(
            self, dataset, encoder, held):
        schema = dataset.schema
        service = _service(encoder, schema)
        flush = held.start(service, _chunk("new", [1.0, 2.0, 3.0], schema))
        late = Call(service.ingest, _chunk("new", [2.5], schema))
        with pytest.raises(ValueError, match="out-of-order"):
            late.result(PROMPT)
        # An in-order chunk is accepted and stays buffered meanwhile.
        assert Call(service.ingest,
                    _chunk("new", [3.0, 4.0], schema)).result(PROMPT) == 2
        held.release()
        assert flush.result() == ["new"]
        assert service.stats()["pending_events"] == 2
        np.testing.assert_allclose(
            service.query(["new"]),
            _cold(encoder, [_chunk("new", [1.0, 2.0, 3.0, 3.0, 4.0],
                                   schema)], schema),
            atol=ATOL)

    def test_membership_counts_in_flight_entities(self, dataset, encoder,
                                                  held):
        schema = dataset.schema
        service = _service(encoder, schema)
        flush = held.start(service, _chunk("new", [1.0, 2.0], schema))
        assert Call(service.__contains__, "new").result(PROMPT)
        assert not Call(service.__contains__, "other").result(PROMPT)
        held.release()
        flush.result()
        assert "new" in service

    @pytest.mark.parametrize("operation", ["bulk_load", "load", "save"])
    def test_whole_state_operations_wait_for_the_publish(
            self, dataset, encoder, split, held, operation, tmp_path):
        history, tails = split
        schema = dataset.schema
        service = _service(encoder, schema, history)
        bundle = tmp_path / "bundle"
        if operation == "load":
            service.save(bundle)  # the history state
        flush = held.start(service, tails[0])
        call = Call({"bulk_load": lambda: service.bulk_load(history),
                     "load": lambda: service.load(bundle),
                     "save": lambda: service.save(bundle)}[operation])
        call.join(HOLD)
        assert call.is_alive(), "%s ran during a flush" % operation
        held.release()
        call.result()
        flush.result()
        first = tails[0].seq_id
        if operation == "save":
            # The bundle holds the published state.
            served = _service(encoder, schema).load(bundle).query([first])
            expected = _cold(encoder, [dataset[0]], schema)
        else:
            # The reload replaced the published state, not the reverse.
            served = service.query([first])
            expected = _cold(encoder, [history[0]], schema)
        np.testing.assert_allclose(served, expected, atol=ATOL)


class TestBulkLoadRefusesBufferedEvents:
    def test_bulk_load_with_buffered_events_raises(self, dataset, encoder):
        """Re-bulk-loading under buffered events would apply them twice."""
        schema = dataset.schema
        seq = dataset[0]
        service = _service(encoder, schema, flush_events=1000)
        service.bulk_load(SequenceDataset([seq.slice(0, 5)], schema))
        service.ingest(seq.slice(5, 8))
        with pytest.raises(RuntimeError, match="buffered events"):
            service.bulk_load(SequenceDataset([seq.slice(0, 10)], schema))
        service.flush()
        np.testing.assert_allclose(service.query([seq.seq_id]),
                                   _cold(encoder, [seq.slice(0, 8)], schema),
                                   atol=ATOL)
        assert service.store.last_time(seq.seq_id) == \
            seq.fields[schema.time_field][7]


def test_service_is_freed_without_the_cycle_collector(dataset, encoder):
    """The batcher's append-only check must not hold the service: a cycle
    keeps every discarded service (and its states) alive until the
    cyclic collector runs."""
    schema = dataset.schema
    enabled = gc.isenabled()
    gc.disable()
    try:
        service = _service(encoder, schema, flush_events=4)
        service.ingest([_chunk("a", [1.0, 2.0, 3.0], schema),
                        _chunk("a", [4.0, 5.0], schema)])
        service.query(["a"])
        freed = weakref.ref(service)
        del service
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_threaded_stress_serves_only_chunk_prefixes(dataset, encoder):
    """Two sync producers, an async pipeline and three readers at once.

    Every served row equals the cold embedding of a prefix of that
    entity's chunks: at least the chunks whose ingest returned before the
    query began, at most the chunks submitted before it returned.  After
    the pipeline drains, every entity equals its full cold recompute.
    """
    schema = dataset.schema
    history, bounds = [], {}
    for seq in dataset:
        start = len(seq) // 3
        history.append(seq.slice(0, start))
        bounds[seq.seq_id] = list(range(start, len(seq), 2)) + [len(seq)]
    chunks = {seq.seq_id: [seq.slice(a, b) for a, b in
                           zip(bounds[seq.seq_id][:-1],
                               bounds[seq.seq_id][1:])]
              for seq in dataset}
    prefixes = [seq.slice(0, cut) for seq in dataset
                for cut in bounds[seq.seq_id]]
    cold_rows = iter(_cold(encoder, prefixes, schema))
    cold = {seq.seq_id: np.array([next(cold_rows)
                                  for _ in bounds[seq.seq_id]])
            for seq in dataset}

    service = _service(encoder, schema, SequenceDataset(history, schema),
                       flush_events=8, cache_capacity=4)
    ids = [seq.seq_id for seq in dataset]
    groups = [ids[0::3], ids[1::3], ids[2::3]]  # sync, sync, pipeline

    def schedule(group):
        """The group's chunks, round-robin over its entities."""
        longest = max(len(chunks[entity_id]) for entity_id in group)
        return [chunks[entity_id][k] for k in range(longest)
                for entity_id in group if k < len(chunks[entity_id])]

    begun = dict.fromkeys(ids, 0)     # ingest/submit called
    returned = dict.fromkeys(ids, 0)  # sync ingest returned
    piped = schedule(groups[2])
    piped_at = {entity_id: [k for k, chunk in enumerate(piped)
                            if chunk.seq_id == entity_id]
                for entity_id in groups[2]}
    stop = threading.Event()
    errors, checked = [], [0]

    def produce(group):
        try:
            for chunk in schedule(group):
                begun[chunk.seq_id] += 1
                service.ingest(chunk)
                returned[chunk.seq_id] += 1
        except Exception as error:
            errors.append(error)

    def submit(pipeline):
        try:
            for chunk in piped:
                begun[chunk.seq_id] += 1
                pipeline.submit(chunk)
        except Exception as error:
            errors.append(error)

    def applied(pipeline, entity_id):
        """Chunks of a piped entity that the flusher has applied."""
        done = pipeline.stats()["applied_chunks"]
        return bisect.bisect_left(piped_at[entity_id], done)

    def read(pipeline, seed):
        rng = np.random.default_rng(seed)
        try:
            while not stop.is_set():
                picked = [ids[i] for i in rng.integers(0, len(ids), 3)]
                low = [applied(pipeline, entity_id)
                       if entity_id in piped_at else returned[entity_id]
                       for entity_id in picked]
                served = service.query(picked)
                high = [begun[entity_id] for entity_id in picked]
                for row, entity_id, lo, hi in zip(served, picked, low, high):
                    gaps = np.abs(cold[entity_id][lo:hi + 1] - row).max(1)
                    if not gaps.min() <= ATOL:
                        errors.append(AssertionError(
                            "entity %r served no prefix of %d..%d chunks"
                            % (entity_id, lo, hi)))
                        return
                    checked[0] += 1
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with AsyncIngestPipeline(service, max_pending_events=16) as pipeline:
            readers = [threading.Thread(target=read, args=(pipeline, seed))
                       for seed in range(3)]
            writers = [threading.Thread(target=produce, args=(group,))
                       for group in groups[:2]]
            writers.append(threading.Thread(target=submit, args=(pipeline,)))
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(WAIT)
                assert not thread.is_alive()
            stop.set()
            for thread in readers:
                thread.join(WAIT)
                assert not thread.is_alive()
            pipeline.drain()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not errors, errors[:3]
    assert checked[0] > 0
    assert service.stats()["pending_events"] == 0
    np.testing.assert_allclose(
        service.query(ids), np.array([cold[entity_id][-1]
                                      for entity_id in ids]), atol=ATOL)
