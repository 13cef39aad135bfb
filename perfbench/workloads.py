"""The benchmark's workloads: inputs from a seed, set-up, timed loop, checks.

Each ``run_<workload>(seed, seconds, scale, window)`` returns a
:class:`Outcome`.  Inputs are generated from the seed before anything is
timed; the program under test only ever sees those inputs.  Output checks
run after the timed phase.

Every workload reports the same end-to-end metrics, defined per workload:

- ``setup_s``: median of several set-ups, from construction until the
  first timed operation can run;
- ``events_per_s``: the workload's event throughput, the median over the
  timed phase's windows (rounds of identical work, or slices of time);
- ``op_p50_ms`` / ``op_p90_ms``: latency of the workload's unit operation,
  over every operation of the timed phase.  The 99th percentile is
  printed too, but not reported: on a shared host its run-to-run spread
  is wider than any useful regression bound;
- ``peak_rss_mb``: peak resident memory of the process, read as the timed
  phase ends and before the output checks, so the checks' float64
  references do not count.

Timings are host-normalised.  The hosts this runs on are shared, and their
speed flips between levels about 1.5x apart within seconds.  A fixed probe
(pure Python plus small float32 GEMMs) is timed before and after every
set-up and round, and, at a tenth of its size, four times a second through
the live phase of ``stream_query``; each timing is scaled by the mean
``probe time / PROBE_REF_S`` around it, which reads it as if the host ran
at the probe's reference speed.  The raw figures and the host factor are
printed beside the normalised ones.  On a shared 2-vCPU VM, two sets of 10
seeds per workload had medians within 14% of each other for every
normalised timing, and up to 43% apart for the raw ones.
"""

import gc
import math
import resource
import statistics
import threading
import time

import numpy as np

from repro.augmentations import RandomSlices
from repro.core import ContrastiveTrainer, TrainConfig
from repro.core.inference import embed_dataset
from repro.data.sequences import EventSequence, SequenceDataset
from repro.data.synthetic import (make_churn_dataset, make_stress_history,
                                  make_stress_stream)
from repro.encoders import build_encoder
from repro.losses import ContrastiveLoss
from repro.runtime import FusedEncoderRuntime
from repro.serving import AsyncIngestPipeline, EmbeddingService

#: Float32 outputs against their float64 or cold-recompute reference.
ATOL = 1e-5

# embed_longtail: (clients, mean events) cohorts, many light users and a
# tail up to MAX_EVENTS, as in benchmarks/test_bench_inference.py x8.
EMBED_COHORTS = [(1280, 20), (800, 80), (320, 350)]
MAX_EVENTS = 450
COHORT_ID_STRIDE = 1_000_000   # client id = cohort * stride + id in cohort
EMBED_HIDDEN = 48
#: Transformer requests per cohort: the median request falls mid-way
#: through the medium cohort and the 90th percentile among heavy users.
TRX_REQUESTS = (60, 60, 30)

# stream_query.
STREAM_ENTITIES = 100_000
STREAM_ACTIVE = 25_000
STREAM_CHUNKS_PER_ENTITY = 20   # ~2M events, more than a live phase takes
STREAM_HIDDEN = 32
FLUSH_EVENTS = 1024
MAX_PENDING = 8192
CACHE_CAPACITY = 4096
READER_RATE = 150.0     # query batches per second, open loop
QUERY_IDS = 8           # entity ids per query batch
STREAM_SHARE = 0.25     # share of queried ids drawn from the streaming set
ZIPF_EXPONENT = 1.2
COLD_CHECK = 2000
WINDOW_S = 1.0          # live-phase window width
STREAM_SETUPS = 5
#: The live phase runs a probe of this size (about 1.6 ms) every
#: PROBE_EVERY seconds, which takes 0.6% of the CPU from the flusher and
#: the reader; a window's host factor is the mean of its probes.
LIVE_PROBE = 0.1
PROBE_EVERY = 0.25

# train_coles.
TRAIN_COHORTS = [(200, 30), (140, 90), (60, 220)]
TRAIN_HIDDEN = 48
TRAIN_BATCH = 16
LOSS_RTOL = 1e-3        # float32 step losses vs the float64 reference fit
LOSS_ATOL = 1e-4

QUICK_SETUPS = 9

#: Time of :func:`probe` on an idle host: a 2-vCPU Linux VM with one
#: OpenBLAS thread, the machine the benchmark was sized on.
PROBE_REF_S = 0.016
PROBE_MATRIX = np.random.default_rng(0).random((64, 64)).astype(np.float32)


class Outcome:
    """What a workload run measured and checked."""

    def __init__(self):
        self.metrics = {}      # name -> (value, unit)
        self.layers = {}       # per-layer figures the workload owns
        self.lines = []        # human-readable report lines
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.primary = {}      # "untraced"/"traced" -> primary metric

    def metric(self, name, value, unit, detail=""):
        self.metrics[name] = (float(value), unit)
        self.lines.append("%-18s %14.6g %-9s %s" % (name, value, unit, detail))

    def check(self, label, actual, expected, atol, rtol=0.0):
        """Compare outputs; a mismatch fails the run, never raises."""
        actual = np.asarray(actual, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        ok = actual.shape == expected.shape and bool(
            np.all(np.isfinite(actual))
            and np.allclose(actual, expected, atol=atol, rtol=rtol))
        error = (float(np.max(np.abs(actual - expected)))
                 if actual.shape == expected.shape and actual.size else
                 float("nan"))
        self.lines.append("check %-30s %s (max abs diff %.3g, atol %g)"
                          % (label, "ok" if ok else "FAILED", error, atol))
        if not ok:
            self.correct = False


def probe(size=1.0):
    """A fixed mix of interpreter work and small GEMMs, ``size`` times the
    full probe.

    Returns the calling thread's CPU seconds, which a slower host
    stretches but waiting for the interpreter lock does not.
    """
    started = time.thread_time()
    total = 0
    for step in range(int(240_000 * size)):
        total += step
    state = PROBE_MATRIX
    for _ in range(int(800 * size)):
        state = np.tanh(state @ PROBE_MATRIX * 0.1)  # stays near 1
    return time.thread_time() - started


def host_factor(repeats=3, size=1.0):
    """How many times slower than :data:`PROBE_REF_S` the host runs now."""
    return min(probe(size) for _ in range(repeats)) / (PROBE_REF_S * size)


def bracket_factors(rounds, closing):
    """Give each round the mean of the host factors probed at its start
    and at its end (the next round's start, or ``closing``)."""
    starts = [entry[-1] for entry in rounds] + [closing]
    return [entry[:-1] + ((starts[k] + starts[k + 1]) / 2.0,)
            for k, entry in enumerate(rounds)]


def freeze_inputs():
    """Keep the generated inputs out of the cyclic collector's scans.

    A live system receives its events over time; here they are all built
    up front, and a collector walking those objects would charge the
    program for the benchmark's own input buffers.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb():
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(seconds, q):
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def timed_setups(build, repeats):
    """Median host-normalised and raw times of ``repeats`` builds, and the
    last build's result."""
    times, raw, result = [], [], None
    probed = host_factor()
    for _ in range(repeats):
        result = None  # free the previous set-up before building the next
        started = time.perf_counter()
        result = build()
        raw.append(time.perf_counter() - started)
        before, probed = probed, host_factor()
        times.append(raw[-1] / ((before + probed) / 2.0))
    return statistics.median(times), statistics.median(raw), result


def report_windows(outcome, window, windows, detail):
    """``events_per_s`` and op latencies from the timed phase's windows.

    A window is ``(started, events, seconds, latencies, factor)``, where
    ``factor`` is the host factor measured next to it.  Also records the
    primary metric over the traced and the untraced windows of a traced
    run.
    """
    rates = [events / seconds * factor
             for _, events, seconds, _, factor in windows]
    latencies = [latency / factor for *_, batch, factor in windows
                 for latency in batch]
    raw = [latency for *_, batch, _ in windows for latency in batch]
    outcome.metric("events_per_s", statistics.median(rates), "events/s",
                   "%s; median of %d windows" % (detail[0], len(windows)))
    for q in (50, 90):
        outcome.metric("op_p%d_ms" % q, percentile_ms(latencies, q), "ms",
                       "%s, n=%d" % (detail[1], len(latencies)))
    outcome.lines.append("op_p99_ms          %14.6g ms        %s, n=%d, "
                         "not reported" % (percentile_ms(latencies, 99),
                                           detail[1], len(latencies)))
    outcome.lines.append(
        "raw: %.6g events/s, op p50 %.4g ms, p90 %.4g ms, p99 %.4g ms; "
        "host factor median %.3f (%.3f..%.3f)" % (
            statistics.median(events / seconds
                              for _, events, seconds, _, _ in windows),
            percentile_ms(raw, 50), percentile_ms(raw, 90),
            percentile_ms(raw, 99),
            statistics.median(w[4] for w in windows),
            min(w[4] for w in windows), max(w[4] for w in windows)))
    for key, traced in (("untraced", False), ("traced", True)):
        chosen = [rate for (started, _, seconds, _, _), rate
                  in zip(windows, rates)
                  if window.traced(started + seconds / 2) == traced]
        if chosen:
            outcome.primary[key] = statistics.median(chosen)


def longtail_population(seed, cohorts, max_length, min_length, scale):
    """Length-skewed churn clients: many light users and a heavy tail."""
    sequences, schema = [], None
    for index, (clients, mean_length) in enumerate(cohorts):
        cohort = make_churn_dataset(
            num_clients=max(4, int(clients * scale)), mean_length=mean_length,
            min_length=min_length, max_length=max_length,
            seed=seed * 1000 + mean_length)
        schema = cohort.schema
        sequences.extend(
            EventSequence(seq_id=index * COHORT_ID_STRIDE + seq.seq_id,
                          fields=seq.fields, label=None)
            for seq in cohort)
    np.random.default_rng(seed).shuffle(sequences)
    return SequenceDataset(sequences, schema, name="longtail")


def concat_sequences(seq_id, parts, schema):
    """One sequence holding ``parts`` back to back (history + stream)."""
    fields = {name: np.concatenate([part.fields[name] for part in parts])
              for name in schema.field_names}
    return EventSequence(seq_id=seq_id, fields=fields, label=None)


# ----------------------------------------------------------------------
# embed_longtail
# ----------------------------------------------------------------------
def run_embed_longtail(seed, seconds, scale, window):
    """Bulk GRU passes and per-client transformer requests, one thread.

    ``events_per_s`` is the GRU ``embed_dataset`` rate (median over
    passes of the whole population).  The unit operation is one
    transformer ``embed_dataset`` request for a single client's history,
    so ``op_p90_ms`` is set by heavy users' ``(T, T)`` attention.
    """
    outcome = Outcome()
    population = longtail_population(seed, EMBED_COHORTS, MAX_EVENTS, 8,
                                      scale)
    schema = population.schema
    gru_events = int(population.lengths().sum())
    requests = []
    for cohort, count in enumerate(TRX_REQUESTS):
        members = [seq for seq in population.sequences
                   if seq.seq_id // COHORT_ID_STRIDE == cohort]
        requests.extend(SequenceDataset([seq], schema, name="request")
                        for seq in members[:max(1, int(count * scale))])

    def setup():
        runtimes = []
        for offset, kind in enumerate(("gru", "transformer")):
            encoder = build_encoder(schema, EMBED_HIDDEN, kind,
                                    rng=np.random.default_rng(seed + offset))
            encoder.eval()
            runtime = FusedEncoderRuntime(encoder)
            runtime.weight_plan()
            runtime.encode_plan()
            runtimes.append(runtime)
        return runtimes

    freeze_inputs()
    window.begin_setup()
    setup_s, setup_raw, (gru, trx) = timed_setups(setup, QUICK_SETUPS)

    rounds, trx_events, trx_seconds = [], 0, 0.0
    gru_out, trx_out = None, {}
    deadline = window.begin_timed(time.perf_counter(), seconds)
    while True:
        factor = host_factor()
        started = time.perf_counter()
        if started >= deadline and rounds:
            break
        window.poll(started, len(rounds))
        gru_out = embed_dataset(gru, population)
        elapsed = time.perf_counter() - started
        latencies = []
        for index, request in enumerate(requests):
            begun = time.perf_counter()
            trx_out[index] = embed_dataset(trx, request)[0]
            latencies.append(time.perf_counter() - begun)
            trx_events += len(request.sequences[0])
        trx_seconds += sum(latencies)
        rounds.append((started, gru_events, elapsed, latencies, factor))
    window.end_timed(started)
    rss = peak_rss_mb()
    rounds = bracket_factors(rounds, factor)
    outcome.attempted = len(rounds) * (1 + len(requests))

    outcome.metric("setup_s", setup_s, "s",
                   "build + plan both encoders, median of %d, raw %.6g s"
                   % (QUICK_SETUPS, setup_raw))
    report_windows(outcome, window, rounds,
                   ("GRU embed_dataset passes of %d events" % gru_events,
                    "single-client transformer request"))
    outcome.metric("peak_rss_mb", rss, "MiB", "as the timed phase ended")
    outcome.lines.append("trx_events_per_s   %14.6g events/s  transformer "
                         "requests, whole run, raw" % (trx_events / trx_seconds))

    reference = embed_dataset(gru.encoder, population, precision="float64")
    outcome.check("gru float32 vs float64", gru_out, reference, ATOL)
    requested = sorted(trx_out)
    reference = embed_dataset(
        trx.encoder, SequenceDataset([requests[i].sequences[0]
                                      for i in requested], schema),
        batch_size=8, precision="float64")
    outcome.check("transformer float32 vs float64",
                  np.stack([trx_out[i] for i in requested]), reference, ATOL)
    if not outcome.correct:
        outcome.failed = outcome.attempted
    return outcome


# ----------------------------------------------------------------------
# stream_query
# ----------------------------------------------------------------------
def zipf_ids(rng, pool, size):
    """``size`` ids from ``pool``, Zipf-skewed over a seeded popularity order."""
    ranks = (rng.zipf(ZIPF_EXPONENT, size=size) - 1) % len(pool)
    return pool[ranks]


class Reader(threading.Thread):
    """Open-loop reader: query batch ``k`` is due at ``start + k / rate``.

    Each query is timed from its due time, so a stall also charges the
    queries that were due while it lasted; ``late`` records how far
    behind schedule each send was.
    """

    def __init__(self, service, batches, rate):
        super().__init__(name="perfbench-reader", daemon=True)
        self.service = service
        self.batches = batches
        self.rate = rate
        self.start_at = None
        self.stop = threading.Event()
        self.dues, self.latencies, self.late = [], [], []
        self.ok = self.failed = 0
        self.first_error = None

    def run(self):
        clock = time.perf_counter
        for index, ids in enumerate(self.batches):
            due = self.start_at + index / self.rate
            wait = due - clock()
            if self.stop.wait(wait) if wait > 0 else self.stop.is_set():
                return
            self.late.append(clock() - due)
            try:
                self.service.query(ids)
                self.ok += 1
            except Exception as error:  # counted; the load keeps running
                self.failed += 1
                self.first_error = self.first_error or repr(error)
            self.dues.append(due)
            self.latencies.append(clock() - due)

    @property
    def sent(self):
        return self.ok + self.failed


def run_stream_query(seed, seconds, scale, window):
    """Day-0 bulk load, then async ingest beside an open-loop reader.

    The live phase is cut into windows of ``WINDOW_S`` seconds.
    ``events_per_s`` comes from the events submitted in each window; the
    unit operation is one query batch, timed from its scheduled send time
    and counted in the window it was due in.
    """
    outcome = Outcome()
    entities = max(200, int(STREAM_ENTITIES * scale))
    active = max(20, int(STREAM_ACTIVE * scale))
    history = make_stress_history(entities, seed=seed)
    schema = history.schema
    stream = make_stress_stream(history, active,
                                chunks_per_entity=STREAM_CHUNKS_PER_ENTITY,
                                seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    streaming = rng.permutation(np.unique([chunk.seq_id for chunk in stream]))
    everyone = rng.permutation(entities)
    total = int(READER_RATE * seconds * 1.5) + 10
    from_stream = rng.random((total, QUERY_IDS)) < STREAM_SHARE
    hot = zipf_ids(rng, streaming, (total, QUERY_IDS))
    cold = zipf_ids(rng, everyone, (total, QUERY_IDS))
    query_batches = [[int(i) for i in row]
                     for row in np.where(from_stream, hot, cold)]
    encoder = build_encoder(schema, STREAM_HIDDEN, "gru",
                            rng=np.random.default_rng(seed))
    encoder.eval()

    def setup():
        service = EmbeddingService(encoder, schema, num_shards=8,
                                   cache_capacity=CACHE_CAPACITY,
                                   flush_events=FLUSH_EVENTS)
        service.bulk_load(history)
        return service

    freeze_inputs()
    window.begin_setup()
    setup_s, setup_raw, service = timed_setups(setup, STREAM_SETUPS)
    service.latency.reset()

    reader = Reader(service, query_batches, READER_RATE)
    count = max(1, math.ceil(seconds / WINDOW_S))
    submitted, per_window, probes = [], [0] * count, []
    clock = time.perf_counter
    with AsyncIngestPipeline(service, max_pending_events=MAX_PENDING,
                             on_full="block") as pipeline:
        started = clock()
        deadline = window.begin_timed(started, seconds)
        width = seconds / count
        next_probe = started
        reader.start_at = started
        reader.start()
        try:
            for chunk in stream:
                now = clock()
                if now >= deadline:
                    break
                if now >= next_probe:
                    probes.append((now, host_factor(1, LIVE_PROBE)))
                    next_probe = max(next_probe + PROBE_EVERY, now)
                index = int((now - started) / width)
                window.poll(now, index)
                pipeline.submit(chunk)
                submitted.append(chunk)
                per_window[index] += len(chunk)
            stopped = clock()
            pipeline.drain()
            ended = clock()
        except Exception as error:  # a deferred ingest error fails the run
            outcome.lines.append("ingest error: %r" % (error,))
            outcome.correct = False
            stopped = ended = clock()
        finally:
            reader.stop.set()
            reader.join()
        pipe_stats = pipeline.stats()
    window.end_timed(ended)
    rss = peak_rss_mb()

    # Only windows the producer was busy for all through count.
    latencies = [[] for _ in range(count)]
    for due, latency in zip(reader.dues, reader.latencies):
        latencies[min(count - 1, int((due - started) / width))].append(
            latency)
    full = int((stopped - started) / width + 1e-9)
    windows = []
    for k in range(max(1, min(count, full))):
        low = started + k * width
        inside = [factor for at, factor in probes if low <= at < low + width]
        if not inside:  # the producer was blocked all through the window
            inside = [factor for at, factor in probes if at < low][-1:]
        windows.append((low, per_window[k], width, latencies[k],
                        statistics.mean(inside)))

    stats = service.stats()
    events = sum(len(chunk) for chunk in submitted)
    outcome.attempted = len(submitted) + reader.sent
    outcome.failed = reader.failed + pipe_stats["rejected_chunks"]
    outcome.metric("setup_s", setup_s, "s", "service + bulk_load of %d "
                   "entities, median of %d, raw %.6g s"
                   % (entities, STREAM_SETUPS, setup_raw))
    report_windows(outcome, window, windows,
                   ("AsyncIngestPipeline submits", "query batch"))
    outcome.metric("peak_rss_mb", rss, "MiB", "as the live phase ended")
    outcome.lines.append(
        "ingest_events_per_s %13.6g events/s  %d events, first submit to "
        "drain() return" % (events / (ended - started), events))
    outcome.lines.append(
        "query_p50_ms %8.4g ms, query_p99_ms %8.4g ms over all %d queries"
        % (percentile_ms(reader.latencies, 50),
           percentile_ms(reader.latencies, 99), len(reader.latencies)))
    flush = stats["latency_ms"].get("flush", {})
    outcome.layers.update({
        "serving.service.flush_p50_ms": flush.get("p50", 0.0),
        "serving.service.flush_p99_ms": flush.get("p99", 0.0),
        "serving.service.flushes": stats["flushes"],
        "serving.cache.hit_ratio": stats["cache"]["hit_rate"],
        "serving.pipeline.blocked_submits": pipe_stats["blocked_submits"],
        "loadgen.reader_late_p99_ms": percentile_ms(reader.late, 99)
        if reader.late else 0.0,
        "loadgen.queries_sent": reader.sent,
        "loadgen.queries_ok": reader.ok,
        "loadgen.queries_failed": reader.failed,
    })
    outcome.lines.append(
        "loadgen: %d queries sent at %.0f/s, %d ok, %d failed, late p99 "
        "%.3f ms; cache hit ratio %.3f; %d blocked submits"
        % (reader.sent, READER_RATE, reader.ok, reader.failed,
           outcome.layers["loadgen.reader_late_p99_ms"],
           stats["cache"]["hit_rate"], pipe_stats["blocked_submits"]))
    if reader.first_error:
        outcome.lines.append("first query error: %s" % reader.first_error)

    # Every entity that streamed, plus a sample of cold ones, against a
    # cold recompute over history + the submitted stream.
    parts = {}
    for chunk in submitted:
        parts.setdefault(chunk.seq_id, []).append(chunk)
    cold = [int(i) for i in everyone[:COLD_CHECK * 2] if int(i) not in parts]
    ids = sorted(parts) + cold[:COLD_CHECK]
    reference = SequenceDataset(
        [concat_sequences(i, [history[i]] + parts.get(i, []), schema)
         for i in ids], schema, name="reference")
    outcome.check("stream queries vs cold recompute", service.query(ids),
                  embed_dataset(encoder, reference), ATOL)
    if not outcome.correct:
        outcome.failed = outcome.attempted
    return outcome


# ----------------------------------------------------------------------
# train_coles
# ----------------------------------------------------------------------
class StepClock(ContrastiveTrainer):
    """A trainer that records each optimisation step's time and loss."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = []   # (seconds, loss, events)

    def train_step(self, batch, optimizer, rng):
        started = time.perf_counter()
        loss = super().train_step(batch, optimizer, rng)
        self.steps.append((time.perf_counter() - started, loss,
                           int(batch.lengths.sum())))
        return loss


def build_trainer(schema, seed, precision):
    encoder = build_encoder(schema, TRAIN_HIDDEN, "gru",
                            rng=np.random.default_rng(seed))
    config = TrainConfig(num_epochs=1, batch_size=TRAIN_BATCH, seed=seed,
                         engine="fused", precision=precision)
    return StepClock(encoder, ContrastiveLoss(), RandomSlices(10, 80, 5),
                     config)


def run_train_coles(seed, seconds, scale, window):
    """Repeated one-epoch ``fit`` rounds of CoLES on a long-tail population.

    ``events_per_s`` counts the events of the augmented views trained on;
    the unit operation is one optimisation step.  Every round replays
    the same batches (``fit`` reseeds), so rounds do equal work.
    """
    outcome = Outcome()
    dataset = longtail_population(seed, TRAIN_COHORTS, 300, 10, scale)
    schema = dataset.schema

    freeze_inputs()
    window.begin_setup()
    setup_s, setup_raw, trainer = timed_setups(
        lambda: build_trainer(schema, seed, "float32"), QUICK_SETUPS)
    initial = trainer.encoder.state_dict()

    rounds = []
    deadline = window.begin_timed(time.perf_counter(), seconds)
    while True:
        factor = host_factor()
        started = time.perf_counter()
        if started >= deadline and rounds:
            break
        window.poll(started, len(rounds))
        first = len(trainer.steps)
        trainer.fit(dataset)
        steps = trainer.steps[first:]
        rounds.append((started, sum(step[2] for step in steps),
                       time.perf_counter() - started,
                       [step[0] for step in steps], factor))
    window.end_timed(started)
    rss = peak_rss_mb()
    rounds = bracket_factors(rounds, factor)

    outcome.attempted = len(trainer.steps)
    outcome.metric("setup_s", setup_s, "s",
                   "encoder + trainer, median of %d, raw %.6g s"
                   % (QUICK_SETUPS, setup_raw))
    report_windows(outcome, window, rounds,
                   ("view events trained per fit round", "optimisation step"))
    outcome.metric("peak_rss_mb", rss, "MiB", "as the timed phase ended")
    outcome.lines.append(
        "steps_per_s        %14.6g steps/s   median of %d rounds of %d steps"
        % (statistics.median(len(r[3]) / r[2] * r[4] for r in rounds),
           len(rounds), len(rounds[0][3])))

    # The first round against a float64 fit from the same weights and seed.
    reference = build_trainer(schema, seed, "float64")
    reference.encoder.load_state_dict(initial)
    reference.fit(dataset)
    outcome.check("float32 step losses vs float64",
                  [step[1] for step in trainer.steps[:len(reference.steps)]],
                  [step[1] for step in reference.steps], LOSS_ATOL, LOSS_RTOL)
    if not outcome.correct:
        outcome.failed = outcome.attempted
    return outcome


WORKLOADS = {
    "embed_longtail": run_embed_longtail,
    "stream_query": run_stream_query,
    "train_coles": run_train_coles,
}
