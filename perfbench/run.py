"""Benchmark of the CoLES system: one workload per run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream_query --seed 1 --seconds 10 \
        --trace 0

Workloads (``perfbench/workloads.py``):

- ``embed_longtail``: bulk GRU ``embed_dataset`` passes over a
  length-skewed population plus per-client transformer requests; closed
  loop, one thread, kernel-bound.
- ``stream_query``: a day-0 ``bulk_load``, then ``AsyncIngestPipeline``
  ingest (closed loop) beside an open-loop reader of Zipf-skewed query
  batches; bound by per-entity Python plumbing and the service lock.
- ``train_coles``: one-epoch ``ContrastiveTrainer.fit`` rounds (fused
  engine, float32); the only workload with augmentation, backward and the
  optimizer.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` reports the per-layer metrics from spans recorded by
``perfbench/tracing.py`` and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.npz``.  The last line of
standard output is the JSON result; the lines before it are the readable
report.

The process pins itself to one CPU and runs BLAS single-threaded, so the
load is the workload's own threads, and timings are host-normalised
against a probe timed on that CPU (see ``perfbench/workloads.py``).
"""

import argparse
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "data.collate.calls": "count",
    "data.collate.ms": "ms",
    "data.padded_step_fraction": "fraction",
    "encoders.encode_events.ms": "ms",
    "runtime.kernels.rnn_forward.calls": "count",
    "runtime.kernels.rnn_forward.ms": "ms",
    "runtime.kernels.rnn_forward.wall_frac": "fraction",
    "runtime.attention.transformer_forward.ms": "ms",
    "runtime.store.bulk_load_states.ms": "ms",
    "runtime.store.advance_entities.calls": "count",
    "runtime.store.advance_entities.ms": "ms",
    "runtime.store.batches_per_advance": "ratio",
    "serving.sharding.state_of.calls": "count",
    "serving.sharding.state_of.ms": "ms",
    "serving.sharding.put_state.calls": "count",
    "serving.sharding.put_state.ms": "ms",
    "serving.sharding.embeddings.ms": "ms",
    "serving.microbatch.add.ms": "ms",
    "serving.microbatch.drain.ms": "ms",
    "serving.service.query.self_ms": "ms",
    "serving.service.flush_p50_ms": "ms",
    "serving.service.flush_p99_ms": "ms",
    "serving.service.flushes": "count",
    "serving.cache.hit_ratio": "fraction",
    "serving.pipeline.submit.ms": "ms",
    "serving.pipeline.blocked_submits": "count",
    "core.batching.augment_batch.ms": "ms",
    "runtime.training.forward.ms": "ms",
    "runtime.training.backward.ms": "ms",
    "losses.loss_gradient.ms": "ms",
    "nn.optim.step.ms": "ms",
    "loadgen.reader_late_p99_ms": "ms",
    "loadgen.queries_sent": "count",
    "loadgen.queries_ok": "count",
    "loadgen.queries_failed": "count",
    "trace.overhead_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["embed_longtail", "stream_query",
                                 "train_coles"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a "
                             "tiny one)")
    return parser.parse_args(argv)


def layer_metrics(tracer, window, outcome):
    """Every per-layer metric from the spans and the workload's stats."""
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def busy(name, key="ms"):
        return spans.get(name, {}).get(key, 0.0)

    cells = tracer.total("data.cells")
    advances = calls("runtime.store.advance_entities")
    traced_ms = window.traced_seconds() * 1e3
    timed_rnn = tracer.summary(window.intervals).get(
        "runtime.kernels.rnn_forward", {}).get("ms", 0.0)
    primary = outcome.primary
    values = {
        "data.padded_step_fraction":
            tracer.total("data.padded_cells") / cells if cells else 0.0,
        "runtime.kernels.rnn_forward.wall_frac":
            timed_rnn / traced_ms if traced_ms else 0.0,
        "runtime.store.batches_per_advance":
            tracer.total("runtime.store.batches") / advances
            if advances else 0.0,
        "serving.service.query.self_ms":
            busy("serving.service.query", "self_ms"),
        "trace.overhead_frac":
            1.0 - primary["traced"] / primary["untraced"]
            if {"traced", "untraced"} <= set(primary) else 0.0,
    }
    for name in PER_LAYER:
        if name in values or name in outcome.layers:
            continue
        span, _, kind = name.rpartition(".")
        values[name] = calls(span) if kind == "calls" else busy(span)
    values.update(outcome.layers)
    return {name: values.get(name, 0) for name in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("perfbench: no repro package under %s" % SOURCE,
              file=sys.stderr)
        return 2
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    # One CPU: the host probe then times the CPU the workload runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SOURCE)

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    window = tracing.TraceWindow(tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, args.scale, window)
    finally:
        if tracer is not None:
            tracer.uninstall()

    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for line in outcome.lines:
        print(line)
    print("error_rate         %14.6g fraction  %d failed of %d attempted"
          % (outcome.failed / max(1, outcome.attempted), outcome.failed,
             outcome.attempted))
    if tracer is None:
        metrics = {name: {"value": outcome.metrics[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        layers = layer_metrics(tracer, window, outcome)
        for name, value in layers.items():
            print("%-42s %14.6g %s" % (name, value, PER_LAYER[name]))
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in layers.items()}
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "trace-%s-seed%d.npz"
                                  % (args.workload, args.seed)))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and fail without a result line
        traceback.print_exc()
        sys.exit(1)
