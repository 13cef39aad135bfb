"""Serving-path throughput: fused runtime + length-bucketed batch planner.

The deployment story of Section 4.3.1 is a hot bulk-embedding path: all
entities are embedded once, then refreshed incrementally.  This bench
measures ``embed_dataset`` throughput along both axes of the runtime
refactor —

- execution path: autograd ``Tensor`` graph (the seed implementation)
  vs the fused graph-free kernels of :mod:`repro.runtime`;
- batch order: naive collation order (pads every batch to its random
  max) vs the length-bucketed planner of :mod:`repro.data.bucketing`;
- precision policy: the float64 parity-reference path (bit-compatible
  with the tensor graph, asserted at 1e-10) vs the default float32
  policy on packed weight plans (drift-bounded against the same
  reference);
- encoder family: the fused attention kernels
  (:mod:`repro.runtime.attention`) vs the autograd transformer graph —
  the graph-free rewrite matters most here, since the Tensor path builds
  one node per op across every ``(B, heads, T, T)`` attention map;

— plus the per-event cost of incremental refresh through the
:class:`~repro.runtime.EmbeddingStore`.  Results are recorded through the
``bench_record`` fixture to ``.bench/BENCH_inference.json``, which CI's
bench job gates against the committed root baseline.

The workload is deliberately length-skewed (light/medium/heavy user
cohorts): that is what production transaction populations look like, and
it is where naive padding wastes the most work.
"""

import time

import numpy as np

from repro.core.inference import embed_dataset
from repro.data.batches import collate
from repro.data.bucketing import padded_step_fraction, plan_batches
from repro.data.sequences import EventSequence, SequenceDataset
from repro.data.synthetic import make_churn_dataset
from repro.encoders import build_encoder
from repro.eval import ComparisonTable
from repro.runtime import EmbeddingStore, FusedEncoderRuntime

# (clients, mean events) cohorts: many light users, a heavy tail.
COHORTS = [(160, 20), (100, 80), (40, 350)]


def _longtail_dataset(seed=0):
    sequences, offset, schema = [], 0, None
    for num_clients, mean_length in COHORTS:
        cohort = make_churn_dataset(num_clients=num_clients,
                                    mean_length=mean_length, min_length=8,
                                    max_length=450, seed=seed + mean_length)
        schema = cohort.schema
        for seq in cohort:
            sequences.append(EventSequence(seq_id=offset + seq.seq_id,
                                           fields=seq.fields, label=seq.label))
        offset += 10_000
    rng = np.random.default_rng(seed)
    rng.shuffle(sequences)
    return SequenceDataset(sequences, schema, name="longtail")


def _best_of(func, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - started)
    return result, best


def _transformer_axis(dataset, events):
    """Fused attention kernels vs the autograd transformer graph.

    The tensor transformer is ~50x slower than the fused kernels on this
    workload, so its reference rate is measured on a 1-in-4 subsample
    (same cohort mix — the stride preserves the length distribution) and
    compared per event; the fused rate is measured on the full dataset.
    Returns ``(fused_rate, tensor_rate)`` in events/s.
    """
    transformer = build_encoder(dataset.schema, 48, "transformer",
                                rng=np.random.default_rng(1))
    transformer.eval()
    sample = SequenceDataset(dataset.sequences[::4], dataset.schema,
                             name="longtail-sample")
    sample_events = int(sample.lengths().sum())
    reference, tensor_s = _best_of(
        lambda: embed_dataset(dataset=sample, encoder=transformer,
                              batch_size=64, runtime="tensor"), repeats=1)
    sample64, _ = _best_of(
        lambda: embed_dataset(dataset=sample, encoder=transformer,
                              batch_size=64, runtime="fused",
                              precision="float64"), repeats=1)
    sample32, _ = _best_of(
        lambda: embed_dataset(dataset=sample, encoder=transformer,
                              batch_size=64, runtime="fused"), repeats=1)
    # float64 is the 1e-10 parity reference; the served float32 policy is
    # drift-bounded like the recurrent path.
    np.testing.assert_allclose(sample64, reference, atol=1e-10)
    np.testing.assert_allclose(sample32, reference, atol=1e-5)
    _, fused_s = _best_of(
        lambda: embed_dataset(dataset=dataset, encoder=transformer,
                              batch_size=64, runtime="fused"))
    return events / fused_s, sample_events / tensor_s


def test_inference_throughput(run_once, bench_record):
    def experiment():
        dataset = _longtail_dataset()
        events = int(dataset.lengths().sum())
        encoder = build_encoder(dataset.schema, 48, "gru",
                                rng=np.random.default_rng(0))
        encoder.eval()
        # float64 pins the historical op order exactly, so this runtime
        # is the 1e-10 parity reference against the tensor graph; the
        # default (float32) policy run below is bounded by the drift
        # property instead.
        runtime_f64 = FusedEncoderRuntime(encoder, precision="float64")

        def fused_naive():
            # Fused kernels, but the seed's arrival-order batches.
            out = np.zeros((len(dataset), encoder.output_dim))
            for start in range(0, len(dataset), 64):
                chunk = dataset.sequences[start:start + 64]
                batch = collate(chunk, dataset.schema)
                out[start:start + len(chunk)] = runtime_f64.embed_batch(batch)
            return out

        def incremental_refresh():
            store = EmbeddingStore(encoder)
            for seq in dataset.sequences[:60]:
                store.update(seq.seq_id, seq, dataset.schema)
            return store

        reference, tensor_s = _best_of(
            lambda: embed_dataset(dataset=dataset, encoder=encoder,
                                  batch_size=64, runtime="tensor"))
        naive_out, fused_naive_s = _best_of(fused_naive)
        fused64_out, fused64_s = _best_of(
            lambda: embed_dataset(dataset=dataset, encoder=encoder,
                                  batch_size=64, runtime="fused",
                                  precision="float64"))
        # The default serving policy: float32 compute on packed plans.
        fused_out, fused_s = _best_of(
            lambda: embed_dataset(dataset=dataset, encoder=encoder,
                                  batch_size=64, runtime="fused"))
        _, incremental_s = _best_of(incremental_refresh)
        incremental_events = int(sum(len(seq)
                                     for seq in dataset.sequences[:60]))
        trx_fused_rate, trx_tensor_rate = _transformer_axis(dataset, events)

        np.testing.assert_allclose(naive_out, reference, atol=1e-10)
        np.testing.assert_allclose(fused64_out, reference, atol=1e-10)
        # float32 drift bound (property-tested in tests/runtime/
        # test_precision.py); observed drift is ~1e-7.
        np.testing.assert_allclose(fused_out, reference, atol=1e-5)

        lengths = dataset.lengths()
        naive_plan = [np.arange(start, min(start + 64, len(dataset)))
                      for start in range(0, len(dataset), 64)]
        results = {
            "workload": {
                "clients": len(dataset),
                "events": events,
                "length_p50": float(np.median(lengths)),
                "length_max": int(lengths.max()),
                "padded_fraction_naive": padded_step_fraction(
                    lengths, naive_plan),
                "padded_fraction_bucketed": padded_step_fraction(
                    lengths, plan_batches(lengths, 64)),
            },
            "events_per_sec": {
                "tensor_naive_seed": events / tensor_s,
                "fused_naive": events / fused_naive_s,
                # The default policy (float32 + packed plans) — the
                # primary gated key.
                "fused_bucketed": events / fused_s,
                # The float64 parity-reference path, still tracked.
                "fused_bucketed_f64": events / fused64_s,
                "incremental_store": incremental_events / incremental_s,
                # The fused attention kernels (gated like the recurrent
                # serving key); its tensor reference lives under
                # baselines, not here, so the gate never tracks it.
                "fused_transformer": trx_fused_rate,
            },
            "baselines": {
                # The autograd transformer graph, measured on a 1-in-4
                # subsample of the same cohorts (per-event rate).
                "transformer_tensor": trx_tensor_rate,
            },
            "speedup": {
                "fused_kernels": tensor_s / fused_naive_s,
                "bucketed_planner": fused_naive_s / fused64_s,
                "precision_policy": fused64_s / fused_s,
                "total_vs_seed": tensor_s / fused_s,
                "fused_transformer_vs_tensor":
                    trx_fused_rate / trx_tensor_rate,
            },
        }
        bench_record("inference", results)

        table = ComparisonTable(
            "Serving throughput: fused runtime + bucketed planner",
            ["path", "events/s", "vs seed"],
        )
        seed_rate = results["events_per_sec"]["tensor_naive_seed"]
        for key in ("tensor_naive_seed", "fused_naive",
                    "fused_bucketed_f64", "fused_bucketed"):
            rate = results["events_per_sec"][key]
            table.add_row(key, "%.0f" % rate, "%.1fx" % (rate / seed_rate))
        table.add_row("incremental_store",
                      "%.0f" % results["events_per_sec"]["incremental_store"],
                      "-")
        table.add_row("transformer_tensor",
                      "%.0f" % trx_tensor_rate, "-")
        table.add_row("fused_transformer", "%.0f" % trx_fused_rate,
                      "%.1fx vs trx" % (trx_fused_rate / trx_tensor_rate))
        table.print()
        return results

    results = run_once(experiment)
    # Typical speedup on this workload is ~4x (recorded in the JSON, which
    # is the artifact that tracks the trajectory); the assert floor is set
    # below that so a noisy shared runner cannot flake the suite, while a
    # real path regression (e.g. losing the packed-kernel fast path,
    # ~1.2x) still fails loudly.
    assert results["speedup"]["total_vs_seed"] >= 2.0
    # The planner axis alone must pay for itself on a skewed workload.
    assert results["speedup"]["bucketed_planner"] > 1.1
    # The float32 policy must beat the float64 reference path outright.
    assert results["speedup"]["precision_policy"] > 1.1
    # The fused attention kernels vs the autograd transformer graph:
    # observed ~50x (graph-free + packed qkv + float32); the floor is the
    # same conservative 2x as the recurrent path.
    assert results["speedup"]["fused_transformer_vs_tensor"] >= 2.0
