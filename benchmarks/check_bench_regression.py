"""CI gate: fail when a recorded benchmark metric regresses vs the baseline.

Compares a freshly regenerated ``BENCH_*.json`` against the committed
baseline.  Gated keys (``--key``, repeatable) carry an optional direction
suffix:

- ``--key events_per_sec.fused_bucketed`` (or ``...=higher``) gates a
  throughput: fail when ``current < baseline * (1 - tolerance)``;
- ``--key bytes_per_entity.memmap_int8=lower`` gates a
  lower-is-better metric (footprints, latencies): fail when
  ``current > baseline * (1 + tolerance)``.

Every *other* numeric metric shared by the two files is printed as a
``trend`` line — on success too — so CI logs double as a perf
trajectory::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_serving.json \
        --current .bench/BENCH_serving.json \
        --key events_per_sec.microbatched_ingest \
        --key bytes_per_entity.memmap_int8=lower \
        --tolerance 0.30

With no ``--key`` the script prints the trajectory only and exits 0
(useful for files tracked but not yet gated).  The tolerance absorbs
shared-runner noise; a real hot-path regression (losing the packed-kernel
fast path, the bucketed plan, micro-batched ingest, the fused backward,
or the quantized at-rest encoding) overshoots 30% by a wide margin.
"""

import argparse
import json
import sys

DIRECTIONS = ("higher", "lower")


def lookup(results, dotted_key):
    """Resolve ``a.b.c`` in nested dicts; raises KeyError with the miss."""
    value = results
    for part in dotted_key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError("key %r not found (missing part: %r)"
                           % (dotted_key, part))
        value = value[part]
    return float(value)


def parse_gate(spec):
    """Split a ``--key`` spec into ``(dotted_key, direction)``.

    ``direction`` defaults to ``"higher"`` (throughputs); a ``=lower``
    suffix marks footprint/latency metrics where growth is the
    regression.
    """
    dotted_key, _, direction = spec.partition("=")
    direction = direction or "higher"
    if direction not in DIRECTIONS:
        raise ValueError("unknown gate direction %r in %r (use %s)"
                         % (direction, spec, "/".join(DIRECTIONS)))
    return dotted_key, direction


def numeric_leaves(results, prefix=""):
    """Yield ``(dotted_key, value)`` for every numeric leaf, sorted.

    The ``context`` subtree (machine metadata: cpu count, thread pins,
    BLAS build, dtype policy) is descriptive, not a throughput — it is
    printed by :func:`print_context`, never trended or gated.
    """
    for key in sorted(results):
        value = results[key]
        if not prefix and key == "context":
            continue
        dotted = prefix + key if not prefix else "%s.%s" % (prefix, key)
        if isinstance(value, dict):
            yield from numeric_leaves(value, dotted)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield dotted, float(value)


def print_context(label, results):
    """Print a file's recorded machine context (one line per field).

    A regressed gate measured under a different dtype policy, thread
    pinning or BLAS build than its baseline is a measurement-context
    change, not a code regression — surfacing both contexts makes that
    diagnosis a log-read instead of an archaeology session.
    """
    context = results.get("context")
    if not isinstance(context, dict):
        print("context %-8s <not recorded>" % label)
        return
    for key in sorted(context):
        print("context %-8s %-22s %s" % (label, key, context[key]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json to gate against")
    parser.add_argument("--current", required=True,
                        help="freshly regenerated BENCH_*.json")
    parser.add_argument("--key", action="append", default=None,
                        help="dotted path of a metric to gate, optionally "
                             "suffixed '=higher' (default) or '=lower'; "
                             "repeat for several keys, omit for "
                             "trajectory-only")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    args = parser.parse_args(argv)

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.current) as handle:
        current = json.load(handle)

    print_context("baseline", baseline)
    print_context("current", current)

    gates = [parse_gate(spec) for spec in args.key or ()]

    # The trajectory: measured-vs-baseline ratio for every tracked metric,
    # printed on success as well as failure.
    current_values = dict(numeric_leaves(current))
    gated = {dotted_key for dotted_key, _ in gates}
    for dotted, base_value in numeric_leaves(baseline):
        if dotted in gated or dotted not in current_values:
            continue
        now = current_values[dotted]
        ratio = now / base_value if base_value else float("inf")
        print("trend  %-45s baseline %12.2f  current %12.2f  (%.2fx)"
              % (dotted, base_value, now, ratio))

    failures = 0
    for dotted_key, direction in gates:
        base_value = lookup(baseline, dotted_key)
        now = lookup(current, dotted_key)
        ratio = now / base_value if base_value else float("inf")
        if direction == "lower":
            limit = base_value * (1.0 + args.tolerance)
            regressed = now > limit
            print("gate   %-45s baseline %12.2f  current %12.2f  (%.2fx), "
                  "ceiling %.2f [lower is better]"
                  % (dotted_key, base_value, now, ratio, limit))
        else:
            limit = base_value * (1.0 - args.tolerance)
            regressed = now < limit
            print("gate   %-45s baseline %12.0f  current %12.0f  (%.2fx), "
                  "floor %.0f" % (dotted_key, base_value, now, ratio, limit))
        if regressed:
            print("FAIL: %s regressed more than %.0f%% vs the committed "
                  "baseline" % (dotted_key, 100 * args.tolerance))
            failures += 1
        else:
            print("OK: %s within the regression budget" % dotted_key)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
