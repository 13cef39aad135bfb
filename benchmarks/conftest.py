"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper and prints a
paper-vs-measured comparison.  Experiments are deterministic and heavy, so
each runs exactly once (``pedantic`` with one round).

Perf benchmarks additionally persist their telemetry through the
``bench_record`` fixture: one ``BENCH_<name>.json`` per benchmark in the
git-ignored ``.bench/`` directory.  CI's ``bench`` job gates those fresh
files against the committed baselines at the repo root (see
``benchmarks/check_bench_regression.py``), so a test run never rewrites
a committed baseline.
"""

import json
import os

import numpy as np
import pytest

from repro.runtime.engine import DEFAULT_PRECISION

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where bench runs write their telemetry (git-ignored; never the
#: committed baselines at the repo root).
BENCH_DIR = os.path.join(REPO_ROOT, ".bench")


def _blas_vendor():
    """Best-effort BLAS vendor string from ``np.show_config``."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "unknown")
        version = blas.get("version", "")
        return ("%s %s" % (name, version)).strip()
    except (TypeError, AttributeError):  # older numpy: no dicts mode
        return "unknown"


def bench_context():
    """Machine/configuration context recorded into every BENCH_*.json.

    Throughput numbers are only comparable against a baseline measured
    under the same dtype policy, thread pinning and BLAS build — this
    subtree makes that context part of the committed artifact, and
    ``check_bench_regression.py`` prints it next to any gate failure.
    """
    return {
        "default_precision": DEFAULT_PRECISION,
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "blas": _blas_vendor(),
        "numpy": np.__version__,
    }


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner


@pytest.fixture
def bench_record():
    """Write one benchmark's results to ``.bench/BENCH_<name>.json``.

    The single write path for perf telemetry: stable key order and layout,
    so committed baselines diff cleanly across PRs and CI's regression
    gate can parse any of them the same way.  Returns the path written.
    """

    def record(name, results):
        os.makedirs(BENCH_DIR, exist_ok=True)
        path = os.path.join(BENCH_DIR, "BENCH_%s.json" % name)
        payload = dict(results)
        payload.setdefault("context", bench_context())
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    return record
