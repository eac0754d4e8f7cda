"""Benchmark configuration.

The table reproductions train models; the in-process cache in
``repro.experiments.cache`` keeps each (architecture, scheme, scale)
trained exactly once per session, so benchmark files can share
checkpoints (fig1/fig9 reuse the Table III/V models).

The perf benchmarks append to ``BENCH_*.json`` trajectories.  Unless
``REPRO_BENCH_DIR`` is set, a session writes them under a temporary
directory, so a test run never edits the committed files; record into
them on purpose with ``REPRO_BENCH_DIR=.``.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _bench_dir(tmp_path_factory):
    """Point ``REPRO_BENCH_DIR`` at a session temp dir when it is unset."""
    if os.environ.get("REPRO_BENCH_DIR"):
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_BENCH_DIR", str(tmp_path_factory.mktemp("bench")))
        yield


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Training-based experiments are far too slow for statistical
    repetition; one round still records wall-clock in the benchmark
    report.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
