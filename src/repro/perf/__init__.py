"""Performance measurement scaffolding.

Two small pieces every perf-sensitive change builds on:

* :mod:`repro.perf.timing`    — warmed-up, repeated microbenchmark timing
  (:func:`bench`) with best-of :func:`speedup` comparison;
* :mod:`repro.perf.recording` — the append-only ``BENCH_<name>.json``
  trajectory files that make speedups auditable across PRs.

``benchmarks/test_perf_hotpaths.py`` is the canonical consumer: it times
the conv im2col path and the packed GEMM against their seed
implementations (test-side oracles), asserts bit-exactness and the
measured speedup, and appends both to the trajectory.
"""

from .timing import BenchStats, bench, speedup
from .recording import bench_dir, bench_path, load_bench, record_bench

__all__ = [
    "BenchStats", "bench", "speedup",
    "bench_dir", "bench_path", "load_bench", "record_bench",
]
