"""Serving-layer perf gate: ModelServer vs the naive serving loop.

The acceptance bar for the serving layer: under sustained traffic over
a small artifact zoo — the serving regime, where inputs repeat and
same-model requests arrive together — :class:`repro.serve.ModelServer`
(work-conserving micro-batching + content-hash result cache) must
deliver at least ``MIN_SERVE_SPEEDUP`` x the throughput of the naive
loop that handles one request at a time against the same artifacts,
with **bit-identical outputs** (equivalence is asserted before any
timing, so the trajectory can never drift from a silently diverging
server).

Measurements append to ``BENCH_serve.json``: the gated sustained-load
ratio plus an ungated cold-cache entry (every input distinct — what
micro-batching alone buys) for honest context.

Set ``REPRO_PERF_SMOKE=1`` (CI) to run only the equivalence
assertions; the perf-regression CI job runs the full version and
checks the recorded ratios against ``benchmarks/perf_floors.json``.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/test_serve_throughput.py -v``.
"""

import os

import numpy as np
import pytest

from repro import grad as G
from repro.deploy import compile_model, load_artifact
from repro.models import build_model
from repro.nn import init
from repro.perf import bench, record_bench, speedup
from repro.serve import ModelServer, ServeError, ServerBusy, ServerConfig
from repro.train import super_resolve

#: Gate from the PR acceptance criteria.
MIN_SERVE_SPEEDUP = 2.0

SMOKE = bool(os.environ.get("REPRO_PERF_SMOKE"))

ZOO = (("srresnet", "scales", 2), ("edsr", "e2fif", 2))
IMAGE_SHAPE = (16, 16, 3)
DISTINCT_PER_MODEL = 10
REPEATS_PER_IMAGE = 10


def _record(benchmark, ref, fast, ratio, **extra):
    entry = {
        "benchmark": benchmark,
        "reference": ref.to_dict(),
        "optimized": fast.to_dict(),
        "speedup": ratio,
        **extra,
    }
    try:
        record_bench("serve", entry)
    except OSError:  # pragma: no cover - read-only checkout
        pass


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve_zoo")
    with G.default_dtype("float32"):
        for arch, scheme, scale in ZOO:
            init.seed(0)
            model = build_model(arch, scale=scale, scheme=scheme, preset="tiny")
            compile_model(model, freeze=str(directory / f"{arch}_{scheme}.npz"))
    return directory


def _workload():
    """Sustained traffic: per-model distinct images, each repeated."""
    distinct = {}
    for m, key in enumerate(ZOO):
        rng = np.random.default_rng(m)
        distinct[key] = [
            rng.random(IMAGE_SHAPE).astype(np.float32)
            for _ in range(DISTINCT_PER_MODEL)
        ]
    requests = []
    for r in range(REPEATS_PER_IMAGE):
        for i in range(DISTINCT_PER_MODEL):
            for key in ZOO:
                requests.append((key, i, distinct[key][i]))
    return distinct, requests


def _naive_loop(models, requests):
    """The baseline: one request at a time, no batching, no cache."""
    return [
        np.clip(super_resolve(models[key], image), 0.0, 1.0)
        for key, _, image in requests
    ]


class TestServeThroughput:
    def test_equivalence_sustained_load(self, zoo_dir):
        """Server outputs == naive loop outputs, zero shed, zero errors."""
        with G.default_dtype("float32"):
            distinct, requests = _workload()
            models = {
                key: load_artifact(str(zoo_dir / f"{key[0]}_{key[1]}.npz"))
                for key in ZOO
            }
            expected = _naive_loop(models, requests)
            server = ModelServer(
                zoo_dir,
                ServerConfig(
                    max_batch=8,
                    max_queue_depth=len(requests) + 1,
                ),
            )
            futures = [
                (server.submit(image, key), i)
                for key, i, image in requests
            ]
            server.drain()
            outputs = [f.result(timeout=60) for f, _ in futures]
            server.close()
            assert server.stats()["counters"]["shed"] == 0
            for out, exp in zip(outputs, expected):
                assert not isinstance(out, (ServerBusy, ServeError))
                np.testing.assert_array_equal(out, exp)

    @pytest.mark.skipif(SMOKE, reason="REPRO_PERF_SMOKE: equivalence only")
    def test_serve_throughput_2x(self, zoo_dir):
        """>= 2x sustained throughput vs the one-at-a-time loop."""
        with G.default_dtype("float32"):
            distinct, requests = _workload()
            models = {
                key: load_artifact(str(zoo_dir / f"{key[0]}_{key[1]}.npz"))
                for key in ZOO
            }
            expected = _naive_loop(models, requests)
            server = ModelServer(
                zoo_dir,
                ServerConfig(
                    max_batch=8,
                    max_queue_depth=len(requests) + 1,
                ),
            )

            def serve_all():
                server.cache.clear()  # each repeat starts cache-cold
                futures = [server.submit(img, key) for key, _, img in requests]
                server.drain()
                return [f.result(timeout=60) for f in futures]

            outputs = serve_all()
            for out, exp in zip(outputs, expected):
                np.testing.assert_array_equal(out, exp)

            naive = bench(
                lambda: _naive_loop(models, requests),
                label="serve/naive_one_at_a_time",
                warmup=1,
                repeats=3,
            )
            served = bench(
                serve_all, label="serve/model_server", warmup=1, repeats=3
            )
            server.close()
            ratio = speedup(naive, served)
            stats = server.stats()
            _record(
                "serve_throughput",
                naive,
                served,
                ratio,
                requests=len(requests),
                distinct_inputs=len(ZOO) * DISTINCT_PER_MODEL,
                models=["/".join(map(str, key)) for key in ZOO],
                image=list(IMAGE_SHAPE[:2]),
                max_batch=8,
                cache_hit_rate=stats["derived"]["cache_hit_rate"],
                batch_occupancy=stats["derived"]["batch_occupancy"],
            )
            assert ratio >= MIN_SERVE_SPEEDUP, (
                f"ModelServer sustained throughput is only {ratio:.2f}x the "
                f"naive loop (need >= {MIN_SERVE_SPEEDUP}x)"
            )

    @pytest.mark.skipif(SMOKE, reason="REPRO_PERF_SMOKE: equivalence only")
    def test_serve_cold_cache_recorded(self, zoo_dir):
        """Informational: every input distinct — micro-batching alone."""
        with G.default_dtype("float32"):
            distinct, _ = _workload()
            requests = [
                (key, i, image)
                for key, images in distinct.items()
                for i, image in enumerate(images)
            ]
            models = {
                key: load_artifact(str(zoo_dir / f"{key[0]}_{key[1]}.npz"))
                for key in ZOO
            }
            expected = _naive_loop(models, requests)
            server = ModelServer(
                zoo_dir,
                ServerConfig(max_batch=8, cache_bytes=0),
            )

            def serve_all():
                futures = [server.submit(img, key) for key, _, img in requests]
                server.drain()
                return [f.result(timeout=60) for f in futures]

            for out, exp in zip(serve_all(), expected):
                np.testing.assert_array_equal(out, exp)
            naive = bench(
                lambda: _naive_loop(models, requests),
                label="serve/naive_cold",
                warmup=1,
                repeats=3,
            )
            served = bench(
                serve_all, label="serve/model_server_cold", warmup=1, repeats=3
            )
            server.close()
            _record(
                "serve_cold_cache",
                naive,
                served,
                speedup(naive, served),
                requests=len(requests),
                cache="disabled",
                max_batch=8,
            )
            # No floor: micro-batching alone mainly wins per-call
            # overhead; the sustained-load gate above is the contract.
