"""End-to-end perf gate: batched tile pipeline vs the sequential seed path.

PR 1 made the kernels fast; this benchmark gates the *orchestration*:
full-image super-resolution through the packed engine with
``tiled_super_resolve`` (the tiled forward ``Engine.infer`` runs) —
batched (tiles stacked into large-M GEMM batches), buffer-reusing (the
per-thread workspace arena) and bit-domain (fused threshold -> packed
im2col) — against the seed execution: one tile at a time through the
seed float64 sign-plane kernels (``tests.oracles``:
``reference_packed()`` + ``SequentialTiledInference``).

Every timing comparison first asserts the two paths produce *identical*
outputs, so the trajectory numbers can never drift from a silently
diverging implementation.  Measurements append to
``BENCH_e2e_tiled_sr.json``.

Set ``REPRO_PERF_SMOKE=1`` (the CI perf-smoke job) to run only the
equivalence assertions with tiny shapes — no timing thresholds, so
loaded shared runners cannot flake the build.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/test_perf_pipeline.py -v``.
"""

import os

import numpy as np
import pytest

from repro import grad as G
from repro.binarize.scales_layers import SCALESBinaryConv2d
from repro.deploy import compile_model
from repro.infer import (InferencePipeline, get_num_threads,
                         tiled_super_resolve)
from repro.nn import Sequential, init
from repro.perf import bench, record_bench, speedup
from repro.train import super_resolve
from tests.oracles import SequentialTiledInference, reference_packed

#: Gate from the PR acceptance criteria.
MIN_E2E_SPEEDUP = 3.0

SMOKE = bool(os.environ.get("REPRO_PERF_SMOKE"))


def _record(benchmark, ref, fast, ratio, **extra):
    entry = {
        "benchmark": benchmark,
        "reference": ref.to_dict(),
        "optimized": fast.to_dict(),
        "speedup": ratio,
        **extra,
    }
    try:
        record_bench("e2e_tiled_sr", entry)
    except OSError:  # pragma: no cover - read-only checkout
        pass


def _scales_model(channels, depth):
    """A paper-style LSF-only SCALES body (the Table VI latency story)."""
    init.seed(0)
    layers = [SCALESBinaryConv2d(3, channels, 3, use_spatial=False,
                                 use_channel=False)]
    for _ in range(depth - 2):
        layers.append(SCALESBinaryConv2d(channels, channels, 3,
                                         use_spatial=False, use_channel=False,
                                         skip=True))
    layers.append(SCALESBinaryConv2d(channels, 3, 3, use_spatial=False,
                                     use_channel=False))
    return Sequential(*layers)


def _image(seed, h, w):
    """An ``(h, w, 3)`` image from the NCHW draw this file always used."""
    x = np.random.default_rng(seed).random((1, 3, h, w)).astype(np.float32)
    return x[0].transpose(1, 2, 0)


class TestE2ETiledSR:
    def _paths(self, channels, depth, tile, overlap, batch_size):
        """The sequential oracle and the production tiled forward."""
        compiled = compile_model(_scales_model(channels, depth))
        seed = SequentialTiledInference(compiled, tile=tile, overlap=overlap)

        def fast(image):
            return tiled_super_resolve(compiled, image, 1, tile=tile,
                                       overlap=overlap, batch_size=batch_size)

        return seed.super_resolve, fast

    def test_equivalence_small(self):
        """Smoke-sized: batched+fast output == sequential+reference output."""
        with G.default_dtype("float32"):
            seed, fast = self._paths(channels=16, depth=3, tile=16,
                                     overlap=8, batch_size=4)
            image = _image(0, 41, 37)
            with reference_packed():
                expected = seed(image)
            np.testing.assert_array_equal(fast(image), expected)

    def test_pipeline_equivalence_small(self):
        """The serving API returns exactly what super_resolve returns."""
        with G.default_dtype("float32"):
            model = compile_model(_scales_model(16, 3))
            rng = np.random.default_rng(1)
            images = [rng.random((12, 10, 3)).astype(np.float32)
                      for _ in range(4)]
            outs = InferencePipeline(model, batch_size=2).map(images)
            for img, out in zip(images, outs):
                np.testing.assert_array_equal(
                    out, np.clip(super_resolve(model, img), 0.0, 1.0))

    @pytest.mark.skipif(SMOKE, reason="REPRO_PERF_SMOKE: equivalence only")
    def test_e2e_tiled_sr_3x(self):
        """>= 3x on a 128x128 input, bit-identical outputs."""
        with G.default_dtype("float32"):
            seed, fast = self._paths(channels=64, depth=4, tile=32,
                                     overlap=8, batch_size=16)
            image = _image(2, 128, 128)
            with reference_packed():
                expected = seed(image)
            np.testing.assert_array_equal(fast(image), expected)

            with reference_packed():
                ref = bench(lambda: seed(image),
                            label="tiled_sr/seed_sequential",
                            warmup=1, repeats=3)
            opt = bench(lambda: fast(image), label="tiled_sr/batched_pipeline",
                        warmup=1, repeats=3)
            ratio = speedup(ref, opt)
            _record("e2e_tiled_sr_128", ref, opt, ratio,
                    image=[128, 128], tile=32, overlap=8, tile_batch=16,
                    channels=64, depth=4, n_threads=get_num_threads())
            assert ratio >= MIN_E2E_SPEEDUP, (
                f"batched tiled SR is only {ratio:.2f}x the sequential seed "
                f"path (need >= {MIN_E2E_SPEEDUP}x)")

    @pytest.mark.skipif(SMOKE, reason="REPRO_PERF_SMOKE: equivalence only")
    def test_pipeline_micro_batching_recorded(self):
        """Informational: serving-layer micro-batch vs one-at-a-time."""
        with G.default_dtype("float32"):
            model = compile_model(_scales_model(32, 3))
            rng = np.random.default_rng(3)
            images = [rng.random((48, 48, 3)).astype(np.float32)
                      for _ in range(8)]
            pipe = InferencePipeline(model, batch_size=8)
            expected = [np.clip(super_resolve(model, img), 0.0, 1.0)
                        for img in images]
            for out, exp in zip(pipe.map(images), expected):
                np.testing.assert_array_equal(out, exp)

            one_at_a_time = bench(
                lambda: [super_resolve(model, img) for img in images],
                label="pipeline/one_at_a_time", warmup=1, repeats=3)
            batched = bench(lambda: pipe.map(images),
                            label="pipeline/micro_batched", warmup=1,
                            repeats=3)
            _record("pipeline_micro_batch", one_at_a_time, batched,
                    speedup(one_at_a_time, batched),
                    images=8, image_size=[48, 48], batch_size=8,
                    n_threads=get_num_threads())
            # No timing floor: micro-batching mainly wins per-call
            # overhead; the assertion above already proved equivalence.
