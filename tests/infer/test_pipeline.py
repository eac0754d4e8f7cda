"""Batched/parallel inference pipeline: equivalence and plumbing.

The thread pool and the micro-batching serving API must be
execution-strategy changes only: outputs are required to match the
per-image ``super_resolve`` oracle bit-for-bit across image shapes and
thread counts.  The tiled path is held to the sequential per-tile
oracle in ``test_tiled_parity.py``.
"""


import numpy as np
import pytest

from repro import grad as G
from repro.binarize.baselines import E2FIFBinaryConv2d
from repro.deploy import compile_model
from repro.grad import Tensor
from repro.infer import (DiscardedError, InferencePipeline, get_num_threads,
                         num_threads, parallel_map, set_num_threads,
                         tiled_super_resolve)
from repro.nn import Module, Sequential, init
from repro.train import super_resolve


class _Upscale2x(Module):
    """Deterministic stand-in model: nearest-neighbour x2 upscale."""

    def forward(self, x):
        return Tensor(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3))


class TestThreadControls:
    def test_default_positive(self):
        assert get_num_threads() >= 1

    def test_set_and_reset(self):
        set_num_threads(3)
        assert get_num_threads() == 3
        set_num_threads(None)
        assert get_num_threads() >= 1

    def test_env_variable(self, monkeypatch):
        set_num_threads(None)
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        assert get_num_threads() == 5

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            set_num_threads(0)
        with pytest.raises(ValueError):
            parallel_map(lambda x: x, [1], n_threads=-1)

    def test_context_manager(self):
        with num_threads(2):
            assert get_num_threads() == 2

    def test_parallel_map_preserves_order(self):
        items = list(range(50))
        assert parallel_map(lambda i: i * i, items, n_threads=4) == \
            [i * i for i in items]

    def test_parallel_map_propagates_errors(self):
        def boom(i):
            raise RuntimeError("worker failed")
        with pytest.raises(RuntimeError, match="worker failed"):
            parallel_map(boom, [1, 2], n_threads=2)

    def test_lowered_thread_count_bounds_concurrency(self):
        # Grow the shared pool first, then ask for 2 threads: no more
        # than 2 items may ever be in flight (the pool only grows, so
        # concurrency must be bounded by wave submission, not width).
        import threading
        import time
        parallel_map(lambda i: i, list(range(8)), n_threads=8)
        in_flight = {"now": 0, "peak": 0}
        lock = threading.Lock()

        def tracked(i):
            with lock:
                in_flight["now"] += 1
                in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            time.sleep(0.01)
            with lock:
                in_flight["now"] -= 1
            return i

        assert parallel_map(tracked, list(range(8)), n_threads=2) == \
            list(range(8))
        assert in_flight["peak"] <= 2


class TestTiledEquivalence:
    """``tiled_super_resolve`` plumbing; its outputs are checked against
    the sequential oracle in ``test_tiled_parity.py``."""

    def test_tiled_super_resolve_threads(self):
        with G.default_dtype("float32"):
            model = _Upscale2x()
            img = np.random.default_rng(5).random((50, 34, 3))
            base = tiled_super_resolve(model, img, scale=2, tile=16,
                                       overlap=4, n_threads=1)
            par = tiled_super_resolve(model, img, scale=2, tile=16,
                                      overlap=4, n_threads=4, batch_size=2)
            np.testing.assert_array_equal(par, base)

    def test_wrong_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            tiled_super_resolve(_Upscale2x(), np.zeros((20, 20, 3)), scale=3,
                                tile=8, overlap=2)


class TestInferencePipeline:
    def _model(self):
        init.seed(0)
        return compile_model(Sequential(E2FIFBinaryConv2d(3, 8, 3),
                                        E2FIFBinaryConv2d(8, 3, 3)))

    def test_map_matches_individual_super_resolve(self):
        with G.default_dtype("float32"):
            model = self._model()
            rng = np.random.default_rng(6)
            images = [rng.random((10, 12, 3)).astype(np.float32)
                      for _ in range(5)]
            pipe = InferencePipeline(model, batch_size=2)
            outs = pipe.map(images)
            for img, out in zip(images, outs):
                np.testing.assert_array_equal(out, np.clip(
                    super_resolve(model, img), 0.0, 1.0))

    def test_mixed_shapes_grouped(self):
        with G.default_dtype("float32"):
            model = self._model()
            rng = np.random.default_rng(7)
            images = [rng.random((8, 8, 3)).astype(np.float32),
                      rng.random((10, 6, 3)).astype(np.float32),
                      rng.random((8, 8, 3)).astype(np.float32)]
            pipe = InferencePipeline(model, batch_size=8)
            outs = pipe.map(images)
            assert [o.shape for o in outs] == [(8, 8, 3), (10, 6, 3), (8, 8, 3)]
            for img, out in zip(images, outs):
                np.testing.assert_array_equal(out, np.clip(
                    super_resolve(model, img), 0.0, 1.0))
            # 2 same-shape images in one batch + 1 alone
            assert pipe.stats["batches"] == 2
            assert pipe.stats["max_batch"] == 2

    def test_submit_result_flushes_lazily(self):
        with G.default_dtype("float32"):
            model = self._model()
            img = np.random.default_rng(8).random((8, 8, 3)).astype(np.float32)
            pipe = InferencePipeline(model)
            handle = pipe.submit(img)
            assert not handle.done()
            assert pipe.pending() == 1
            out = handle.result()
            assert handle.done()
            assert pipe.pending() == 0
            np.testing.assert_array_equal(out, np.clip(
                super_resolve(model, img), 0.0, 1.0))

    def test_call_convenience(self):
        with G.default_dtype("float32"):
            model = self._model()
            img = np.random.default_rng(9).random((8, 8, 3)).astype(np.float32)
            np.testing.assert_array_equal(
                InferencePipeline(model)(img),
                np.clip(super_resolve(model, img), 0.0, 1.0))

    def test_tiled_pipeline_matches_tiled_super_resolve(self):
        with G.default_dtype("float32"):
            model = self._model()
            img = np.random.default_rng(10).random((37, 29, 3)).astype(np.float32)
            pipe = InferencePipeline(model, batch_size=4, tile=16,
                                     tile_overlap=8, scale=1)
            np.testing.assert_array_equal(
                pipe(img),
                tiled_super_resolve(model, img, scale=1, tile=16, overlap=8,
                                    batch_size=4))

    def test_parallel_threads_match(self):
        with G.default_dtype("float32"):
            model = self._model()
            rng = np.random.default_rng(11)
            images = [rng.random((9, 9, 3)).astype(np.float32)
                      for _ in range(6)]
            base = InferencePipeline(model, batch_size=2, n_threads=1).map(images)
            par = InferencePipeline(model, batch_size=2, n_threads=4).map(images)
            for a, b in zip(base, par):
                np.testing.assert_array_equal(a, b)

    def test_validation(self):
        model = _Upscale2x()
        with pytest.raises(ValueError, match="batch_size"):
            InferencePipeline(model, batch_size=0)
        with pytest.raises(ValueError, match="scale"):
            InferencePipeline(model, tile=16)
        with pytest.raises(ValueError, match="image"):
            InferencePipeline(model).submit(np.zeros((4, 4)))
        # clip=False cannot be honoured on the tiled path (per-tile
        # outputs are blended already clipped) — reject, don't ignore.
        with pytest.raises(ValueError, match="clip"):
            InferencePipeline(model, tile=16, scale=2, clip=False)

    def test_failed_flush_keeps_pending_images(self):
        class _Flaky(Module):
            def __init__(self):
                super().__init__()
                self.fail = True

            def forward(self, x):
                if self.fail:
                    raise RuntimeError("transient failure")
                return Tensor(x.data)

        model = _Flaky()
        pipe = InferencePipeline(model, batch_size=4)
        img = np.random.default_rng(13).random((6, 6, 3))
        handle = pipe.submit(img)
        with pytest.raises(RuntimeError, match="transient"):
            pipe.flush()
        # The image is still queued, not silently dropped...
        assert pipe.pending() == 1
        assert not handle.done()
        # ...and a retry after the fault clears delivers the result.
        model.fail = False
        out = handle.result()
        assert out.shape == (6, 6, 3)
        assert pipe.pending() == 0

    def test_stats_counters(self):
        with G.default_dtype("float32"):
            model = self._model()
            rng = np.random.default_rng(12)
            pipe = InferencePipeline(model, batch_size=2)
            pipe.map([rng.random((8, 8, 3)).astype(np.float32)
                      for _ in range(5)])
            assert pipe.stats["submitted"] == 5
            assert pipe.stats["completed"] == 5
            assert pipe.stats["batches"] == 3  # 2 + 2 + 1


class TestPipelineHooks:
    """The serving-layer attachment points: hooks and cancellation."""

    def _pipeline(self, **kwargs):
        return InferencePipeline(_Upscale2x(), **kwargs)

    def test_hooks_observe_batches_and_flushes(self):
        events = []

        from repro.infer import PipelineHooks

        class Hooks(PipelineHooks):
            def on_batch(self, n_images, seconds):
                events.append(("batch", n_images))

            def on_flush(self, n_images, seconds):
                events.append(("flush", n_images))

        pipe = self._pipeline(batch_size=2, hooks=Hooks())
        rng = np.random.default_rng(0)
        pipe.map([rng.random((4, 4, 3)) for _ in range(5)])
        batches = [e for e in events if e[0] == "batch"]
        flushes = [e for e in events if e[0] == "flush"]
        assert sum(n for _, n in batches) == 5
        assert [n for _, n in batches] == [2, 2, 1]
        assert flushes == [("flush", 5)]

    def test_discard_pending(self):
        pipe = self._pipeline(batch_size=8)
        rng = np.random.default_rng(0)
        keep = pipe.submit(rng.random((4, 4, 3)))
        drop = pipe.submit(rng.random((4, 4, 3)))
        assert pipe.discard_pending([drop]) == 1
        assert pipe.pending() == 1
        pipe.flush()
        assert keep.done()
        assert not drop.done()
        assert pipe.discard_pending([keep]) == 0  # already completed

    def test_discarded_handle_raises_typed_error_immediately(self):
        # Regression: result() on a discarded handle used to re-flush
        # and block/fail opaquely — its image is gone from the queue,
        # so no flush can ever resolve it.
        pipe = self._pipeline(batch_size=8)
        rng = np.random.default_rng(0)
        keep = pipe.submit(rng.random((4, 4, 3)))
        drop = pipe.submit(rng.random((4, 4, 3)))
        assert pipe.discard_pending([drop]) == 1
        assert drop.discarded()
        assert not keep.discarded()
        with pytest.raises(DiscardedError):
            drop.result()
        # The raise happened without flushing the survivor's image.
        assert not keep.done()
        assert keep.result().shape == (8, 8, 3)

    def test_discard_does_not_mark_completed_handles(self):
        pipe = self._pipeline(batch_size=8)
        rng = np.random.default_rng(0)
        done_handle = pipe.submit(rng.random((4, 4, 3)))
        pipe.flush()
        assert pipe.discard_pending([done_handle]) == 0
        assert not done_handle.discarded()
        assert done_handle.result().shape == (8, 8, 3)


class TestGradModeInheritance:
    """no_grad on the calling thread must extend into pool workers."""

    def test_parallel_map_inherits_no_grad(self):
        def probe(_):
            return G.is_grad_enabled()

        with G.no_grad():
            assert parallel_map(probe, range(6), n_threads=3) == [False] * 6
        assert parallel_map(probe, range(6), n_threads=3) == [True] * 6

    def test_submit_task_inherits_no_grad(self):
        from repro.infer import submit_task

        with num_threads(2):
            with G.no_grad():
                assert submit_task(G.is_grad_enabled).result(5) is False
            assert submit_task(G.is_grad_enabled).result(5) is True

    def test_threaded_pipeline_builds_no_graph(self):
        model = _Upscale2x()
        pipe = InferencePipeline(model, batch_size=1, n_threads=2)
        rng = np.random.default_rng(0)
        outs = pipe.map([rng.random((4, 4, 3)) for _ in range(4)])
        assert len(outs) == 4
