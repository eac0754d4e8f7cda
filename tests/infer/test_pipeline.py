"""Batched/parallel inference pipeline: equivalence and plumbing.

The stacked tile pipeline, the thread pool, and the micro-batching
serving API must all be execution-strategy changes only: outputs are
required to match the sequential per-tile / per-image oracles
bit-for-bit (packed models) or to float tolerance (float models), across
odd image sizes, tiles that do not divide the image, and thread counts.
"""


import numpy as np
import pytest

from repro import grad as G
from repro.binarize.baselines import E2FIFBinaryConv2d
from repro.deploy import TiledInference, compile_model
from repro.grad import Tensor, no_grad
from repro.infer import (DiscardedError, InferencePipeline, get_num_threads,
                         num_threads, parallel_map, plan_tiles,
                         set_num_threads, tiled_super_resolve)
from repro.models import build_model
from repro.nn import Module, Sequential, init
from repro.train import super_resolve

from ..oracles import SequentialTiledInference


class _Upscale2x(Module):
    """Deterministic stand-in model: nearest-neighbour x2 upscale."""

    def forward(self, x):
        return Tensor(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3))


def _forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _sequential_tiled_oracle(model, lr_image, scale, tile, overlap):
    """The seed path: one ``super_resolve`` per tile, stitched."""
    h, w = lr_image.shape[:2]
    plan = plan_tiles(h, w, tile, overlap)
    out = np.zeros((h * scale, w * scale, 3), dtype=np.float64)
    weight = np.zeros((h * scale, w * scale, 1), dtype=np.float64)
    th, tw = plan.tile_h, plan.tile_w
    for s in plan.tiles:
        sr = super_resolve(model, lr_image[s.y0:s.y0 + th, s.x0:s.x0 + tw])
        sr = sr[s.top * scale:(th - s.bottom) * scale,
                s.left * scale:(tw - s.right) * scale]
        ys, xs = (s.y0 + s.top) * scale, (s.x0 + s.left) * scale
        out[ys:ys + sr.shape[0], xs:xs + sr.shape[1]] += sr
        weight[ys:ys + sr.shape[0], xs:xs + sr.shape[1]] += 1.0
    return np.clip(out / np.maximum(weight, 1.0), 0.0, 1.0)


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
    """Batched tiled paths vs the sequential seed path."""

    def _packed_model(self):
        init.seed(0)
        model = Sequential(E2FIFBinaryConv2d(3, 8, 3),
                           E2FIFBinaryConv2d(8, 3, 3))
        return compile_model(model)

    @pytest.mark.parametrize("shape", [(37, 41), (33, 64), (48, 31)])
    @pytest.mark.parametrize("tile,overlap", [(16, 8), (20, 6)])
    def test_odd_sizes_and_non_dividing_tiles(self, shape, tile, overlap):
        with G.default_dtype("float32"):
            model = self._packed_model()
            h, w = shape
            x = np.random.default_rng(1).normal(size=(1, 3, h, w)).astype(np.float32)
            seq = SequentialTiledInference(model, tile=tile, overlap=overlap)
            bat = TiledInference(model, tile=tile, overlap=overlap,
                                 batch_size=5)
            np.testing.assert_array_equal(_forward(bat, x), _forward(seq, x))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_thread_counts_identical(self, threads):
        with G.default_dtype("float32"):
            model = self._packed_model()
            x = np.random.default_rng(2).normal(size=(1, 3, 45, 39)).astype(np.float32)
            seq = SequentialTiledInference(model, tile=16, overlap=8)
            bat = TiledInference(model, tile=16, overlap=8,
                                 batch_size=3, n_threads=threads)
            np.testing.assert_array_equal(_forward(bat, x), _forward(seq, x))

    def test_batch_of_images(self):
        with G.default_dtype("float32"):
            model = self._packed_model()
            x = np.random.default_rng(3).normal(size=(3, 3, 40, 24)).astype(np.float32)
            seq = SequentialTiledInference(model, tile=16, overlap=8)
            bat = TiledInference(model, tile=16, overlap=8,
                                 batch_size=4)
            np.testing.assert_array_equal(_forward(bat, x), _forward(seq, x))

    def test_tiled_super_resolve_matches_sequential_oracle(self):
        with G.default_dtype("float32"):
            init.seed(2)
            model = build_model("srresnet", scale=2, scheme="e2fif",
                                preset="tiny")
            img = np.random.default_rng(4).random((37, 29, 3)).astype(np.float32)
            fast = tiled_super_resolve(model, img, scale=2, tile=16, overlap=8,
                                       batch_size=4)
            oracle = _sequential_tiled_oracle(model, img, 2, tile=16, overlap=8)
            np.testing.assert_allclose(fast, oracle, atol=1e-5)

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

    def test_nested_parallelism_does_not_deadlock(self):
        # A thread-parallel tiled model inside a thread-parallel
        # pipeline: the inner parallel_map must run inline on pool
        # workers instead of starving the shared pool.
        with G.default_dtype("float32"):
            inner = TiledInference(self._model(), tile=8, overlap=4,
                                   batch_size=2, n_threads=4)
            rng = np.random.default_rng(14)
            images = [rng.random((20, 20, 3)).astype(np.float32)
                      for _ in range(4)]
            pipe = InferencePipeline(inner, batch_size=1, n_threads=4)
            outs = pipe.map(images)
            for img, out in zip(images, outs):
                expected = np.clip(super_resolve(inner, img), 0.0, 1.0)
                np.testing.assert_array_equal(out, expected)

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


class TestPipelineDeadlinesAndHooks:
    """The serving-layer attachment points: flush deadlines + hooks."""

    def _pipeline(self, **kwargs):
        return InferencePipeline(_Upscale2x(), **kwargs)

    def test_oldest_age_and_due(self):
        pipe = self._pipeline(batch_size=4)
        assert pipe.oldest_age() is None
        assert not pipe.due(0.0)
        img = np.random.default_rng(0).random((4, 4, 3))
        pipe.submit(img)
        t0 = pipe._pending[0][2]
        assert pipe.oldest_age(now=t0 + 0.25) == pytest.approx(0.25)
        assert not pipe.due(budget_s=0.5, now=t0 + 0.25)
        assert pipe.due(budget_s=0.5, now=t0 + 0.5)

    def test_full_batch_is_due_regardless_of_budget(self):
        pipe = self._pipeline(batch_size=2)
        img = np.random.default_rng(0).random((4, 4, 3))
        pipe.submit(img)
        assert not pipe.due(budget_s=1e9)
        pipe.submit(img)
        assert pipe.due(budget_s=1e9)

    def test_flush_if_due(self):
        pipe = self._pipeline(batch_size=8)
        img = np.random.default_rng(0).random((4, 4, 3))
        handle = pipe.submit(img)
        t0 = pipe._pending[0][2]
        assert not pipe.flush_if_due(budget_s=10.0, now=t0 + 0.1)
        assert not handle.done()
        assert pipe.flush_if_due(budget_s=0.05, now=t0 + 0.1)
        assert handle.done()
        assert pipe.pending() == 0

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
