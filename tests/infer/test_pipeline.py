"""Batched/parallel inference pipeline: equivalence and plumbing.

The thread pool and the micro-batching serving API must be
execution-strategy changes only: outputs are required to match the
per-image ``super_resolve`` oracle bit-for-bit across image shapes and
thread counts.  The tiled path is held to the sequential per-tile
oracle in ``test_tiled_parity.py``.  ``TestSettleContract`` holds the
batch contract: a flush settles every image it takes, with its output
or the exception of the forward that ran it.
"""

import threading

import numpy as np
import pytest

from repro import grad as G
from repro.binarize.baselines import E2FIFBinaryConv2d
from repro.deploy import compile_model
from repro.grad import Tensor
from repro.infer import (InferencePipeline, get_num_threads, parallel_map,
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

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        assert get_num_threads() == 5

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            parallel_map(lambda x: x, [1], n_threads=-1)

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
            sizes = []
            pipe = InferencePipeline(
                model, batch_size=8,
                on_batch=lambda n, seconds: sizes.append(n))
            outs = pipe.map(images)
            assert [o.shape for o in outs] == [(8, 8, 3), (10, 6, 3), (8, 8, 3)]
            for img, out in zip(images, outs):
                np.testing.assert_array_equal(out, np.clip(
                    super_resolve(model, img), 0.0, 1.0))
            # 2 same-shape images in one batch + 1 alone
            assert sorted(sizes) == [1, 2]

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


class _Gated(_Upscale2x):
    """``_Upscale2x`` whose forward blocks until ``gate`` opens."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def forward(self, x):
        self.entered.set()
        assert self.gate.wait(timeout=10), "gate never opened"
        return super().forward(x)


def _upscaled(img):
    return np.clip(np.repeat(np.repeat(img, 2, axis=0), 2, axis=1), 0.0, 1.0)


class TestSettleContract:
    """A flush settles every image it takes; ``on_batch`` observes it."""

    def test_on_batch_observes_each_forward(self):
        events = []
        pipe = InferencePipeline(
            _Upscale2x(), batch_size=2,
            on_batch=lambda n, seconds: events.append((n, seconds)))
        rng = np.random.default_rng(0)
        pipe.map([rng.random((4, 4, 3)) for _ in range(5)])
        assert sorted(n for n, _ in events) == [1, 2, 2]
        assert all(seconds >= 0.0 for _, seconds in events)

    def test_failed_forward_settles_its_handles_and_next_submit_runs(self):
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
        pipe.flush()  # a failed forward does not make flush() raise
        # The image is settled with the forward's error, not re-queued.
        assert pipe.pending() == 0
        assert handle.done()
        with pytest.raises(RuntimeError, match="transient"):
            handle.result()
        # The failure stays with its handle: the next submit runs.
        model.fail = False
        np.testing.assert_array_equal(pipe.submit(img).result(), img)
        assert pipe.pending() == 0

    @pytest.mark.parametrize("tile", [None, 4])
    def test_failed_forward_fails_only_its_own_images(self, tile):
        rng = np.random.default_rng(14)
        good = [rng.random((8, 8, 3)), rng.random((6, 10, 3))]
        bad = rng.random((8, 8, 4))  # the model needs 3 channels

        class _ThreeChannels(_Upscale2x):
            def forward(self, x):
                if x.data.shape[1] != 3:
                    raise ValueError("expected 3 channels")
                return super().forward(x)

        pipe = InferencePipeline(_ThreeChannels(), batch_size=4, tile=tile,
                                 tile_overlap=2, scale=2)
        handles = [pipe.submit(good[0]), pipe.submit(bad),
                   pipe.submit(good[1])]
        pipe.flush()
        assert all(h.done() for h in handles)
        with pytest.raises(ValueError, match="3 channels"):
            handles[1].result()
        for img, handle in zip(good, (handles[0], handles[2])):
            np.testing.assert_array_equal(handle.result(), _upscaled(img))

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_handle_taken_by_another_flush_waits_for_it(self, n_threads):
        # Thread A's flush takes the images of both A and B; B's
        # result() must wait for that flush and return B's own output.
        model = _Gated()
        pipe = InferencePipeline(model, batch_size=1, n_threads=n_threads)
        rng = np.random.default_rng(15)
        img_a, img_b = rng.random((4, 4, 3)), rng.random((4, 6, 3))
        handle_a, handle_b = pipe.submit(img_a), pipe.submit(img_b)
        flusher = threading.Thread(target=pipe.flush)
        flusher.start()
        try:
            assert model.entered.wait(timeout=10)
            assert pipe.pending() == 0  # A's flush holds both images
            outcome = {}

            def read_b():
                try:
                    outcome["value"] = handle_b.result()
                except Exception as exc:  # the contract under test
                    outcome["error"] = exc

            reader = threading.Thread(target=read_b)
            reader.start()
            reader.join(timeout=0.05)
            assert not handle_b.done()
        finally:
            model.gate.set()
            flusher.join(timeout=10)
        reader.join(timeout=10)
        assert not flusher.is_alive() and not reader.is_alive()
        assert "error" not in outcome, outcome.get("error")
        np.testing.assert_array_equal(outcome["value"], _upscaled(img_b))
        np.testing.assert_array_equal(handle_a.result(), _upscaled(img_a))

    def test_flush_stopped_outside_a_forward_still_settles_every_image(
            self):
        # A raising on_batch stops the flush after the first forward;
        # the images it never ran are settled, not left waiting.
        def on_batch(n_images, seconds):
            raise KeyError("observer failed")

        pipe = InferencePipeline(_Upscale2x(), batch_size=1, n_threads=1,
                                 on_batch=on_batch)
        rng = np.random.default_rng(16)
        images = [rng.random((4, 4, 3)) for _ in range(3)]
        handles = [pipe.submit(img) for img in images]
        with pytest.raises(KeyError, match="observer failed"):
            pipe.flush()
        assert all(h.done() for h in handles)
        np.testing.assert_array_equal(handles[0].result(),
                                      _upscaled(images[0]))
        for handle in handles[1:]:
            with pytest.raises(RuntimeError, match="stopped early"):
                handle.result()

    def test_threads_sharing_a_pipeline_each_get_their_own_outputs(self):
        # Stress: more threads than cores submit and read concurrently,
        # so flushes keep taking each other's images.
        import sys
        import time

        class _Slow(_Upscale2x):
            def forward(self, x):
                time.sleep(5e-4)  # a forward that releases the GIL
                return super().forward(x)

        pipe = InferencePipeline(_Slow(), batch_size=2, n_threads=2)
        failures = []

        def client(seed):
            rng = np.random.default_rng(seed)
            for _ in range(40):
                images = [rng.random((4, 4, 3)) for _ in range(3)]
                handles = [pipe.submit(img) for img in images]
                time.sleep(0)  # let other threads queue behind these
                try:
                    outs = [h.result() for h in handles]
                except Exception as exc:  # the contract under test
                    failures.append(exc)
                    continue
                for img, out in zip(images, outs):
                    if not np.array_equal(out, _upscaled(img)):
                        failures.append("wrong output")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert pipe.pending() == 0

    def test_close_settles_queued_handles(self):
        pipe = InferencePipeline(_Upscale2x())
        handle = pipe.submit(np.zeros((4, 4, 3)))
        pipe.close()
        assert handle.done()
        with pytest.raises(RuntimeError, match="closed"):
            handle.result()
        with pytest.raises(RuntimeError, match="closed"):
            pipe.submit(np.zeros((4, 4, 3)))


class TestGradModeInheritance:
    """no_grad on the calling thread must extend into pool workers."""

    def test_parallel_map_inherits_no_grad(self):
        def probe(_):
            return G.is_grad_enabled()

        with G.no_grad():
            assert parallel_map(probe, range(6), n_threads=3) == [False] * 6
        assert parallel_map(probe, range(6), n_threads=3) == [True] * 6

    def test_submit_task_inherits_no_grad(self, monkeypatch):
        from repro.infer import submit_task

        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        with G.no_grad():
            assert submit_task(G.is_grad_enabled).result(5) is False
        assert submit_task(G.is_grad_enabled).result(5) is True

    def test_threaded_pipeline_builds_no_graph(self):
        model = _Upscale2x()
        pipe = InferencePipeline(model, batch_size=1, n_threads=2)
        rng = np.random.default_rng(0)
        outs = pipe.map([rng.random((4, 4, 3)) for _ in range(4)])
        assert len(outs) == 4
