"""A pool task's own ``parallel_map`` hands its items to idle workers,
and ``submit_task`` always queues.

A server flush is one pool task (``submit_task``), and its batches are a
``parallel_map`` inside it.  From a worker, each wave queues all but its
first item, runs the first itself, then runs inline every queued item no
idle worker has started and waits for the rest.  So the batches use an
idle core when there is one, and nothing deadlocks when there is none.
A task never runs on the thread that submits it, at any thread count.
"""

import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro import grad as G
from repro.deploy import compile_model
from repro.grad import Tensor
from repro.infer import InferencePipeline, parallel_map, submit_task
from repro.models import build_model
from repro.nn import Module


@pytest.fixture(autouse=True)
def _two_threads(monkeypatch):
    # submit_task reads the process default thread count.
    monkeypatch.setenv("REPRO_NUM_THREADS", "2")


class _Rendezvous(Module):
    """Runs ``model``, but only once another forward sharing its
    2-party barrier has arrived too (each waits at most 5 s)."""

    def __init__(self, model, barrier=None):
        super().__init__()
        self.model = model
        self.barrier = barrier or threading.Barrier(2, timeout=5)

    def forward(self, x):
        self.barrier.wait()
        return self.model(x)


class _Double(Module):
    def forward(self, x):
        return Tensor(x.data * 2.0)


def _images(n, seed, size=8):
    rng = np.random.default_rng(seed)
    return [rng.random((size, size, 3), dtype=np.float32) for _ in range(n)]


def _flush_in_task(pipeline, images):
    """Queue ``images`` and flush them as one pool task, as a server
    flush runs; returns the future of the flush."""
    handles = [pipeline.submit(image) for image in images]
    return handles, submit_task(pipeline.flush)


def test_a_tasks_two_batches_run_at_once():
    # Run one after the other, the first batch's forward would wait for
    # the second and break the barrier.
    images = _images(2, seed=1)
    pipeline = InferencePipeline(_Rendezvous(_Double()), batch_size=1,
                                 n_threads=2)
    handles, flushed = _flush_in_task(pipeline, images)
    flushed.result(30)
    for image, handle in zip(images, handles):
        np.testing.assert_array_equal(handle.result(),
                                      np.clip(image * 2.0, 0.0, 1.0))


def test_two_flushes_with_both_workers_busy_match_one_thread():
    with G.default_dtype("float32"):
        model = compile_model(build_model("srresnet", scheme="scales",
                                          scale=2, preset="tiny"))
        expected = [InferencePipeline(model, batch_size=1,
                                      n_threads=1).map(_images(4, seed))
                    for seed in (2, 3)]
        # One barrier for both flushes: the two flush tasks hold both
        # workers at once, and every forward waits for a partner.
        barrier = threading.Barrier(2, timeout=5)
        pipelines = [InferencePipeline(_Rendezvous(model, barrier),
                                       batch_size=1, n_threads=2)
                     for _ in expected]
        runs = [_flush_in_task(pipeline, _images(4, seed))
                for pipeline, seed in zip(pipelines, (2, 3))]
    for (handles, flushed), want in zip(runs, expected):
        flushed.result(60)
        for handle, out in zip(handles, want):
            np.testing.assert_array_equal(handle.result(), out)


def test_nested_map_keeps_order_and_the_callers_context():
    def probe(i):
        return i, G.is_grad_enabled(), G.get_default_dtype()

    def task():
        return parallel_map(probe, range(7), n_threads=2)

    with G.no_grad(), G.thread_default_dtype("float32"):
        got = submit_task(task).result(30)
    assert got == [(i, False, np.float32) for i in range(7)]


def test_nested_map_raises_the_first_exception():
    def boom(i):
        if i >= 2:
            raise RuntimeError(f"item {i} failed")
        return i

    future = submit_task(parallel_map, boom, range(6), n_threads=2)
    with pytest.raises(RuntimeError, match="item 2 failed"):
        future.result(30)


def test_every_item_runs_once_under_contention(monkeypatch):
    # More workers than cores and frequent thread switches: an item
    # taken back by cancel() must never also run on a worker.
    monkeypatch.setenv("REPRO_NUM_THREADS", "4")
    runs = Counter()
    lock = threading.Lock()

    def item(key):
        with lock:
            runs[key] += 1
        return key

    def task(t):
        return parallel_map(item, [(t, i) for i in range(9)], n_threads=4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        futures = [submit_task(task, t) for t in range(8)]
        results = [future.result(30) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[(t, i) for i in range(9)] for t in range(8)]
    assert len(runs) == 72 and set(runs.values()) == {1}


def test_submit_task_from_a_pool_task_queues(fresh_pool, monkeypatch):
    # One worker: the inner task can start only once the outer ends.
    monkeypatch.setenv("REPRO_NUM_THREADS", "1")
    events = []

    def outer():
        inner = submit_task(events.append, "inner")
        events.append("outer")
        return inner

    submit_task(outer).result(30).result(30)
    assert events == ["outer", "inner"]


def test_a_task_runs_on_the_pool_at_one_thread(fresh_pool, monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "1")
    name = submit_task(lambda: threading.current_thread().name).result(30)
    assert name.startswith("repro-infer")
    assert fresh_pool._pool_width == 1


def test_blas_is_pinned_once_when_the_pool_reaches_two_workers(
        fresh_pool, monkeypatch):
    pins = []
    monkeypatch.setattr(fresh_pool, "_pin_openblas_to_one_thread",
                        lambda: pins.append(fresh_pool._pool_width))
    fresh_pool._executor(1)
    assert pins == [] and "OPENBLAS_NUM_THREADS" not in os.environ
    for workers in (2, 3, 2):
        fresh_pool._executor(workers)
    assert pins == [1]  # pinned while growing from one worker to two
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_callers_racing_the_pool_growing_never_find_it_shut(
        fresh_pool, monkeypatch):
    # A caller that took the pool just before another caller widened it
    # still queues on the old pool, so no call raises "cannot schedule
    # new futures after shutdown".
    monkeypatch.setenv("REPRO_NUM_THREADS", "1")
    errors, stop = [], threading.Event()

    def caller():
        while not stop.is_set():
            try:
                submit_task(int, 1).result(30)
                parallel_map(abs, [1, -2, 3], n_threads=3)
            except RuntimeError as exc:
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    callers = [threading.Thread(target=caller) for _ in range(4)]
    try:
        for thread in callers:
            thread.start()
        for workers in range(4, 44):
            fresh_pool._executor(workers)
            time.sleep(0.002)
    finally:
        stop.set()
        for thread in callers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert not errors, errors[:3]
