"""A background ``ModelServer`` starts each flush where its model becomes
due: from the submit that queues work for an idle model, or from the end
of that model's previous flush.  It has no thread of its own, and a
caller blocked in ``wait()`` runs a dispatched flush no worker has
started; so does a stream waiting for its tiles.

The models here are probes that record the thread each forward ran on
and can hold a forward until the test opens their gate.  Every test gets
a pool of its own, so its width is the thread count the test sets.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import grad as G
from repro.deploy import compile_model
from repro.grad import Tensor
from repro.infer import InferencePipeline
from repro.models import build_model
from repro.nn import Module
from repro.serve import ModelServer, ServerBusy, ServerConfig
from repro.stream import StreamConfig, StreamSession

from ..helpers import parse_table, record_resolves

KEY_A = ("srresnet", "scales", 2)
KEY_B = ("edsr", "e2fif", 2)


class _Probe(Module):
    """Identity model: records the thread of each forward and sets
    ``started``, then waits (at most 10 s) for ``gate``, which starts
    open."""

    def __init__(self):
        super().__init__()
        self.forwards = []
        self.started = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def forward(self, x):
        self.forwards.append(threading.current_thread().name)
        self.started.set()
        if not self.gate.wait(timeout=10):  # pragma: no cover
            raise RuntimeError("gate never opened")
        return Tensor(x.data)


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    """Two tiny artifacts: the server's catalog (the probes run)."""
    directory = tmp_path_factory.mktemp("zoo")
    with G.default_dtype("float32"):
        for arch, scheme, scale in (KEY_A, KEY_B):
            model = build_model(arch, scale=scale, scheme=scheme,
                                preset="tiny")
            compile_model(model, freeze=str(directory / f"{arch}.npz"))
    return directory


@pytest.fixture
def probes(monkeypatch):
    """A probe per model, served in place of its artifact."""
    probes = {KEY_A: _Probe(), KEY_B: _Probe()}
    by_name = {f"{key[0]}.npz": probe for key, probe in probes.items()}

    def probe_pipeline(path, **kwargs):
        return InferencePipeline(by_name[os.path.basename(path)], **kwargs)

    monkeypatch.setattr("repro.serve.server.InferencePipeline",
                        probe_pipeline)
    yield probes
    for probe in probes.values():
        probe.gate.set()


def _image(seed=0):
    return np.random.default_rng(seed).random((6, 6, 3), dtype=np.float32)


def _held(probe):
    """Close ``probe``'s gate: its next forward waits for the test."""
    probe.gate.clear()
    probe.started.clear()


def _dispatch_behind_a_flush(server, probes):
    _held(probes[KEY_A])
    first = server.submit(_image(1), KEY_A)
    assert probes[KEY_A].started.wait(timeout=10)
    second = server.submit(_image(2), KEY_A)
    assert server.pending() == 1  # its model is busy
    probes[KEY_A].gate.set()  # the flush's end starts the next
    return [first, second]


def _dispatch_waited_behind_another_model(server, probes):
    # B's flush holds the one worker, so A's waits on the pool; the
    # caller blocked in wait() runs it instead.
    _held(probes[KEY_B])
    held = server.submit(_image(1), KEY_B)
    assert probes[KEY_B].started.wait(timeout=10)
    mine = server.submit(_image(2), KEY_A)
    server.wait([mine], timeout=10)
    assert not held.done()
    assert probes[KEY_A].forwards == [threading.current_thread().name]
    probes[KEY_B].gate.set()
    return [held, mine]


def _dispatch_stream_behind_another_model(server, probes):
    # The same for a stream frame on A: the stream waits for its tile in
    # wait(), so its collector thread runs A's flush.
    _held(probes[KEY_B])
    held = server.submit(_image(1), KEY_B)
    assert probes[KEY_B].started.wait(timeout=10)
    with StreamSession(server, KEY_A, scale=1,
                       config=StreamConfig(tile=6, overlap=0)) as stream:
        frame = stream.submit_frame(_image(2))
        assert frame.result(timeout=5).ok
        assert not held.done()
    assert probes[KEY_A].forwards == [f"repro-stream-{stream.stream_id}"]
    probes[KEY_B].gate.set()
    return [held, frame]


def _dispatch_closed_behind_a_flush(server, probes):
    _held(probes[KEY_A])
    running = server.submit(_image(1), KEY_A)
    assert probes[KEY_A].started.wait(timeout=10)
    queued = server.submit(_image(2), KEY_A)
    server.close(drain=False)
    assert queued.result(timeout=0) == ServerBusy(KEY_A, "server closed", 0)
    probes[KEY_A].gate.set()
    assert isinstance(running.result(timeout=10), np.ndarray)
    deadline = time.monotonic() + 10
    while server._scheduler.inflight() and time.monotonic() < deadline:
        time.sleep(0.001)
    # The flush ended after the stop flag and started no other.
    assert not server._scheduler.inflight()
    assert len(probes[KEY_A].forwards) == 1
    return [running, queued]


def _dispatch_dtype(server, probes):
    # dtype=None: the flush runs under the process default (float64),
    # not under the submitting thread's override.
    with G.thread_default_dtype("float32"):
        future = server.submit(_image(), KEY_A)
    assert future.result(timeout=10).dtype == np.float64
    return [future]


def _dispatch_no_thread(server, probes):
    # The test checks that building this row's server started no thread.
    return [server.submit(_image(), KEY_A)]


def _dispatch_on_the_pool(server, probes):
    _held(probes[KEY_A])
    future = server.submit(_image(), KEY_A)
    assert probes[KEY_A].started.wait(timeout=10)
    assert not future.done()  # submit returned before the forward ended
    probes[KEY_A].gate.set()
    thread, = probes[KEY_A].forwards
    assert thread.startswith("repro-infer")
    return [future]


#: One row per way a background server starts a flush, each run by the
#: ``_dispatch_*`` scenario of the same name over probe models, at each
#: process thread count in ``threads`` (which sizes the pool): the
#: flushes it starts and the value type of each future it returns.  Only
#: the two ``*_behind_another_model`` rows wait before ``close()``; no row
#: polls or drains.
DISPATCH = """
  row                          | threads | flushes | values
  -----------------------------+---------+---------+--------------------
  behind_a_flush               | 1 2     | 2       | ndarray ndarray
  waited_behind_another_model  | 1       | 2       | ndarray ndarray
  stream_behind_another_model  | 1       | 2       | ndarray FrameResult
  closed_behind_a_flush        | 1 2     | 1       | ndarray ServerBusy
  dtype                        | 1 2     | 1       | ndarray
  no_thread                    | 1 2     | 1       | ndarray
  on_the_pool                  | 1 2     | 1       | ndarray
"""

_CASES = [(row, int(threads)) for row in parse_table(DISPATCH)
          for threads in row["threads"].split()]


class TestDispatchTable:
    @pytest.mark.parametrize(
        "row,threads", _CASES,
        ids=[f"{row['row']}-{threads}" for row, threads in _CASES])
    def test_each_flush_starts_where_its_model_becomes_due(
        self, zoo, probes, fresh_pool, monkeypatch, row, threads
    ):
        monkeypatch.setenv("REPRO_NUM_THREADS", str(threads))
        resolves = record_resolves(monkeypatch)
        before = threading.enumerate()
        with G.default_dtype("float64"):
            server = ModelServer(zoo, ServerConfig(cache_bytes=0))
            if row["row"] == "no_thread":
                assert not set(threading.enumerate()) - set(before)
            try:
                scenario = globals()[f"_dispatch_{row['row']}"]
                futures = scenario(server, probes)
                values = [future.result(timeout=10) for future in futures]
            finally:
                server.close()
        assert [type(v).__name__ for v in values] == row["values"].split()
        for future in futures:
            assert sum(f is future for f in resolves) == 1
        counters = server.stats()["counters"]
        assert counters["flush_idle"] + counters["flush_full"] == int(
            row["flushes"])
        assert server._scheduler.audit_depth() == 0


class TestNoLostDispatch:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_racing_submits_to_two_models_all_resolve_once(
        self, zoo, probes, fresh_pool, monkeypatch, threads
    ):
        """Submitters race each other and the flush ends that start
        each model's next flush, and half of them wait in ``wait()``,
        racing the pool to run each flush no worker has started.  A
        dispatch lost between a request queueing and its model going
        idle strands that request; a flush run twice resolves its
        requests twice."""
        monkeypatch.setenv("REPRO_NUM_THREADS", str(threads))
        resolves = record_resolves(monkeypatch)
        server = ModelServer(zoo, ServerConfig(cache_bytes=0, max_batch=4,
                                               max_queue_depth=4096))
        futures, errors = [], []
        lock = threading.Lock()

        def client(worker):
            try:
                mine = [server.submit(_image(100 * worker + i),
                                      (KEY_A, KEY_B)[(worker + i) % 2])
                        for i in range(30)]
                with lock:
                    futures.extend(mine)
                if worker % 2:
                    server.wait(mine, timeout=30)
                for future in mine:
                    assert isinstance(future.result(timeout=30), np.ndarray)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client, args=(w,))
                       for w in range(6)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            server.close()
        assert not any(thread.is_alive() for thread in clients)
        assert not errors, errors
        assert len(futures) == 180
        assert all(sum(f is future for f in resolves) == 1
                   for future in futures)
        assert server._scheduler.audit_depth() == 0
