"""ModelServer end-to-end: correctness, concurrency, admission, LRU.

The invariant everything here leans on: a served output is
bit-identical to running the same image through ``InferencePipeline``
on the same artifact — scheduling order, batch composition, caching
and thread count are execution-strategy details only.
"""

import itertools
import logging
import re
import threading
import time

import numpy as np
import pytest

from repro import grad as G
from repro.api import ServeSession
from repro.deploy import compile_model, scan_artifact_dir
from repro.infer import InferencePipeline
from repro.models import build_model
from repro.nn import init
from repro.serve import (
    ModelServer,
    ServeError,
    ServerBusy,
    ServerConfig,
    lint_exposition,
    parse_model_key,
)

from ..helpers import (
    FakeClock,
    check_fields,
    parse_counts,
    parse_table,
    record_resolves,
)

KEY_A = ("srresnet", "scales", 2)
KEY_B = ("edsr", "e2fif", 2)
LABEL_A, LABEL_B = "srresnet/scales/x2", "edsr/e2fif/x2"
SHAPES = ((12, 12, 3), (10, 14, 3))


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """Directory with two tiny packed artifacts (built once per module)."""
    directory = tmp_path_factory.mktemp("zoo")
    with G.default_dtype("float32"):
        for arch, scheme, scale in (KEY_A, KEY_B):
            init.seed(0)
            model = build_model(arch, scale=scale, scheme=scheme, preset="tiny")
            compile_model(model, freeze=str(directory / f"{arch}_{scheme}.npz"))
    return directory


@pytest.fixture(scope="module")
def reference_outputs(artifact_dir):
    """key -> {shape: [outputs for the module's canonical images]}."""

    def compute(key, images):
        info = {i.key: i for i in scan_artifact_dir(artifact_dir)[0]}[key]
        pipeline = InferencePipeline(str(info.path), batch_size=4)
        return pipeline.map(images)

    refs = {}
    with G.default_dtype("float32"):
        for key in (KEY_A, KEY_B):
            refs[key] = {
                shape: compute(key, _images(shape)) for shape in SHAPES
            }
    return refs


def _images(shape, n=6):
    rng = np.random.default_rng(hash(shape) % (2**32))
    return [rng.random(shape).astype(np.float32) for _ in range(n)]


def _manual_server(artifact_dir, clock, **overrides):
    defaults = dict(background=False, max_batch=8, n_threads=1)
    defaults.update(overrides)
    return ModelServer(
        artifact_dir, ServerConfig(**defaults), clock=clock
    )


#: One row per way a request resolves, each run by the ``_outcome_*``
#: scenario of the same name on a manual server under ``FakeClock``:
#: the value its future resolves to, the change it makes to
#: ``stats()["counters"]`` (``parse_counts``), and the fields of its
#: one ``repro.serve`` "request" line beyond ``request_id`` and
#: ``model`` (``check_fields``).
OUTCOMES = """
  row            | value      | delta                                                     | log
  ---------------+------------+-----------------------------------------------------------+---------------------------------------------------
  queue_full     | ServerBusy | requests cache_misses shed                                | outcome=shed; reason=queue full; queue_depth=1
  closed         | ServerBusy | requests shed                                             | outcome=shed; reason=server closed; queue_depth=0
  cache_hit      | ndarray    | requests cache_hits responses                             | outcome=ok; cache=hit; total_s
  served         | ndarray    | requests cache_misses responses batches batch_images flush_idle  | outcome=ok; cache=miss; total_s; queue_s; exec_s
  coalesced      | ndarray    | requests cache_misses coalesced responses=2 batches batch_images flush_idle  | outcome=ok; cache=coalesced; total_s; queue_s; exec_s
  failed_forward | ServeError | requests cache_misses errors flush_idle                   | outcome=error; message~ValueError: input channels 4
  failed_load    | ServeError | requests cache_misses errors flush_idle                   | outcome=error; message~RuntimeError: chaos: artifact load failed
  flush_raises   | ServeError | requests cache_misses errors flush_idle                   | outcome=error; message~RuntimeError: chaos: flush failed outside a forward
  undrained      | ServerBusy | requests cache_misses shed                                | outcome=shed; reason=server closed; queue_depth=0
"""

_VALUE_TYPES = {
    "ServerBusy": ServerBusy, "ServeError": ServeError, "ndarray": np.ndarray,
}


def _warm(server):
    """Load KEY_A with an image no row submits."""
    assert isinstance(server.map(_images(SHAPES[1], n=1), KEY_A)[0],
                      np.ndarray)


def _raise_once(message):
    """A callable that raises ``RuntimeError(message)`` on its first
    call and returns ``None`` after."""
    fired = []

    def fault(*args, **kwargs):
        if not fired:
            fired.append(True)
            raise RuntimeError(message)

    return fault


def _outcome_queue_full(server, submit, mark, monkeypatch):
    server.submit(_images(SHAPES[1], n=1)[0], KEY_A)  # fills the queue
    mark()
    return submit(_images(SHAPES[0], n=1)[0])


def _outcome_closed(server, submit, mark, monkeypatch):
    server.close()
    mark()
    return submit(_images(SHAPES[0], n=1)[0])


def _outcome_cache_hit(server, submit, mark, monkeypatch):
    image = _images(SHAPES[0], n=1)[0]
    server.map([image], KEY_A)
    mark()
    return submit(image)


def _outcome_served(server, submit, mark, monkeypatch):
    _warm(server)
    mark()
    future = submit(_images(SHAPES[0], n=1)[0])
    assert server.poll() == 1
    return future


def _outcome_coalesced(server, submit, mark, monkeypatch):
    _warm(server)
    image = _images(SHAPES[0], n=1)[0]
    server.submit(image, KEY_A)  # the primary the row's request rides
    mark()
    future = submit(image.copy())
    assert server.poll() == 1
    return future


def _outcome_failed_forward(server, submit, mark, monkeypatch):
    _warm(server)
    mark()
    future = submit(np.zeros((8, 8, 4), np.float32))  # 3-channel head
    assert server.poll() == 1
    return future


def _outcome_failed_load(server, submit, mark, monkeypatch):
    real_pipeline = InferencePipeline
    fault = _raise_once("chaos: artifact load failed")

    def flaky_pipeline(path, **kwargs):
        fault()
        return real_pipeline(path, **kwargs)

    monkeypatch.setattr("repro.serve.server.InferencePipeline",
                        flaky_pipeline)
    mark()
    future = submit(_images(SHAPES[0], n=1)[0])
    assert server.poll() == 1
    return future


def _fail_next_flush(server, monkeypatch):
    """Make KEY_A's loaded pipeline raise once from ``flush()`` itself,
    outside any model forward."""
    pipeline = server._models[KEY_A]
    real_flush = pipeline.flush
    fault = _raise_once("chaos: flush failed outside a forward")

    def flaky_flush():
        fault()
        return real_flush()

    monkeypatch.setattr(pipeline, "flush", flaky_flush, raising=False)


def _outcome_flush_raises(server, submit, mark, monkeypatch):
    _warm(server)
    _fail_next_flush(server, monkeypatch)
    mark()
    future = submit(_images(SHAPES[0], n=1)[0])
    assert server.poll() == 1
    return future


def _outcome_undrained(server, submit, mark, monkeypatch):
    mark()
    future = submit(_images(SHAPES[0], n=1)[0])
    server.close(drain=False)
    return future


class TestOutcomeTable:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "row", parse_table(OUTCOMES), ids=lambda row: row["row"])
    def test_each_outcome_is_counted_logged_and_resolved_once(
        self, artifact_dir, monkeypatch, caplog, row, threads
    ):
        resolves = record_resolves(monkeypatch)
        server = _manual_server(
            artifact_dir, FakeClock(), max_queue_depth=1, n_threads=threads
        )
        before = {}
        request_id = f"row-{row['row']}"

        def submit(image):
            return server.submit(image, KEY_A, request_id=request_id)

        def mark():
            before.update(server.stats()["counters"])

        scenario = globals()[f"_outcome_{row['row']}"]
        with G.default_dtype("float32"), \
                caplog.at_level(logging.INFO, logger="repro.serve"):
            future = scenario(server, submit, mark, monkeypatch)
            server._scheduler.audit_depth()
            assert future.done()
            value = future.result(timeout=0)
            assert isinstance(value, _VALUE_TYPES[row["value"]])
            if not isinstance(value, np.ndarray):
                assert value.model == KEY_A
            assert sum(f is future for f in resolves) == 1
            after = server.stats()["counters"]
            delta = {k: after[k] - before[k] for k in after
                     if after[k] != before[k]}
            assert delta == parse_counts(row["delta"])
            lines = [r.repro_fields for r in caplog.records
                     if r.name == "repro.serve"
                     and r.getMessage() == "request"
                     and r.repro_fields["request_id"] == request_id]
            assert len(lines) == 1, lines
            assert lines[0]["model"] == LABEL_A
            check_fields(lines[0], row["log"], ("request_id", "model"))
            # The server keeps serving after every outcome.
            if not server._stopped:
                server.drain()
                assert isinstance(
                    server.map(_images(SHAPES[0], n=2)[1:], KEY_A)[0],
                    np.ndarray)
            server.close()
        assert server._scheduler.audit_depth() == 0


class TestFlushRaisingOutsideAForward:
    @pytest.mark.parametrize("background", [True, False])
    def test_every_taken_request_settles_and_the_next_is_served(
        self, artifact_dir, monkeypatch, background
    ):
        """A flush whose ``pipeline.flush()`` raises outside any model
        forward settles every request it took with a ServeError naming
        the exception and releases its model: nothing is stranded."""
        with G.default_dtype("float32"):
            server = ModelServer(
                artifact_dir,
                ServerConfig(background=background, n_threads=1),
            )
            try:
                _warm(server)
                _fail_next_flush(server, monkeypatch)
                images = _images(SHAPES[0], n=3)
                futures = server.submit_many(images[:2], KEY_A)
                if not background:
                    assert server.poll() == 1
                for future in futures:
                    value = future.result(timeout=1.0)
                    assert isinstance(value, ServeError)
                    assert "flush failed outside a forward" in value.message
                server._scheduler.audit_depth()
                assert isinstance(server.map([images[2]], KEY_A)[0],
                                  np.ndarray)
            finally:
                server.close()
            assert server._scheduler.audit_depth() == 0


class TestParseModelKey:
    def test_tuple_and_string_forms(self):
        assert parse_model_key(("srresnet", "scales", 2)) == KEY_A
        assert parse_model_key("srresnet/scales/x2") == KEY_A
        assert parse_model_key("srresnet/scales/2") == KEY_A

    def test_bad_specs(self):
        for spec in ("srresnet/scales", "a/b/xq", 42, ("a", "b")):
            with pytest.raises(ValueError):
                parse_model_key(spec)


class TestCatalog:
    def test_available_models(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock())
        assert server.available_models == (KEY_B, KEY_A)
        assert server.coverage(KEY_A).coverage == "full"
        assert server.model_info("edsr/e2fif/x2").n_packed_layers > 0

    def test_unknown_model_is_a_keyerror(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock())
        with pytest.raises(KeyError, match="available"):
            server.submit(np.zeros((8, 8, 3), np.float32), "rdn/scales/x2")

    def test_bad_image_shape(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock())
        with pytest.raises(ValueError, match="H, W, C"):
            server.submit(np.zeros((8, 8), np.float32), KEY_A)

    def test_garbage_files_are_skipped_not_fatal(self, artifact_dir, tmp_path):
        zoo = tmp_path / "zoo"
        zoo.mkdir()
        real = next(artifact_dir.glob("srresnet*.npz"))
        (zoo / real.name).write_bytes(real.read_bytes())
        np.savez(zoo / "notanartifact.npz", x=np.zeros(3))
        (zoo / "junk.npz").write_bytes(b"not a zip at all")
        # Truncated zip (valid magic, corrupt structure): BadZipFile.
        (zoo / "truncated.npz").write_bytes(real.read_bytes()[:100])
        server = _manual_server(zoo, FakeClock())
        assert server.available_models == (KEY_A,)
        assert len(server.skipped) == 3

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelServer(tmp_path / "missing", ServerConfig(background=False))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no servable"):
            ModelServer(empty, ServerConfig(background=False))


class TestIdleDispatch:
    def test_poll_runs_an_idle_models_queue_at_once(self, artifact_dir):
        clock = FakeClock()
        server = _manual_server(artifact_dir, clock, max_batch=8)
        futures = [
            server.submit(img, KEY_A)
            for img in _images(SHAPES[0], n=3)
        ]
        assert server.pending() == 3  # manual mode: nothing runs yet
        assert server.poll() == 1  # no clock advance needed
        assert all(f.done() for f in futures)
        counters = server.stats()["counters"]
        assert (counters["flush_idle"], counters["flush_full"]) == (1, 0)
        assert counters["batch_images"] == 3
        assert server.poll() == 0  # nothing left queued

    def test_a_full_queue_counts_as_a_full_flush(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock(), max_batch=4)
        futures = server.submit_many(_images(SHAPES[0], n=4), KEY_A)
        assert server.poll() == 1
        assert all(f.done() for f in futures)
        counters = server.stats()["counters"]
        assert (counters["flush_full"], counters["flush_idle"]) == (1, 0)

    def test_background_server_serves_a_lone_request(self, artifact_dir):
        with G.default_dtype("float32"):
            server = ModelServer(
                artifact_dir, ServerConfig(max_batch=64, n_threads=1))
            try:
                future = server.submit(_images(SHAPES[0], n=1)[0], KEY_A)
                assert isinstance(future.result(timeout=10), np.ndarray)
            finally:
                server.close()
        counters = server.stats()["counters"]
        assert (counters["flush_idle"], counters["flush_full"]) == (1, 0)

    def test_submit_many_to_an_idle_model_is_one_flush(
        self, artifact_dir, reference_outputs
    ):
        images = _images(SHAPES[0], n=3)
        with G.default_dtype("float32"):
            server = ModelServer(
                artifact_dir, ServerConfig(max_batch=8, n_threads=1))
            try:
                _warm(server)
                before = server.stats()["counters"]
                futures = server.submit_many(images, KEY_A)
                outputs = [f.result(timeout=10) for f in futures]
            finally:
                server.close()
        after = server.stats()["counters"]
        flushes = sum(after[k] - before[k] for k in after
                      if k.startswith("flush_"))
        assert flushes == 1
        assert after["batch_images"] - before["batch_images"] == 3
        for out, ref in zip(outputs, reference_outputs[KEY_A][SHAPES[0]]):
            np.testing.assert_array_equal(out, ref)

    def test_submit_many_computes_a_repeated_image_once(self, artifact_dir):
        image = _images(SHAPES[0], n=1)[0]
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            futures = server.submit_many([image, image.copy()], KEY_A)
            assert server.pending() == 1
            assert server.poll() == 1
        first, rider = (f.result(timeout=0) for f in futures)
        counters = server.stats()["counters"]
        assert (counters["batch_images"], counters["coalesced"]) == (1, 1)
        np.testing.assert_array_equal(first, rider)
        assert first is not rider
        first[:] = -1.0  # the rider's copy is its own
        assert rider.min() >= 0.0

    def test_submit_many_sheds_past_the_bound_in_order(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock(), max_queue_depth=2)
        images = _images(SHAPES[0], n=3)
        # The third image and a repeat of it are past the bound.
        futures = server.submit_many(images + [images[2].copy()], KEY_A)
        assert server.pending() == 2
        for future in futures[2:]:
            shed = future.result(timeout=0)
            assert isinstance(shed, ServerBusy)
            assert shed.reason == "queue full"
        counters = server.stats()["counters"]
        assert (counters["shed"], counters["coalesced"]) == (2, 0)
        server.drain()
        assert all(isinstance(f.result(timeout=0), np.ndarray)
                   for f in futures[:2])
        server._scheduler.audit_depth()

    def test_submit_many_checks_every_shape_before_queueing(
        self, artifact_dir
    ):
        server = _manual_server(artifact_dir, FakeClock())
        images = [_images(SHAPES[0], n=1)[0], np.zeros((8, 8), np.float32)]
        with pytest.raises(ValueError, match="H, W, C"):
            server.submit_many(images, KEY_A)
        assert server.pending() == 0
        assert server.stats()["counters"]["requests"] == 0

    def test_drain_runs_everything_queued(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock(), max_batch=8)
        future = server.submit(_images(SHAPES[0], n=1)[0], KEY_A)
        server.drain()
        assert future.done()
        assert server.stats()["counters"]["flush_idle"] == 1


class TestCorrectness:
    def test_bit_identical_to_direct_pipeline(
        self, artifact_dir, reference_outputs
    ):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock(), max_batch=3)
            for key in (KEY_A, KEY_B):
                for shape in SHAPES:
                    outputs = server.map(_images(shape), key)
                    for out, ref in zip(outputs, reference_outputs[key][shape]):
                        np.testing.assert_array_equal(out, ref)

    def test_cache_hits_are_bit_identical(self, artifact_dir, reference_outputs):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            images = _images(SHAPES[0])
            first = server.map(images, KEY_A)
            batches = server.stats()["counters"]["batches"]
            again = server.map(images, KEY_A)
            assert server.stats()["counters"]["cache_hits"] == len(images)
            for out, ref in zip(again, reference_outputs[KEY_A][SHAPES[0]]):
                np.testing.assert_array_equal(out, ref)
            # Every repeat was a hit: no model forward ran for them.
            assert server.stats()["counters"]["batches"] == batches
            del first

    def test_cache_correctness_under_eviction(
        self, artifact_dir, reference_outputs
    ):
        with G.default_dtype("float32"):
            images = _images(SHAPES[0])
            out_bytes = reference_outputs[KEY_A][SHAPES[0]][0].nbytes
            # Room for only two outputs: constant churn.
            server = _manual_server(
                artifact_dir, FakeClock(), cache_bytes=2 * out_bytes
            )
            for _ in range(3):
                outputs = server.map(images, KEY_A)
                for out, ref in zip(outputs, reference_outputs[KEY_A][SHAPES[0]]):
                    np.testing.assert_array_equal(out, ref)
            assert server.cache.evictions > 0
            assert server.stats()["counters"]["cache_hits"] > 0

    def test_cache_disabled(self, artifact_dir):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock(), cache_bytes=0)
            images = _images(SHAPES[0], n=2)
            server.map(images, KEY_A)
            server.map(images, KEY_A)
            assert server.stats()["counters"]["cache_hits"] == 0
            assert server.cache.stats()["entries"] == 0


class TestAdmissionControl:
    def test_queue_full_sheds_with_typed_result(self, artifact_dir):
        clock = FakeClock()
        server = _manual_server(
            artifact_dir, clock, max_queue_depth=2
        )
        images = _images(SHAPES[0], n=3)
        f1 = server.submit(images[0], KEY_A)
        f2 = server.submit(images[1], KEY_A)
        f3 = server.submit(images[2], KEY_A)
        assert not f1.done() and not f2.done()
        assert isinstance(f3.result(timeout=0), ServerBusy)
        server.drain()
        assert isinstance(f1.result(timeout=5), np.ndarray)
        assert server.stats()["derived"]["shed_rate"] == pytest.approx(1 / 3)

    def test_identical_inflight_requests_coalesce(self, artifact_dir):
        clock = FakeClock()
        server = _manual_server(artifact_dir, clock, max_batch=8)
        image = _images(SHAPES[0], n=1)[0]
        futures = [server.submit(image, KEY_A) for _ in range(5)]
        # One computation queued; four riders attached to it.
        assert server.pending() == 1
        assert server.stats()["counters"]["coalesced"] == 4
        server.drain()
        outputs = [f.result(timeout=5) for f in futures]
        for out in outputs:
            np.testing.assert_array_equal(out, outputs[0])
        assert server.stats()["counters"]["responses"] == 5
        assert server.stats()["counters"]["batch_images"] == 1

    def test_coalesced_results_are_mutation_isolated(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock())
        image = _images(SHAPES[0], n=1)[0]
        futures = [server.submit(image, KEY_A) for _ in range(3)]
        server.drain()
        outputs = [f.result(timeout=5) for f in futures]
        expected = outputs[1].copy()
        outputs[0][:] = -1.0  # one caller trashes its result in place
        np.testing.assert_array_equal(outputs[1], expected)
        np.testing.assert_array_equal(outputs[2], expected)

    def test_coalesced_requests_share_failure(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock())
        bad = np.zeros((8, 8, 4), np.float32)
        futures = [server.submit(bad, KEY_A) for _ in range(3)]
        server.drain()
        for future in futures:
            assert isinstance(future.result(timeout=5), ServeError)
        assert server.stats()["counters"]["errors"] == 3

    def test_cache_hit_bypasses_admission(self, artifact_dir):
        clock = FakeClock()
        server = _manual_server(artifact_dir, clock, max_queue_depth=1)
        image = _images(SHAPES[0], n=1)[0]
        server.submit(image, KEY_A)
        server.drain()
        # Queue is empty again; a repeat of a cached input resolves
        # instantly even when fresh work would be queued.
        blocker = server.submit(_images(SHAPES[1], n=1)[0], KEY_A)
        hit = server.submit(image, KEY_A)
        assert hit.done()
        assert isinstance(hit.result(), np.ndarray)
        assert not blocker.done()
        server.drain()


class TestModelRegistryLRU:
    def test_lazy_load_and_eviction(self, artifact_dir):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock(), max_models=1)
            assert server.loaded_models() == ()
            image_a = _images(SHAPES[0], n=1)[0]
            image_b = _images(SHAPES[1], n=1)[0]
            server.map([image_a], KEY_A)
            assert server.loaded_models() == (KEY_A,)
            server.map([image_b], KEY_B)
            assert server.loaded_models() == (KEY_B,)
            server.map([image_b], KEY_A)
            assert server.loaded_models() == (KEY_A,)
            assert server.stats()["counters"]["model_loads"] == 3
            assert server.stats()["counters"]["model_evictions"] == 2

    def test_no_reload_when_capacity_allows(self, artifact_dir):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock(), max_models=2)
            for _ in range(3):
                server.map(_images(SHAPES[0], n=1), KEY_A)
                server.map(_images(SHAPES[0], n=1), KEY_B)
            assert server.stats()["counters"]["model_loads"] == 2
            assert server.stats()["counters"]["model_evictions"] == 0


class _GatedPipeline:
    """InferencePipeline wrapper whose ``flush`` blocks on an event —
    a stand-in for a slow batch, so shutdown tests can hold a flush
    in flight deterministically."""

    started = threading.Event()
    gate = threading.Event()

    def __init__(self, path, **kwargs):
        self._inner = InferencePipeline(path, **kwargs)

    def flush(self):
        type(self).started.set()
        if not type(self).gate.wait(timeout=10):  # pragma: no cover
            raise RuntimeError("gate never opened")
        return self._inner.flush()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestFailureIsolation:
    def test_artifact_load_failure_is_typed_and_does_not_poison_registry(
        self, artifact_dir, monkeypatch
    ):
        """A model whose artifact raises mid-load resolves the waiting
        request with a typed ServeError, leaves the LRU registry clean
        (no half-loaded entry), keeps other models serving, and loads
        fine once the fault clears."""
        fault = {"active": True}
        real_pipeline = InferencePipeline
        key_a_path = str(
            {i.key: i for i in scan_artifact_dir(artifact_dir)[0]}[KEY_A].path
        )

        def flaky_pipeline(path, **kwargs):
            if fault["active"] and str(path) == key_a_path:
                raise RuntimeError("chaos: artifact load failed mid-read")
            return real_pipeline(path, **kwargs)

        monkeypatch.setattr(
            "repro.serve.server.InferencePipeline", flaky_pipeline
        )
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            future = server.submit(_images(SHAPES[0], n=1)[0], KEY_A)
            server.drain()
            result = future.result(timeout=5)
            assert isinstance(result, ServeError)
            assert result.model == KEY_A
            assert "artifact load failed" in result.message
            # The failed load never entered the registry: no poisoned
            # half-loaded entry for LRU accounting to trip over.
            assert KEY_A not in server.loaded_models()
            assert server.stats()["counters"]["errors"] == 1
            # Other models are unaffected.
            good = server.map(_images(SHAPES[1], n=2), KEY_B)
            assert all(isinstance(out, np.ndarray) for out in good)
            # Once the fault clears, the same key loads and serves.
            fault["active"] = False
            recovered = server.map(_images(SHAPES[0], n=2), KEY_A)
            assert all(isinstance(out, np.ndarray) for out in recovered)
            assert KEY_A in server.loaded_models()

    def test_bad_request_fails_alone_in_a_shared_flush(
        self, artifact_dir, reference_outputs
    ):
        """One bad request rides in the same flush as two good ones for
        the same model: only its own forward fails, so only it becomes
        a ServeError and the good ones are bit-identical outputs."""
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            images = _images(SHAPES[0])
            futures = [
                server.submit(images[0], KEY_A),
                server.submit(np.zeros((8, 8, 4), np.float32), KEY_A),
                server.submit(images[1], KEY_A),
            ]
            assert server.poll() == 1  # one flush takes all 3
            first, bad, second = (f.result(timeout=5) for f in futures)
            assert isinstance(bad, ServeError)
            assert bad.model == KEY_A
            expected = reference_outputs[KEY_A][SHAPES[0]]
            np.testing.assert_array_equal(first, expected[0])
            np.testing.assert_array_equal(second, expected[1])
            counters = server.stats()["counters"]
            assert (counters["errors"], counters["responses"]) == (1, 2)


class TestWaitsForItsOwnRequests:
    def test_map_and_session_return_while_another_model_is_in_flight(
        self, artifact_dir, reference_outputs, monkeypatch
    ):
        """``ModelServer.map`` and ``ServeSession.infer_many`` wait for
        their own requests, not for an idle server: with model B's
        flush held in flight, calls for model A still return."""
        _GatedPipeline.started = threading.Event()
        _GatedPipeline.gate = threading.Event()
        real_pipeline = InferencePipeline
        key_b_path = str(
            {i.key: i for i in scan_artifact_dir(artifact_dir)[0]}[KEY_B].path
        )

        def gate_model_b(path, **kwargs):
            if str(path) == key_b_path:
                return _GatedPipeline(path, **kwargs)
            return real_pipeline(path, **kwargs)

        monkeypatch.setattr(
            "repro.serve.server.InferencePipeline", gate_model_b
        )
        images = _images(SHAPES[0])
        results = {}
        with G.default_dtype("float32"):
            server = ModelServer(
                artifact_dir, ServerConfig(n_threads=1)
            )
            try:
                held = server.submit(images[0], KEY_B)
                assert _GatedPipeline.started.wait(timeout=10)

                def call_model_a():
                    results["map"] = server.map(images[:2], KEY_A)
                    session = ServeSession(server, default_model=KEY_A)
                    results["session"] = session.infer_many(images[2:4])

                caller = threading.Thread(target=call_model_a)
                caller.start()
                caller.join(timeout=5)
                assert "session" in results, "A waited for B's flush"
                assert not held.done()  # B's gate is still shut
            finally:
                _GatedPipeline.gate.set()
            assert isinstance(held.result(timeout=10), np.ndarray)
            caller.join(timeout=10)
            assert not caller.is_alive()
            server.close()
        expected = reference_outputs[KEY_A][SHAPES[0]]
        for out, ref in zip(results["map"], expected[:2]):
            np.testing.assert_array_equal(out, ref)
        for result, ref in zip(results["session"], expected[2:4]):
            np.testing.assert_array_equal(result.unwrap(), ref)


class TestConcurrentServing:
    def test_many_threads_mixed_shapes_and_models(
        self, artifact_dir, reference_outputs
    ):
        with G.default_dtype("float32"):
            server = ModelServer(
                artifact_dir,
                ServerConfig(
                    max_batch=4,
                    max_queue_depth=4096,
                    n_threads=1,
                ),
            )
            cases = list(itertools.product((KEY_A, KEY_B), SHAPES))
            results = {}
            errors = []

            def client(worker):
                try:
                    futures = []
                    for i in range(12):
                        key, shape = cases[(worker + i) % len(cases)]
                        image = _images(shape)[i % 6]
                        futures.append(
                            (key, shape, i % 6, server.submit(image, key))
                        )
                    results[worker] = [
                        (key, shape, idx, f.result(timeout=30))
                        for key, shape, idx, f in futures
                    ]
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            server.close()
            assert not errors
            served = 0
            for worker_results in results.values():
                for key, shape, idx, out in worker_results:
                    assert not isinstance(out, (ServerBusy, ServeError))
                    np.testing.assert_array_equal(
                        out, reference_outputs[key][shape][idx]
                    )
                    served += 1
            assert served == 8 * 12
            assert server.stats()["counters"]["responses"] == served
            assert server.stats()["counters"]["shed"] == 0


class TestShutdown:
    def test_close_is_idempotent(self, artifact_dir):
        server = _manual_server(artifact_dir, FakeClock())
        server.close()
        server.close()

    def test_undrained_close_sheds_and_logs_each_queued_request(
        self, artifact_dir, monkeypatch, caplog
    ):
        """close(drain=False) sheds every queued request and every rider
        coalesced onto one: each resolves once to ServerBusy("server
        closed"), counts as one shed and gets its own "request" line,
        so its id stays traceable."""
        ids = ["close-a", "close-b", "close-c", "close-rider"]
        resolves = record_resolves(monkeypatch)
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            images = _images(SHAPES[0], n=3)
            images.append(images[0].copy())  # rides on close-a
            futures = [server.submit(image, KEY_A, request_id=request_id)
                       for image, request_id in zip(images, ids)]
            assert server.pending() == 3
            before = server.stats()["counters"]
            with caplog.at_level(logging.INFO, logger="repro.serve"):
                server.close(drain=False)
        for future in futures:
            assert sum(f is future for f in resolves) == 1
            shed = future.result(timeout=0)
            assert isinstance(shed, ServerBusy)
            assert (shed.model, shed.reason) == (KEY_A, "server closed")
        logged = [r.repro_fields for r in caplog.records
                  if r.getMessage() == "request"]
        assert sorted(f["request_id"] for f in logged) == sorted(ids)
        for fields in logged:
            check_fields(fields, "outcome=shed; reason=server closed; "
                         "queue_depth=0", ("request_id", "model"))
            assert fields["model"] == LABEL_A
        after = server.stats()["counters"]
        assert {k: after[k] - before[k] for k in after
                if after[k] != before[k]} == {"shed": 4}
        assert server._scheduler.audit_depth() == 0

    def test_graceful_close_settles_queued_work_as_results(self, artifact_dir):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            futures = [
                server.submit(img, KEY_A) for img in _images(SHAPES[0], n=3)
            ]
            server.close()  # drain=True, unbounded
            for future in futures:
                assert isinstance(future.result(timeout=5), np.ndarray)
            assert server.stats()["counters"]["shed"] == 0

    def test_drain_timeout_sheds_queued_but_settles_inflight(
        self, artifact_dir, monkeypatch
    ):
        """ServerConfig.drain_timeout_s bounds close()'s graceful
        phase: work still *queued* past the deadline resolves as typed
        ServerBusy("server closed"), while the *in-flight* flush gets
        its bounded settle window and resolves to a real result."""
        _GatedPipeline.started = threading.Event()
        _GatedPipeline.gate = threading.Event()
        monkeypatch.setattr(
            "repro.serve.server.InferencePipeline", _GatedPipeline
        )
        with G.default_dtype("float32"):
            server = ModelServer(
                artifact_dir,
                ServerConfig(
                    max_batch=8,
                    n_threads=1,
                    drain_timeout_s=0.05,
                ),
            )
            images = _images(SHAPES[0], n=2)
            inflight = server.submit(images[0], KEY_A)
            # Wait until the flush holding `inflight` is blocked inside
            # the gated pipeline, then queue a second request, which
            # waits because a model runs one flush at a time.
            assert _GatedPipeline.started.wait(timeout=10)
            queued = server.submit(images[1], KEY_A)
            opener = threading.Timer(0.5, _GatedPipeline.gate.set)
            opener.start()
            try:
                server.close()
            finally:
                opener.cancel()
                _GatedPipeline.gate.set()
            shed = queued.result(timeout=1)
            assert isinstance(shed, ServerBusy)
            assert shed.reason == "server closed"
            assert isinstance(inflight.result(timeout=10), np.ndarray)


class TestStatsAndReport:
    def test_stats_and_report_surface_the_story(self, artifact_dir):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            images = _images(SHAPES[0])
            server.map(images, KEY_A)
            server.map(images, KEY_A)
            stats = server.stats()
            assert stats["counters"]["responses"] == 12
            assert stats["derived"]["cache_hit_rate"] == pytest.approx(0.5)
            assert 0 < stats["derived"]["batch_occupancy"] <= 1
            assert stats["cache"]["entries"] == 6
            assert stats["server"]["available_models"] == 2
            report = server.report()
            assert "cache_hit_rate" in report
            assert "srresnet/scales/x2" in report
            assert "coverage=full" in report


class TestSubmitCloseRace:
    def test_submit_racing_close_is_settled_not_stranded(self, artifact_dir):
        """A submission that passes the stop-flag check must either land
        before close()'s final sweep (and be settled by it) or shed —
        never enqueue after the sweep into a future nobody resolves.

        The race window is forced open deterministically: the racing
        submit blocks at the enqueue call while close() runs to
        completion.  Pre-fix, the late enqueue strands its future and
        ``result(timeout=...)`` times out.
        """
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            image = _images(SHAPES[0], n=1)[0]
            entered = threading.Event()
            proceed = threading.Event()
            real_enqueue = server._scheduler.enqueue

            def gated_enqueue(request, max_depth=None):
                entered.set()
                assert proceed.wait(timeout=10)
                return real_enqueue(request, max_depth=max_depth)

            server._scheduler.enqueue = gated_enqueue
            futures = {}

            def racer():
                futures["f"] = server.submit(image, KEY_A)

            submitter = threading.Thread(target=racer)
            submitter.start()
            assert entered.wait(timeout=10)
            closer = threading.Thread(
                target=lambda: server.close(drain=False)
            )
            closer.start()
            # Give close() every chance to win: unsynchronized, it
            # finishes its sweep here (nothing queued yet) and the
            # enqueue that follows is stranded forever.
            time.sleep(0.3)
            proceed.set()
            submitter.join(timeout=10)
            closer.join(timeout=10)
            assert not submitter.is_alive() and not closer.is_alive()
            result = futures["f"].result(timeout=2)
            assert isinstance(result, ServerBusy)
            assert result.reason == "server closed"


class TestEvictionReleasesResources:
    def test_evicted_model_pipeline_is_closed(self, artifact_dir):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock(), max_models=1)
            server.map(_images(SHAPES[0], n=1), KEY_A)
            pipeline_a = server._models[KEY_A]
            assert not pipeline_a.closed
            server.map(_images(SHAPES[1], n=1), KEY_B)  # LRU evicts A
            assert server.loaded_models() == (KEY_B,)
            assert pipeline_a.closed
            assert pipeline_a.model is None  # arrays released, not leaked
            with pytest.raises(RuntimeError, match="closed"):
                pipeline_a.submit(_images(SHAPES[0], n=1)[0])

    def test_close_releases_loaded_pipelines(self, artifact_dir):
        with G.default_dtype("float32"):
            server = _manual_server(artifact_dir, FakeClock())
            server.map(_images(SHAPES[0], n=1), KEY_A)
            pipeline = server._models[KEY_A]
            server.close()
            assert pipeline.closed
            assert server.loaded_models() == ()


class TestCoalescedRiderLatency:
    def test_rider_latency_measured_from_its_own_arrival(self, artifact_dir):
        """A coalesced rider's request_latency starts at *its* arrival,
        not the primary's: with 10 fake seconds between the two
        submissions, the flush settles the primary at ~10 s and the
        rider at ~0 s (pre-fix, both recorded the primary's 10 s)."""
        with G.default_dtype("float32"):
            clock = FakeClock()
            server = _manual_server(artifact_dir, clock)
            image = _images(SHAPES[0], n=1)[0]
            primary = server.submit(image, KEY_A)
            clock.advance(10.0)
            rider = server.submit(image.copy(), KEY_A)
            assert server.stats()["counters"]["coalesced"] == 1
            server.drain()
            assert isinstance(primary.result(timeout=10), np.ndarray)
            assert isinstance(rider.result(timeout=10), np.ndarray)
            snap = server.stats()["latency"]["request_latency"]
            assert snap["count"] == 2
            assert snap["min_ms"] == pytest.approx(0.0, abs=1.0)
            assert snap["max_ms"] == pytest.approx(10_000.0, rel=0.01)
            # The coalesced counter is surfaced for front doors.
            assert server.stats()["server"]["coalesced"] == 1


@pytest.fixture
def slo_run(artifact_dir):
    """Serve one distinct image per entry of ``latencies`` for KEY_A
    on a manual server (no result cache) whose fake clock advances by
    exactly that latency before the flush; returns KEY_A's
    ``stats()["slo"]`` entry."""

    def run(budget_s, latencies):
        clock = FakeClock()
        server = _manual_server(
            artifact_dir, clock, cache_bytes=0, slo_default_budget_s=budget_s
        )
        images = iter(_images(SHAPES[0], n=len(latencies)))
        with G.default_dtype("float32"):
            for latency, group in itertools.groupby(latencies):
                for _ in group:
                    server.submit(next(images), KEY_A)
                clock.advance(latency)
                server.drain()
        return server.stats()["slo"][LABEL_A]

    return run


class TestSlo:
    @pytest.mark.parametrize(
        "budget_s, latencies, observed, breaches, burning, burn_ratio",
        [
            # Well inside the budget: nothing breaches or burns.
            (1.0, [0.01] * 50, 50, 0, False, 0.01),
            # One slow request: the exact breach counter sees it, the
            # p99 (bucket bound 0.016384 s) stays under budget.
            (1.0, [0.01] * 127 + [5.0], 128, 1, False, 0.016384),
            # Sustained slowness: every request breaches, p99 burns.
            (0.1, [0.5] * 16, 16, 16, True, 5.0),
        ],
    )
    def test_budget_vs_latencies(
        self, slo_run, budget_s, latencies, observed, breaches, burning,
        burn_ratio,
    ):
        slo = slo_run(budget_s, latencies)
        assert slo["budget_s"] == budget_s
        assert slo["observed"] == observed
        assert slo["breaches"] == breaches
        assert slo["burning"] is burning
        assert slo["burn_ratio"] == pytest.approx(burn_ratio, rel=1e-6)
        assert slo["p99_s"] == pytest.approx(burn_ratio * budget_s)

    def test_per_label_budget_overrides_default(self, artifact_dir):
        clock = FakeClock()
        server = _manual_server(
            artifact_dir, clock, cache_bytes=0, slo_default_budget_s=1.0,
            slo_budgets={LABEL_A: 0.1},
        )
        with G.default_dtype("float32"):
            for key in (KEY_A, KEY_B):
                server.submit(_images(SHAPES[0], n=1)[0], key)
            clock.advance(0.5)
            server.drain()
        slo = server.stats()["slo"]
        assert slo[LABEL_A]["budget_s"] == 0.1
        assert slo[LABEL_A]["breaches"] == 1 and slo[LABEL_A]["burning"]
        assert slo[LABEL_B]["budget_s"] == 1.0
        assert slo[LABEL_B]["breaches"] == 0
        assert not slo[LABEL_B]["burning"]
        text = server.metrics.render()
        assert f'repro_serve_slo_budget_seconds{{model="{LABEL_A}"}} 0.1' \
            in text
        assert f'repro_serve_slo_breaches_total{{model="{LABEL_B}"}} 0' \
            in text

    def test_fresh_server_has_no_slo_state_or_rates(self, artifact_dir):
        stats = _manual_server(artifact_dir, FakeClock()).stats()
        assert stats["slo"] == {}
        assert stats["derived"] == {
            "cache_hit_rate": None,
            "shed_rate": None,
            "batch_occupancy": None,
        }
        assert not any(stats["counters"].values())

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(slo_default_budget_s=0.0),
            dict(slo_default_budget_s=-1.0),
            dict(slo_budgets={"a/b/x2": 0.0}),
            dict(slo_budgets={"a/b/x2": -1.0}),
        ],
    )
    def test_non_positive_budgets_rejected(self, overrides):
        with pytest.raises(ValueError, match="positive"):
            ServerConfig(**overrides)


def _rendered_sum(text, family, match):
    """Sum of ``family``'s samples in exposition ``text`` whose labels
    include every ``match`` pair."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, raw_labels = series.partition("{")
        labels = dict(re.findall(r'(\w+)="([^"]*)"', raw_labels))
        if name == family and match.items() <= labels.items():
            total += float(value)
    return total


class TestStatsRegistryParity:
    #: ``stats()["counters"]`` key -> (family, label match) in /metrics.
    SOURCES = {
        "requests": ("repro_serve_requests_total", {}),
        "responses": ("repro_serve_responses_total", {}),
        "shed": ("repro_serve_shed_total", {}),
        "errors": ("repro_serve_errors_total", {}),
        "coalesced": ("repro_serve_coalesced_total", {}),
        "cache_hits": ("repro_serve_cache_total", {"outcome": "hit"}),
        "cache_misses": ("repro_serve_cache_total", {"outcome": "miss"}),
        "model_loads": ("repro_serve_model_loads_total", {}),
        "model_evictions": ("repro_serve_model_evictions_total", {}),
        "batches": ("repro_serve_batches_total", {}),
        "batch_images": ("repro_serve_batch_images_total", {}),
        "flush_full": ("repro_serve_flushes_total", {"reason": "full"}),
        "flush_idle": ("repro_serve_flushes_total", {"reason": "idle"}),
    }

    def test_counters_equal_rendered_family_sums(self, artifact_dir):
        clock = FakeClock()
        server = _manual_server(
            artifact_dir, clock, max_queue_depth=2, max_batch=2,
            max_models=1,
        )
        images = _images(SHAPES[0], n=6)
        with G.default_dtype("float32"):
            server.map([images[0]], KEY_A)  # miss, idle flush
            server.map([images[0]], KEY_A)  # hit
            for _ in range(2):  # miss + coalesced rider
                server.submit(images[1], KEY_A)
            server.submit(images[2], KEY_A)  # queue now at its bound
            shed = server.submit(images[3], KEY_A)
            assert isinstance(shed.result(), ServerBusy)
            assert server.poll() == 1  # full flush
            server.submit(images[4], KEY_A)
            assert server.poll() == 1  # idle flush
            bad = np.zeros((8, 8, 4), np.float32)
            assert isinstance(server.map([bad], KEY_B)[0], ServeError)
            server.map([images[5]], KEY_A)  # reloads A, evicting B
        stats = server.stats()
        counters = stats["counters"]
        assert set(counters) == set(self.SOURCES)
        assert all(counters.values()), counters  # the mix covers all
        text = server.metrics.render()
        assert lint_exposition(text) == []
        for key, (family, match) in self.SOURCES.items():
            assert counters[key] == _rendered_sum(text, family, match), key
        assert stats["latency"]["request_latency"]["count"] == (
            _rendered_sum(text, "repro_serve_request_latency_seconds_count",
                          {})
        )
        assert stats["server"]["coalesced"] == counters["coalesced"]
