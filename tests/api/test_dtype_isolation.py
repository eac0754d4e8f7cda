"""``EngineConfig.dtype`` is scoped to the calling thread and its pool work.

Two engines with different dtypes on one artifact must run concurrently
without affecting each other, and tiled inference must compute in the
engine's dtype inside the pool workers too — so its output does not
depend on the thread count.
"""

import sys
import threading

import numpy as np
import pytest

from repro.api import Engine, EngineConfig
from repro.deploy.engine import PackedBinaryConv2d
from repro.grad import get_default_dtype

CALLS = 30


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    engine = Engine.from_spec("srresnet", scheme="scales", scale=2,
                              preset="tiny", config=EngineConfig(seed=0))
    return engine.export(tmp_path_factory.mktemp("zoo") / "m.rbd.npz")


def _images(n, shape, seed):
    rng = np.random.default_rng(seed)
    return [rng.random(shape).astype(np.float32) for _ in range(n)]


def _run(engine, images):
    return [engine.infer(img).unwrap() for img in images]


def test_two_dtype_engines_run_concurrently(artifact):
    # Two engines per dtype: more threads than a 2-core host has cores,
    # with a short switch interval to interleave them finely.
    images = _images(CALLS, (16, 16, 3), seed=0)
    dtypes = ("float32", "float64", "float32", "float64")
    engines = [Engine.from_artifact(artifact, EngineConfig(dtype=dtype))
               for dtype in dtypes]
    serial = {dtype: _run(engine, images)
              for dtype, engine in zip(dtypes, engines)}
    concurrent = {}
    start = threading.Barrier(len(engines), timeout=60)

    def worker(i):
        start.wait()
        concurrent[i] = _run(engines[i], images)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(engines))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(concurrent) == list(range(len(engines)))
    for i, dtype in enumerate(dtypes):
        assert len(concurrent[i]) == CALLS
        for got, expected in zip(concurrent[i], serial[dtype]):
            assert got.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(got, expected)


def test_tiled_float32_infer_is_identical_across_thread_counts(
        artifact, monkeypatch):
    records = []
    forward = PackedBinaryConv2d.forward

    def recording_forward(self, x):
        out = forward(self, x)
        records.append((threading.current_thread().name, out.data.dtype))
        return out

    monkeypatch.setattr(PackedBinaryConv2d, "forward", recording_forward)
    image = _images(1, (40, 36, 3), seed=1)[0]
    outputs = {}
    for n_threads in (1, 2):
        config = EngineConfig(dtype="float32", tile=16, tile_overlap=4,
                              batch_size=2, n_threads=n_threads)
        with Engine.from_artifact(artifact, config) as engine:
            outputs[n_threads] = engine.infer(image).unwrap()
    assert get_default_dtype() == np.float64  # the process default
    assert outputs[2].dtype == outputs[1].dtype
    np.testing.assert_array_equal(outputs[2], outputs[1])
    pool = [dtype for name, dtype in records if name.startswith("repro-infer")]
    assert pool, "tiled inference at n_threads=2 never reached the pool"
    assert all(dtype == np.float32 for _, dtype in records)
