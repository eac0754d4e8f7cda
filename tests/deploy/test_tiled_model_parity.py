"""Tiled ``Engine.infer`` on a whole SCALES model vs the one-tile oracle.

The model is the ``tiled_sr`` benchmark's: ``srresnet/scales`` ``small``
with a 3x3 head and the light tail, float32, 32 px tiles with 8 px
overlap.  Unlike the two-layer packed stacks of the other tiled parity
tests it has BLAS-backed FP layers (head, tail, spatial and channel
re-scaling branches), so these tests also pin down that neither the
chunk sizes nor the OpenBLAS thread count change a bit of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Engine, EngineConfig
from repro.deploy import load_artifact
from repro.grad import Tensor, no_grad, thread_default_dtype
from repro.nn import Module

from ..oracles import SequentialTiledInference

TILE, OVERLAP = 32, 8
SHAPE = (100, 124, 3)  # 20 tiles: uneven chunks at batch 3 and 8


def _image():
    return np.random.default_rng(5).random(SHAPE, dtype=np.float32)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    engine = Engine.from_spec("srresnet", scheme="scales", scale=2,
                              preset="small",
                              config=EngineConfig(dtype="float32", seed=0),
                              head_kernel=3, light_tail=True)
    path = engine.export(tmp_path_factory.mktemp("tiled_model")
                         / engine.spec.artifact_name())
    engine.close()
    return path


class _AsInferRunsATile(Module):
    """The packed model as tiled ``Engine.infer`` runs one tile: a
    float32 forward whose output is clipped to [0, 1] before blending,
    widened to float64 so the oracle's float64 canvas is not rounded."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    def forward(self, x):
        with thread_default_dtype("float32"):
            out = self.model(Tensor(x.data)).data
        return Tensor(np.clip(out.astype(np.float64), 0.0, 1.0))


@pytest.fixture(scope="module")
def expected(artifact):
    oracle = SequentialTiledInference(
        _AsInferRunsATile(load_artifact(artifact, tile=None)), tile=TILE,
        overlap=OVERLAP)
    oracle.eval()
    with no_grad():
        x = np.ascontiguousarray(_image().transpose(2, 0, 1))[None]
        out = oracle(Tensor(x.astype(np.float64))).data
    return np.clip(out[0].transpose(1, 2, 0), 0.0, 1.0)


@pytest.mark.parametrize("batch_size", [3, 8])
@pytest.mark.parametrize("n_threads", [1, 2, 4])
def test_tiled_infer_is_bit_identical_to_one_tile_oracle(
        artifact, expected, n_threads, batch_size):
    config = EngineConfig(dtype="float32", tile=TILE, tile_overlap=OVERLAP,
                          n_threads=n_threads, batch_size=batch_size)
    with Engine.from_artifact(artifact, config) as engine:
        got = engine.infer(_image()).unwrap()
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


#: The variables OpenBLAS reads its starting thread count from.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")

_BEFORE_AND_AFTER_PIN = """
import hashlib, json, sys
import numpy as np
from repro.api import Engine, EngineConfig
from tests.infer.test_blas_pin import _mapped_openblas, _threads

path = sys.argv[1]
image = np.random.default_rng(5).random({shape}, dtype=np.float32)

def infer(n_threads):
    config = EngineConfig(dtype="float32", tile={tile},
                          tile_overlap={overlap}, n_threads=n_threads)
    with Engine.from_artifact(path, config) as engine:
        out = engine.infer(image).unwrap()
        return hashlib.sha256(out.tobytes()).hexdigest()

def blas():
    return sorted(n for n in map(_threads, _mapped_openblas())
                  if n is not None)

before, blas_before = infer(1), blas()
infer(2)
after, blas_after = infer(1), blas()
print(json.dumps(dict(before=before, after=after, blas_before=blas_before,
                      blas_after=blas_after)))
"""


def test_output_bytes_do_not_depend_on_the_openblas_pin(artifact):
    # A fresh process, so the pool (and the pin) start only at the
    # 2-thread call: the first 1-thread run has OpenBLAS at its default
    # thread count, the second has it pinned to one.  The pin sets
    # OPENBLAS_NUM_THREADS in this process once its pool reaches two
    # workers; the child must not start pinned.
    root = Path(__file__).resolve().parents[2]
    src = Path(repro.__file__).resolve().parents[1]
    env = {name: value for name, value in os.environ.items()
           if name not in _BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), str(root), env.get("PYTHONPATH")]))
    script = _BEFORE_AND_AFTER_PIN.format(shape=SHAPE, tile=TILE,
                                          overlap=OVERLAP)
    done = subprocess.run([sys.executable, "-c", script, str(artifact)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["before"] == report["after"], report
    assert set(report["blas_after"]) <= {1}, report
    if report["blas_before"] and len(os.sched_getaffinity(0)) > 1:
        # Otherwise both runs were pinned and nothing was compared.
        assert max(report["blas_before"]) > 1, report
