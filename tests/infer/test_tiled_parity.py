"""Every tiled surface against the one sequential oracle.

Each row of ``CASES`` is one image through one model at one tile
geometry.  ``tiled_super_resolve``, ``InferencePipeline(tile=...)``,
``Engine.infer`` with ``EngineConfig.tile`` and a ``StreamSession``
must each return the output of :class:`tests.oracles
.SequentialTiledInference` bit for bit, at every thread count the row
lists.  The oracle runs one forward per tile and stitches with its own
clip-and-average arithmetic.

``untiled`` rows must also equal the clipped whole-image forward.  A
strictly local model (``local``, 1x1 convs) averages identical values
in every overlap; a model whose receptive radius fits inside the trim
(``halo``, two 3x3 convs: radius 2) keeps only pixels that saw their
whole neighbourhood; and a tile that covers the image is the image.
``clipped`` says whether the model's raw output leaves [0, 1] on the
row's image, so the rows that pin the per-tile clip cannot pass
vacuously.

Models: ``local`` and ``halo`` are packed two-layer stacks; ``lsf`` is
the 3-layer LSF-only SCALES body of ``benchmarks/test_perf_pipeline.py``
(about 70% of its pixels leave [0, 1]); ``zoo`` is a ``srresnet/scales``
x2 deploy artifact, served for real: ``InferencePipeline`` gets the
artifact path, ``Engine.from_artifact`` loads it and ``Engine.stream``
runs a ``ModelServer`` over its directory.  Hand-built models stream
over the smallest backend a ``StreamSession`` accepts.
"""

import numpy as np
import pytest

from repro import grad as G
from repro.api import Engine, EngineConfig, ModelSpec
from repro.binarize import SCALESBinaryConv2d
from repro.binarize.baselines import E2FIFBinaryConv2d
from repro.deploy import compile_model, load_artifact
from repro.grad import Tensor, no_grad
from repro.infer import InferencePipeline, tiled_super_resolve
from repro.models import build_model
from repro.nn import Module, Sequential, init
from repro.stream import StreamConfig, StreamSession

from ..helpers import parse_table
from ..oracles import SequentialTiledInference

CASES = """
  case                   | model | shape | tile | overlap | batch | threads | untiled | clipped
  -----------------------+-------+-------+------+---------+-------+---------+---------+--------
  tile-covers-image      | local | 10x10 |   16 |       4 |     8 | 1       | yes     | yes
  tile-covers-one-axis   | local | 16x9  |   16 |       4 |     8 | 1       | yes     | yes
  one-pixel-image        | local | 1x1   |   16 |       4 |     8 | 1       | yes     | yes
  tile-covers-halo-model | halo  | 20x31 |   32 |       8 |     8 | 1       | yes     | yes
  zero-overlap           | local | 17x23 |    8 |       0 |     3 | 1 2     | yes     | yes
  zero-overlap-strip     | local | 8x40  |    8 |       0 |     3 | 1       | yes     | yes
  one-pixel-remainder    | local | 17x17 |    8 |       0 |     4 | 1       | yes     | yes
  remainder-both-axes    | local | 9x25  |    8 |       0 |     4 | 2       | yes     | yes
  one-pixel-wide-axis    | local | 20x1  |    8 |       0 |     8 | 1       | yes     | yes
  exact-averaging-1      | local | 21x19 |    8 |       1 |     2 | 1       | yes     | yes
  exact-averaging-2      | local | 21x19 |    8 |       2 |     2 | 1       | yes     | yes
  exact-averaging-6      | local | 21x19 |    8 |       6 |     2 | 2       | yes     | yes
  halo-trim-covers-halo  | halo  | 40x38 |   16 |       8 |     8 | 2       | yes     | yes
  halo-threads           | halo  | 30x29 |   12 |       2 |     3 | 1 4     | no      | yes
  odd-37x41              | halo  | 37x41 |   16 |       8 |     5 | 2       | no      | yes
  odd-33x64              | halo  | 33x64 |   20 |       6 |     5 | 1       | no      | yes
  odd-48x31              | halo  | 48x31 |   20 |       6 |     5 | 4       | no      | yes
  lsf-out-of-range       | lsf   | 41x37 |   16 |       8 |     4 | 1 2 4   | no      | yes
  zoo-in-range           | zoo   | 37x29 |   16 |       8 |     4 | 1 2 4   | no      | no
"""

ROWS = {row["case"]: row for row in parse_table(CASES)}
SURFACES = ("tiled_super_resolve", "pipeline", "engine", "stream")
SCALE = {"local": 1, "halo": 1, "lsf": 1, "zoo": 2}


def _local():
    """Zero receptive halo: 1x1 convs."""
    init.seed(50)
    return compile_model(Sequential(
        SCALESBinaryConv2d(3, 3, 1, use_spatial=False, use_channel=False),
        E2FIFBinaryConv2d(3, 3, 1)))


def _halo():
    init.seed(52)
    return compile_model(Sequential(E2FIFBinaryConv2d(3, 3, 3),
                                    E2FIFBinaryConv2d(3, 3, 3)))


def _lsf():
    init.seed(0)
    return compile_model(Sequential(
        SCALESBinaryConv2d(3, 16, 3, use_spatial=False, use_channel=False),
        SCALESBinaryConv2d(16, 16, 3, use_spatial=False, use_channel=False,
                           skip=True),
        SCALESBinaryConv2d(16, 3, 3, use_spatial=False, use_channel=False)))


@pytest.fixture(autouse=True)
def _float32():
    with G.default_dtype("float32"):
        yield


@pytest.fixture(scope="module")
def zoo_artifact(tmp_path_factory):
    with G.default_dtype("float32"):
        init.seed(0)
        model = build_model("srresnet", scale=2, scheme="scales",
                            preset="tiny")
        return compile_model(model, freeze=tmp_path_factory.mktemp("zoo")
                             / "srresnet_scales_x2_tiny.rbd.npz"
                             ).artifact_path


@pytest.fixture(scope="module")
def models(zoo_artifact):
    with G.default_dtype("float32"):
        return {"local": _local(), "halo": _halo(), "lsf": _lsf(),
                "zoo": load_artifact(zoo_artifact)}


def _image(row):
    h, w = (int(n) for n in row["shape"].split("x"))
    seed = sum(map(ord, row["case"]))
    return np.random.default_rng(seed).random((h, w, 3), dtype=np.float32)


@pytest.fixture(scope="module")
def expected(models):
    """The oracle's output per case, computed once for all surfaces."""
    memo = {}

    def of(case):
        if case not in memo:
            row = ROWS[case]
            oracle = SequentialTiledInference(
                models[row["model"]], tile=int(row["tile"]),
                overlap=int(row["overlap"]))
            memo[case] = oracle.super_resolve(_image(row))
        return memo[case]

    return of


def _untiled(model, image):
    model.eval()
    with no_grad():
        x = np.ascontiguousarray(image.transpose(2, 0, 1))[None]
        out = np.asarray(model(Tensor(x)).data, dtype=np.float64)
    return out[0].transpose(1, 2, 0)


class _Ready:
    def __init__(self, value):
        self.value = value

    def result(self, timeout=None):
        return self.value


class _PipelineBackend:
    """The smallest serving backend a ``StreamSession`` accepts: each
    tile runs through a clipping, untiled ``InferencePipeline``."""

    def __init__(self, model, n_threads):
        self.pipeline = InferencePipeline(model, n_threads=n_threads)

    def submit_many(self, images, model=None):
        return [_Ready(self.pipeline(image)) for image in images]


def _run(surface, name, model, artifact, image, row, threads):
    tile, overlap = int(row["tile"]), int(row["overlap"])
    batch, scale = int(row["batch"]), SCALE[name]
    if surface == "tiled_super_resolve":
        return tiled_super_resolve(model, image, scale, tile=tile,
                                   overlap=overlap, batch_size=batch,
                                   n_threads=threads)
    if surface == "pipeline":
        source = str(artifact) if name == "zoo" else model
        return InferencePipeline(source, batch_size=batch, tile=tile,
                                 tile_overlap=overlap, scale=scale,
                                 n_threads=threads)(image)
    config = EngineConfig(tile=tile, tile_overlap=overlap, batch_size=batch,
                          n_threads=threads)
    if name == "zoo":
        engine = Engine.from_artifact(artifact, config)
    else:
        # The spec only routes and carries the scale: the compiled
        # model is the hand-built one.
        engine = Engine(ModelSpec("srresnet", scale=scale), config=config,
                        compiled=model)
    if surface == "engine":
        with engine:
            return engine.infer(image).unwrap()
    if name == "zoo":
        stream = engine.stream()
    else:
        stream = StreamSession(_PipelineBackend(model, threads),
                               engine.spec.key, scale,
                               StreamConfig(tile=tile, overlap=overlap))
    with stream:
        result = stream.submit_frame(image).result(timeout=120.0)
    assert result.ok, (result.status, result.detail)
    return result.image


def _cases():
    return [pytest.param(case, int(threads), surface,
                         id=f"{case}-{surface}-t{threads}")
            for case, row in ROWS.items()
            for threads in row["threads"].split()
            for surface in SURFACES]


@pytest.mark.parametrize("case,threads,surface", _cases())
def test_tiled_surface_matches_sequential_oracle(models, zoo_artifact,
                                                 expected, case, threads,
                                                 surface):
    row = ROWS[case]
    name = row["model"]
    model = models[name]
    image = _image(row)
    want = expected(case)
    got = _run(surface, name, model, zoo_artifact, image, row, threads)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got, want)
    if row["untiled"] == "yes":
        np.testing.assert_array_equal(
            want, np.clip(_untiled(model, image), 0.0, 1.0))


@pytest.mark.parametrize("case", list(ROWS))
def test_clipped_column_holds(models, case):
    row = ROWS[case]
    raw = _untiled(models[row["model"]], _image(row))
    assert ((raw < 0.0) | (raw > 1.0)).any() == (row["clipped"] == "yes")


def test_invalid_geometry_rejected(models):
    image = np.zeros((20, 20, 3), dtype=np.float32)
    for tile, overlap in ((0, 0), (8, 8), (8, -1)):
        with pytest.raises(ValueError, match="tile|overlap"):
            tiled_super_resolve(models["local"], image, 1, tile=tile,
                                overlap=overlap)
    with pytest.raises(ValueError, match="tile"):
        EngineConfig(tile=0)


class _TiledForward(Module):
    """A model whose forward is itself a 4-thread tiled pass."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    def forward(self, x):
        image = x.data[0].transpose(1, 2, 0)
        sr = tiled_super_resolve(self.model, image, 1, tile=8, overlap=4,
                                 batch_size=2, n_threads=4)
        return Tensor(sr.transpose(2, 0, 1)[None])


def test_nested_parallelism_does_not_deadlock(models):
    # A thread-parallel tiled pass inside a thread-parallel pipeline:
    # the inner parallel_map must run inline on pool workers instead of
    # starving the shared pool.
    rng = np.random.default_rng(14)
    images = [rng.random((20, 20, 3), dtype=np.float32) for _ in range(4)]
    pipe = InferencePipeline(_TiledForward(models["halo"]), batch_size=1,
                             n_threads=4)
    oracle = SequentialTiledInference(models["halo"], tile=8, overlap=4)
    for image, out in zip(images, pipe.map(images)):
        # The pipeline stacks the float32 tensor the inner pass returns.
        np.testing.assert_array_equal(
            out, oracle.super_resolve(image).astype(np.float32))
