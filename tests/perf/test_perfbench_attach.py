"""The traced perfbench run still attaches to the library.

``python3 perfbench/run.py --trace 1`` patches named functions and
methods of ``repro`` from outside ``src/``
(:func:`perfbench.layers.install`) and loads each artifact bare through
:func:`perfbench.workloads.common.model_classes`.  A traced name renamed
or deleted in ``src/``, or a ``load_artifact(path, tile=None)`` that no
longer loads, would otherwise fail only in a traced run.
"""

import numpy as np

from perfbench.layers import install
from perfbench.trace import Tracer
from perfbench.workloads.common import build_artifact, model_classes
from repro.api import Engine, EngineConfig

#: Spans one tiled, 2-thread ``Engine.infer`` call must record.
TILED_SPANS = {
    "nn.model", "deploy.engine.packed", "deploy.kernels.conv_bits",
    "deploy.kernels.gemm", "binarize.rescale", "infer.tiling.plan",
    "infer.tiling.stitch", "infer.tiling.glue", "infer.parallel.map",
    "infer.pipeline.flush",
}


def _attribute(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_install_attaches_to_src_and_restores(tmp_path):
    path = build_artifact(tmp_path, "srresnet", "scales", "tiny")
    classes = model_classes([path])
    assert [cls.__name__ for cls in classes] == ["SRResNet"]

    tracer = Tracer()
    install(tracer, classes)
    # What install replaced, as (owner, attribute, original).
    patches = list(tracer._patches)
    try:
        for owner, attr, original in patches:
            assert _attribute(owner, attr) is not original, (owner, attr)
        config = EngineConfig(dtype="float32", tile=16, tile_overlap=8,
                              n_threads=2)
        image = np.random.default_rng(0).random((40, 36, 3),
                                                dtype=np.float32)
        with Engine.from_artifact(path, config) as engine:
            assert engine.infer(image).ok
    finally:
        tracer.restore()

    for owner, attr, original in patches:
        assert _attribute(owner, attr) is original, (owner, attr)
    missing = TILED_SPANS - {span.name for span in tracer.spans}
    assert not missing, missing
