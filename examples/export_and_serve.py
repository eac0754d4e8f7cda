"""Train -> compile -> export -> load -> infer: the deploy artifact flow.

The paper's phone deployment assumes a trained network is exported once
and served from its packed form.  This example walks that full path
through the typed public API (:mod:`repro.api`):

1. ``Engine.from_spec(...).train(...)`` — train a small
   SCALES-binarized SRResNet;
2. ``engine.export(path)`` — compile onto the packed XNOR-popcount
   engine and write a one-file ``.npz`` deploy artifact (bit-packed
   uint64 weight words + scales/thresholds + the FP remainder; the
   float binary weights never touch disk);
3. ``Engine.from_artifact(path)`` — rebuild a servable packed engine
   straight from the artifact (the float model is not reconstructed);
4. run typed inference and verify the facade's outputs are
   bit-identical to hand-wiring ``load_artifact`` +
   ``InferencePipeline`` — the layers the facade drives.

Run:  python examples/export_and_serve.py
"""

import os
import tempfile

import numpy as np

from repro.api import Engine, EngineConfig, ModelSpec, capability_matrix
from repro.data import training_pool
from repro.deploy import artifact_report, load_artifact, read_artifact_meta
from repro.infer import InferencePipeline
from repro.train import TrainConfig


def main() -> None:
    spec = ModelSpec("srresnet", scheme="scales", scale=2,
                     overrides={"light_tail": True, "head_kernel": 3})
    config = EngineConfig(dtype="float32", seed=42, batch_size=4)
    engine = Engine.from_spec(spec, config=config)

    print("Capability check (before any work):")
    cap = engine.capability()
    print(f"  {spec.route}: coverage={cap.coverage} "
          f"compile={cap.can_compile} export={cap.can_export} "
          f"serve={cap.can_serve}")

    print("\nTraining SCALES-binarized SRResNet (quick demo schedule)...")
    pool = training_pool(scale=spec.scale, n_images=8, size=(64, 64))
    engine.train(pool, TrainConfig(steps=80, batch_size=8, patch_size=16,
                                   lr=3e-4, lr_step=60, seed=7))

    workdir = tempfile.mkdtemp(prefix="repro_deploy_")
    float_ckpt = os.path.join(workdir, "srresnet_scales_x2_float.npz")

    print("\nExporting the packed deploy artifact...")
    artifact = engine.export(os.path.join(workdir, spec.artifact_name()))
    engine.model.save(float_ckpt)
    report = artifact_report(artifact)
    print(f"  artifact          : {artifact}")
    print(f"  on disk           : {os.path.getsize(artifact)} bytes "
          f"(float checkpoint: {os.path.getsize(float_ckpt)} bytes)")
    print(f"  packed layers     : {report.n_binary_layers}")
    print(f"  binary weights    : {report.packed_weight_bytes} bytes "
          f"packed vs {report.dense_weight_bytes} dense -> "
          f"{report.weight_compression:.1f}x")

    meta = read_artifact_meta(artifact)
    print(f"  recipe            : {meta['recipe']['architecture']} / "
          f"{meta['recipe']['scheme']} / x{meta['recipe']['scale']}")

    print("\nLoading the artifact into a servable engine "
          "(no float model rebuild)...")
    served = Engine.from_artifact(artifact, config=config)

    print("Running typed inference (micro-batched)...")
    rng = np.random.default_rng(0)
    images = [rng.random((24, 24, 3)).astype(np.float32) for _ in range(6)]
    results = served.infer_many(images)
    assert all(r.ok for r in results)

    print("Verifying against the hand-wired low-level path...")
    with config.scope():
        pipeline = InferencePipeline(load_artifact(artifact), batch_size=4)
        reference = pipeline.map(images)
    worst = 0.0
    for result, expected in zip(results, reference):
        worst = max(worst, float(np.abs(result.unwrap() - expected).max()))
    if worst != 0.0:
        raise SystemExit(f"FAIL: facade outputs drifted from the hand-wired "
                         f"pipeline (max diff {worst:.1e})")
    print(f"  {len(results)} images served, bit-identical vs "
          f"load_artifact + InferencePipeline")

    live = engine.infer(images[0]).unwrap()
    loaded = served.infer(images[0]).unwrap()
    if not np.array_equal(live, loaded):
        raise SystemExit("FAIL: loaded artifact drifted from the live "
                         "compiled engine")
    print("  loaded vs live compiled engine: bit-identical")

    print("\nZoo-wide deploy coverage (capability registry):")
    for coverage in ("full", "partial"):
        cells = sorted(f"{c.architecture}/{c.scheme}"
                       for c in capability_matrix() if c.coverage == coverage)
        print(f"  {coverage:8s}: {', '.join(cells)}")


if __name__ == "__main__":
    main()
