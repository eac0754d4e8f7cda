"""Deploy a trained binary SR network on packed XNOR-popcount kernels.

The paper's Table VI measures its models on a phone through Larq, which
executes binary convolutions on packed 1-bit operands.  This example
shows the equivalent flow in this repo:

1. train a small SCALES-binarized SRResNet;
2. compile it with :func:`repro.deploy.compile_model` — every binary conv
   is replaced by a packed uint64 XNOR-popcount twin;
3. verify the deployment is lossless and inspect the memory footprint.

Run:  python examples/deploy_packed_inference.py
"""

import numpy as np

from repro import grad as G
from repro.data import benchmark_suite, training_pool
from repro.deploy import compile_model, deployment_report
from repro.infer import tiled_super_resolve
from repro.metrics import psnr_y
from repro.models import build_model
from repro.nn import init
from repro.train import TrainConfig, Trainer, evaluate, super_resolve


def main() -> None:
    scale = 4
    with G.default_dtype("float32"):
        init.seed(42)
        model = build_model("srresnet", scale=scale, scheme="scales",
                            preset="tiny", light_tail=True, head_kernel=3)

        print("Training SCALES-binarized SRResNet (quick demo schedule)...")
        pool = training_pool(scale=scale, n_images=12, size=(96, 96))
        trainer = Trainer(model, pool, TrainConfig(steps=200, batch_size=8,
                                                   patch_size=16, lr=3e-4,
                                                   lr_step=140, seed=7))
        trainer.fit(verbose=True)

        print("\nCompiling onto packed XNOR-popcount kernels...")
        compiled = compile_model(model)
        report = deployment_report(compiled)
        print(f"  packed binary layers : {report.n_binary_layers}")
        print(f"  binary weights       : {report.packed_weight_bytes} bytes "
              f"(was {report.dense_weight_bytes} in float32 -> "
              f"{report.weight_compression:.1f}x)")
        print(f"  FP remainder         : {report.fp_bytes} bytes")
        print(f"  whole model          : {report.model_compression:.2f}x smaller")

        print("\nVerifying the deployment is lossless...")
        pairs = benchmark_suite("urban100", scale, 3, (64, 64))
        for pair in pairs:
            sr_float = super_resolve(model, pair.lr)
            sr_packed = super_resolve(compiled, pair.lr)
            p_float = psnr_y(sr_float, pair.hr, shave=scale)
            p_packed = psnr_y(sr_packed, pair.hr, shave=scale)
            max_diff = np.abs(sr_float - sr_packed).max()
            print(f"  {pair.name}: float {p_float:.2f} dB | packed "
                  f"{p_packed:.2f} dB | max pixel diff {max_diff:.2e}")

        result = evaluate(compiled, pairs)
        print(f"\nPacked-path mean PSNR over the suite: {result.psnr:.2f} dB")

        print("\nTiled inference (bounded memory on large inputs)...")
        big = np.random.default_rng(0).random((96, 128, 3)).astype(np.float32)
        sr_tiled = tiled_super_resolve(compiled, big, scale, tile=32,
                                       overlap=8, batch_size=16)
        print(f"  {big.shape[1]}x{big.shape[0]} LR -> "
              f"{sr_tiled.shape[1]}x{sr_tiled.shape[0]} SR via batched "
              f"32x32 tiles (see examples/pipeline_serving.py for the "
              f"serving pipeline)")


if __name__ == "__main__":
    main()
