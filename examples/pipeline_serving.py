"""Serve a binarized SR model through the batched inference pipeline.

The deployment story end to end, the way a serving process would run it:

1. train a small SCALES-binarized SRResNet and compile it onto the
   packed XNOR-popcount engine;
2. stand up an :class:`repro.infer.InferencePipeline` — requests are
   submitted one by one, executed as micro-batches on the thread pool;
3. push a full-resolution image through the tiled path: the same
   pipeline API with ``tile=`` set, stitching overlapping 32x32 tiles
   (the setting ``EngineConfig.tile`` gives ``Engine.infer``).

Both steps check their outputs bit for bit: each micro-batched output
against its own one-image ``super_resolve`` forward (clipped to [0, 1]
like the pipeline's), and the tiled output against a 1-thread
``tiled_super_resolve`` with the same geometry.  The script exits
non-zero on a mismatch.

Knob: ``REPRO_NUM_THREADS`` sets the worker-thread count (a pipeline's
``n_threads=`` overrides it).

Run:  python examples/pipeline_serving.py
"""

import time

import numpy as np

from repro import grad as G
from repro.data import training_pool
from repro.deploy import compile_model
from repro.infer import InferencePipeline, get_num_threads, tiled_super_resolve
from repro.models import build_model
from repro.nn import init
from repro.train import TrainConfig, Trainer, super_resolve


def main() -> None:
    scale = 2
    with G.default_dtype("float32"):
        init.seed(3)
        model = build_model("srresnet", scale=scale, scheme="scales",
                            preset="tiny", light_tail=True, head_kernel=3)

        print("Training a tiny SCALES-binarized SRResNet...")
        pool = training_pool(scale=scale, n_images=8, size=(64, 64))
        Trainer(model, pool, TrainConfig(steps=120, batch_size=8,
                                         patch_size=16, lr=3e-4,
                                         seed=7)).fit(verbose=False)
        compiled = compile_model(model)

        print(f"\nServing micro-batches on {get_num_threads()} thread(s)...")
        rng = np.random.default_rng(0)
        requests = [rng.random((24, 24, 3)).astype(np.float32)
                    for _ in range(12)]
        batches = []  # images per model forward, via on_batch
        pipeline = InferencePipeline(
            compiled, batch_size=4,
            on_batch=lambda n_images, seconds: batches.append(n_images))
        handles = [pipeline.submit(img) for img in requests]
        t0 = time.perf_counter()
        results = [h.result() for h in handles]
        elapsed = time.perf_counter() - t0
        print(f"  {len(results)} images in {elapsed * 1e3:.0f} ms "
              f"({len(batches)} batches, largest {max(batches)})")
        batched_ok = sum(np.array_equal(out, super_resolve(compiled, img))
                         for img, out in zip(requests, results))
        print(f"  {batched_ok}/{len(requests)} bit-identical to one-image "
              f"super_resolve")

        print("\nFull image through the tiled path...")
        big = rng.random((96, 128, 3)).astype(np.float32)
        tiled = InferencePipeline(compiled, batch_size=16, tile=32,
                                  tile_overlap=8, scale=scale)
        t0 = time.perf_counter()
        sr = tiled(big)
        elapsed = time.perf_counter() - t0
        print(f"  128x96 LR -> {sr.shape[1]}x{sr.shape[0]} SR "
              f"in {elapsed * 1e3:.0f} ms")
        tiled_ok = np.array_equal(
            sr, tiled_super_resolve(compiled, big, scale, tile=32, overlap=8,
                                    batch_size=16, n_threads=1))
        print(f"  bit-identical to 1-thread tiled_super_resolve: {tiled_ok}")

    if batched_ok != len(requests) or not tiled_ok:
        raise SystemExit("FAIL: a pipeline output differs from its reference")
    print("\nOK: micro-batched and tiled outputs bit-identical to their "
          "references")


if __name__ == "__main__":
    main()
