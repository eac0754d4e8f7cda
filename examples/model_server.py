"""Serve a model zoo: export artifacts, start a server, fire traffic.

The end-to-end serving story on top of ``examples/export_and_serve.py``,
driven through the typed public API (:mod:`repro.api`):

1. export three packed deploy artifacts (different architectures and
   binarization schemes) into one directory — the zoo — each through
   ``Engine.from_spec(...).export(...)``;
2. open a :func:`repro.api.serve_directory` session over the directory:
   models load lazily into an LRU registry, requests coalesce into
   work-conserving micro-batches, repeat inputs hit the content-hash
   result cache;
3. fire a few hundred mixed requests (models x shapes x repeats) from
   several client threads; every outcome is a typed
   :class:`repro.api.InferResult` — overload and failure come back as
   ``"busy"`` / ``"error"`` results, never raw server marker types;
4. verify **zero dropped** (every result ``ok``) and **zero incorrect**
   responses — every output must be bit-identical to
   ``Engine.from_artifact(...).infer`` on the same artifact — then
   print the server's report, computed from its metrics registry.

CI runs this as the serve smoke step.  Run:
``PYTHONPATH=src python examples/model_server.py``
"""

import tempfile
import threading

import numpy as np

from repro import grad as G
from repro.api import Engine, EngineConfig, ModelSpec, serve_directory
from repro.serve import ServerConfig

ZOO = (
    ModelSpec("srresnet", scheme="scales", scale=2),
    ModelSpec("edsr", scheme="e2fif", scale=2),
    ModelSpec("rdn", scheme="scales_lsf", scale=2),
)
SHAPES = ((16, 16, 3), (12, 20, 3))
N_CLIENTS = 4
REQUESTS_PER_CLIENT = 100
DISTINCT_PER_CASE = 4


def export_zoo(directory):
    print("Exporting the zoo (3 packed artifacts)...")
    for spec in ZOO:
        path = Engine.from_spec(spec, config=EngineConfig(seed=0)).export(
            f"{directory}/{spec.artifact_name()}")
        print(f"  {spec.route}  ->  {path.name} "
              f"({path.stat().st_size} bytes)")


def make_inputs():
    """Distinct images per (model, shape) case, shared by all clients."""
    inputs = {}
    for c, spec in enumerate(ZOO):
        for shape in SHAPES:
            rng = np.random.default_rng(hash((c,) + shape) % (2**32))
            inputs[spec.key, shape] = [
                rng.random(shape).astype(np.float32)
                for _ in range(DISTINCT_PER_CASE)
            ]
    return inputs


def main() -> None:
    with G.default_dtype("float32"):
        zoo_dir = tempfile.mkdtemp(prefix="repro_zoo_")
        export_zoo(zoo_dir)

        inputs = make_inputs()
        total = N_CLIENTS * REQUESTS_PER_CLIENT
        print(f"\nOpening a serve session over {zoo_dir} ...")
        session = serve_directory(
            zoo_dir,
            ServerConfig(
                max_batch=8,
                max_models=2,          # smaller than the zoo: LRU works
                max_queue_depth=total + 1,
            ),
        )
        print(f"  models: "
              f"{', '.join('/'.join(map(str, k)) for k in session.available_models)}")

        cases = sorted(inputs)
        print(f"\nFiring {total} requests from {N_CLIENTS} client threads...")
        results = {}

        def client(worker):
            tickets = []
            for i in range(REQUESTS_PER_CLIENT):
                key, shape = cases[(worker + i) % len(cases)]
                idx = (worker * 7 + i) % DISTINCT_PER_CASE
                image = inputs[key, shape][idx]
                tickets.append(
                    (key, shape, idx, session.submit(image, model=key)))
            results[worker] = [
                (key, shape, idx, t.result(timeout=60))
                for key, shape, idx, t in tickets
            ]

        threads = [
            threading.Thread(target=client, args=(w,))
            for w in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        session.close()

        print("Verifying against direct Engine.from_artifact runs...")
        references = {}
        for (key, shape), images in inputs.items():
            engine = Engine.from_artifact(session.server.model_info(key).path)
            references[key, shape] = [r.unwrap()
                                      for r in engine.infer_many(images)]

        dropped = incorrect = served = 0
        for worker_results in results.values():
            for key, shape, idx, result in worker_results:
                if not result.ok:
                    dropped += 1
                    continue
                if not np.array_equal(result.image,
                                      references[key, shape][idx]):
                    incorrect += 1
                    continue
                served += 1
        print(f"  served={served} dropped={dropped} incorrect={incorrect}")
        if dropped or incorrect or served != total:
            raise SystemExit(
                f"FAIL: {dropped} dropped / {incorrect} incorrect of {total}"
            )

        print("\n" + session.report())
        stats = session.stats()
        forwards = stats["counters"].get("batch_images", 0)
        print(f"\n  {total} requests served with {forwards} model forwards "
              f"(batching + caching + coalescing absorbed the rest)")
        print("OK: all responses bit-identical, nothing dropped")


if __name__ == "__main__":
    main()
