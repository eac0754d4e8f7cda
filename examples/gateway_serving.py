"""Serve a model zoo over HTTP: export artifacts, start a gateway,
fire concurrent network traffic, drain gracefully.

The network front door on top of ``examples/model_server.py``'s
in-process story:

1. export two packed deploy artifacts into one directory — the zoo —
   through ``Engine.from_spec(...).export(...)``;
2. start a :class:`repro.gateway.Gateway`: a multi-process worker pool
   (one ``ModelServer`` per worker) behind one HTTP front door, with
   consistent-hash routing over the model key so each model's traffic
   stays on a worker with warm caches;
3. fire concurrent requests from several :class:`GatewayClient`
   threads plus a short seeded open-loop Poisson run
   (:func:`repro.gateway.run_open_loop`);
4. verify **zero dropped** and **zero incorrect** responses — every
   output bit-identical to direct ``Engine.from_artifact(...).infer``
   on the same artifact — then close the gateway (graceful drain) and
   print the stats.

CI runs this as the gateway smoke step.  Run:
``PYTHONPATH=src python examples/gateway_serving.py``
"""

import tempfile
import threading

import numpy as np

from repro import grad as G
from repro.api import Engine, EngineConfig, ModelSpec
from repro.gateway import Gateway, GatewayClient, GatewayConfig, run_open_loop
from repro.serve import ServerConfig

ZOO = (
    ModelSpec("srresnet", scheme="scales", scale=2),
    ModelSpec("edsr", scheme="e2fif", scale=2),
)
SHAPE = (16, 16, 3)
N_CLIENTS = 4
REQUESTS_PER_CLIENT = 25
DISTINCT_PER_MODEL = 4


def export_zoo(directory):
    print("Exporting the zoo (2 packed artifacts)...")
    paths = {}
    for spec in ZOO:
        engine = Engine.from_spec(
            spec, config=EngineConfig(seed=0, dtype="float32"))
        path = engine.export(f"{directory}/{spec.artifact_name()}")
        engine.close()
        paths[spec.route] = path
        print(f"  {spec.route}  ->  {path.name}")
    return paths


def make_inputs():
    inputs = {}
    for c, spec in enumerate(ZOO):
        rng = np.random.default_rng(c)
        inputs[spec.route] = [
            rng.random(SHAPE).astype(np.float32)
            for _ in range(DISTINCT_PER_MODEL)
        ]
    return inputs


def main() -> None:
    zoo_dir = tempfile.mkdtemp(prefix="repro_gateway_zoo_")
    with G.default_dtype("float32"):
        artifact_paths = export_zoo(zoo_dir)
    inputs = make_inputs()

    print("\nComputing references via direct Engine.from_artifact runs...")
    references = {}
    for route, path in artifact_paths.items():
        engine = Engine.from_artifact(path, EngineConfig(dtype="float32"))
        references[route] = [
            r.unwrap() for r in engine.infer_many(inputs[route])]
        engine.close()

    config = GatewayConfig(
        n_workers=2,
        quota_rate_per_s=500.0,  # generous: metering on, nobody shed
        server=ServerConfig(dtype="float32"),
    )
    print(f"\nStarting the gateway ({config.n_workers} workers)...")
    with Gateway(zoo_dir, config) as gateway:
        host, port = gateway.address
        print(f"  front door: http://{host}:{port}")
        routes_served = sorted(f"{a}/{s}/x{x}"
                               for a, s, x in gateway.catalog)
        print(f"  models: {', '.join(routes_served)}")

        total = N_CLIENTS * REQUESTS_PER_CLIENT
        print(f"\nFiring {total} requests from {N_CLIENTS} "
              f"client threads over HTTP...")
        routes = sorted(inputs)
        results = {}

        def client_thread(worker):
            client = GatewayClient(gateway.address,
                                   client_id=f"client-{worker}")
            out = []
            for i in range(REQUESTS_PER_CLIENT):
                route = routes[(worker + i) % len(routes)]
                idx = (worker * 7 + i) % DISTINCT_PER_MODEL
                out.append((route, idx,
                            client.infer(inputs[route][idx], route)))
            results[worker] = out

        threads = [threading.Thread(target=client_thread, args=(w,))
                   for w in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        dropped = incorrect = served = 0
        for worker_results in results.values():
            for route, idx, result in worker_results:
                if not result.ok:
                    dropped += 1
                elif not np.array_equal(result.output,
                                        references[route][idx]):
                    incorrect += 1
                else:
                    served += 1
        print(f"  served={served} dropped={dropped} incorrect={incorrect}")
        if dropped or incorrect or served != total:
            raise SystemExit(
                f"FAIL: {dropped} dropped / {incorrect} incorrect of {total}")

        print("\nOpen-loop Poisson load (seeded, 2 seconds)...")
        report = run_open_loop(
            gateway.address, routes[0], inputs[routes[0]],
            rate_rps=25.0, duration_s=2.0, seed=0)
        print(f"  offered {report.offered_rps:.1f} rps -> "
              f"goodput ratio {report.goodput_ratio:.2f}, "
              f"p99 {report.p99_ms:.1f} ms, "
              f"shed={report.shed} errors={report.errors}")
        if report.errors:
            raise SystemExit(f"FAIL: {report.errors} errors under load")

        stats = gateway.stats()
        print(f"\n  gateway counters: {stats['gateway']}")
        print("  per-worker coalesced:", {
            wid: ws["server"]["coalesced"]
            for wid, ws in stats["workers"].items()})
        print("\nDraining the gateway (graceful close)...")
    print("OK: all responses bit-identical, nothing dropped")


if __name__ == "__main__":
    main()
