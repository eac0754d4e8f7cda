"""Gateway perf gate: open-loop Poisson load against the front door.

The acceptance bar for the network front door: under seeded Poisson
traffic offered at ``OFFERED_RPS`` the full stack — front-door HTTP
server, consistent-hash routing, proxy hop, per-worker ``ModelServer``
with micro-batching and result cache — must sustain a goodput ratio
(achieved ok-RPS / offered RPS) of at least ``MIN_GOODPUT_RATIO``,
with zero transport errors and bit-identical outputs (equivalence vs
direct ``Engine.infer`` is asserted before any timing).

The load is open-loop on purpose: arrivals fire on schedule whether or
not earlier requests came back, so overload shows up as shed responses
and a collapsing ratio instead of a quietly slowed-down benchmark
(see :mod:`repro.gateway.loadgen`).

Measurements append to ``BENCH_gateway.json``; the perf-regression CI
job checks the recorded ratio against ``benchmarks/perf_floors.json``.

Set ``REPRO_PERF_SMOKE=1`` (CI tier-1) to run only the equivalence +
zero-error smoke; the perf-regression job runs the timed version.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/test_gateway_load.py -v``.
"""

import os

import numpy as np
import pytest

from repro import grad as G
from repro.api import Engine, EngineConfig
from repro.deploy import compile_model
from repro.gateway import Gateway, GatewayClient, GatewayConfig, run_open_loop
from repro.models import build_model
from repro.nn import init
from repro.perf import record_bench
from repro.serve import ServerConfig

#: Gate from the PR acceptance criteria: the gateway must absorb at
#: least this fraction of the offered rate as ok responses.
MIN_GOODPUT_RATIO = 0.8

SMOKE = bool(os.environ.get("REPRO_PERF_SMOKE"))

ZOO = (("srresnet", "scales", 2), ("edsr", "e2fif", 2))
MODEL = "srresnet/scales/x2"
IMAGE_SHAPE = (16, 16, 3)
OFFERED_RPS = 40.0
DURATION_S = 5.0


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gateway_zoo")
    with G.default_dtype("float32"):
        for arch, scheme, scale in ZOO:
            init.seed(0)
            model = build_model(arch, scale=scale, scheme=scheme, preset="tiny")
            compile_model(model, freeze=str(directory / f"{arch}_{scheme}.npz"))
    return directory


@pytest.fixture(scope="module")
def gateway(zoo_dir):
    config = GatewayConfig(
        n_workers=2,
        server=ServerConfig(n_threads=1, dtype="float32"),
    )
    with Gateway(zoo_dir, config) as gw:
        yield gw


def _images(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.random(IMAGE_SHAPE).astype(np.float32) for _ in range(n)]


def _record(report, **extra):
    entry = {
        "benchmark": "gateway_open_loop",
        "speedup": report.goodput_ratio,
        "report": report.to_dict(),
        **extra,
    }
    try:
        record_bench("gateway", entry)
    except OSError:  # pragma: no cover - read-only checkout
        pass


class TestGatewayLoad:
    def test_equivalence_and_zero_errors_under_light_load(
        self, gateway, zoo_dir
    ):
        """Front-door outputs == direct Engine.infer; short open loop
        completes with zero transport errors."""
        imgs = _images(4, seed=5)
        engine = Engine.from_artifact(
            zoo_dir / "srresnet_scales.npz", EngineConfig(dtype="float32")
        )
        try:
            expected = [r.unwrap() for r in engine.infer_many(imgs)]
        finally:
            engine.close()
        client = GatewayClient(gateway.address, client_id="bench-equiv")
        for img, exp in zip(imgs, expected):
            np.testing.assert_array_equal(client.infer(img, MODEL).unwrap(), exp)

        report = run_open_loop(
            gateway.address,
            MODEL,
            imgs,
            rate_rps=20.0,
            duration_s=1.0,
            seed=0,
            client_id="bench-smoke",
        )
        assert report.errors == 0
        assert report.ok > 0

    @pytest.mark.skipif(SMOKE, reason="REPRO_PERF_SMOKE: equivalence only")
    def test_sustained_goodput_ratio(self, gateway):
        """Goodput >= MIN_GOODPUT_RATIO at the offered Poisson rate."""
        imgs = _images(8, seed=7)
        # Warm the pool: pin the route, load the model, prime caches.
        run_open_loop(
            gateway.address,
            MODEL,
            imgs,
            rate_rps=OFFERED_RPS,
            duration_s=1.0,
            seed=1,
            client_id="bench-warm",
        )
        report = run_open_loop(
            gateway.address,
            MODEL,
            imgs,
            rate_rps=OFFERED_RPS,
            duration_s=DURATION_S,
            seed=2,
            client_id="bench-load",
        )
        _record(
            report,
            model=MODEL,
            workers=2,
            distinct_inputs=len(imgs),
            image=list(IMAGE_SHAPE[:2]),
        )
        assert report.errors == 0, (
            f"{report.errors} transport/5xx errors under load"
        )
        assert report.goodput_ratio >= MIN_GOODPUT_RATIO, (
            f"gateway goodput is only {report.goodput_ratio:.2f} of the "
            f"offered {report.offered_rps:.1f} rps "
            f"(need >= {MIN_GOODPUT_RATIO}; p99 {report.p99_ms:.1f} ms)"
        )
