"""Gateway end-to-end: spawned workers, real sockets, real signals.

The acceptance criteria of the network front door, exercised for real:

* concurrent HTTP responses bit-identical to direct ``Engine.infer``
  on the same artifacts (the serving layer's determinism contract,
  kept across process and socket boundaries);
* killing a worker mid-load completes every request via re-routing —
  zero hung clients — and the monitor respawns the slot; workers that
  die together come back together, and a worker that exits before its
  handshake is a counted startup failure, never a dead monitor;
* typed refusals end to end: 404 unknown model, 400 malformed, 429
  over-quota, 503 draining;
* SIGTERM drains gracefully: in-flight requests settle, late arrivals
  get 503, the process exits 0.
"""

import http.client
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.gateway.gateway as gateway_module
from repro.api import Engine, EngineConfig
from repro.gateway import (
    Gateway,
    GatewayClient,
    GatewayConfig,
    run_open_loop,
    wire,
)
from repro.serve import ServerConfig

from .conftest import MODEL_A, MODEL_B, images


def _config(**overrides):
    defaults = dict(
        n_workers=2,
        server=ServerConfig(n_threads=1, dtype="float32",
                            drain_timeout_s=10.0),
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


@pytest.fixture(scope="module")
def gateway(zoo_dir):
    with Gateway(zoo_dir, _config()) as gw:
        yield gw


@pytest.fixture(scope="module")
def references(zoo_dir):
    """model route -> direct Engine.infer outputs for the shared images."""
    refs = {}
    for model, stem in ((MODEL_A, "srresnet_scales"), (MODEL_B, "edsr_e2fif")):
        engine = Engine.from_artifact(
            zoo_dir / f"{stem}.npz", EngineConfig(dtype="float32"))
        refs[model] = [r.unwrap() for r in engine.infer_many(
            images(n=4, seed=11))]
        engine.close()
    return refs


class TestCorrectnessOverHTTP:
    def test_concurrent_requests_bit_identical_to_engine_infer(
            self, gateway, references):
        imgs = images(n=4, seed=11)
        failures = []

        def worker(thread_id):
            client = GatewayClient(gateway.address,
                                   client_id=f"t{thread_id}")
            for model in (MODEL_A, MODEL_B):
                for i, img in enumerate(imgs):
                    result = client.infer(img, model)
                    if not result.ok:
                        failures.append((model, i, result))
                    elif not np.array_equal(result.output,
                                            references[model][i]):
                        failures.append((model, i, "bit mismatch"))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_unknown_model_is_404(self, gateway):
        result = GatewayClient(gateway.address).infer(
            images(n=1)[0], "rdn/scales/x9")
        assert result.http_status == 404
        assert "available" in result.reason

    def test_malformed_body_is_400(self, gateway):
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/infer", body=b"{not json",
                         headers={"Content-Length": "9"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_stats_surface_worker_coalescing(self, gateway):
        client = GatewayClient(gateway.address)
        assert client.infer(images(n=1, seed=42)[0], MODEL_A).ok
        stats = client.stats()
        assert stats["gateway"]["proxied"] >= 1
        assert stats["workers"], "no worker stats collected"
        for worker_stats in stats["workers"].values():
            assert "coalesced" in worker_stats["server"]

    def test_open_loop_loadgen_round_trip(self, gateway):
        report = run_open_loop(
            gateway.address, MODEL_A, images(n=4, seed=13),
            rate_rps=30.0, duration_s=1.0, seed=0)
        assert report.sent > 0
        assert report.errors == 0
        assert report.ok == report.sent - report.shed
        assert report.ok > 0
        assert report.p99_ms >= report.p50_ms >= 0.0


def _raw_post_status(address, content_length):
    """POST ``/infer`` with a raw ``Content-Length`` header over a bare
    socket; the response's status code, or ``None`` when the server
    closed the connection without answering."""
    request = (f"POST /infer HTTP/1.1\r\nHost: test\r\n"
               f"Content-Length: {content_length}\r\n\r\n{{}}")
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request.encode("ascii"))
        received = b""
        while b"\r\n" not in received:
            chunk = sock.recv(4096)
            if not chunk:
                return None
            received += chunk
    return int(received.split(b" ", 2)[1])


class TestMalformedInput:
    @pytest.mark.parametrize("content_length", ["abc", "-5"])
    @pytest.mark.parametrize("hop", ["front door", "worker"])
    def test_bad_content_length_is_400(self, gateway, hop, content_length):
        host, port = gateway.address
        if hop == "worker":
            port = gateway._workers[0].port
        assert _raw_post_status((host, port), content_length) == 400
        # The hop keeps serving.
        assert GatewayClient(gateway.address).infer(
            images(n=1, seed=31)[0], MODEL_A).ok

    def test_a_leftover_deadline_field_is_ignored(self, gateway, references):
        client = GatewayClient(gateway.address)
        before = client.stats()["gateway"]
        body = wire.dumps({
            "model": MODEL_A, "deadline_s": "soon",
            "image": wire.encode_array(images(n=4, seed=11)[0])})
        conn = http.client.HTTPConnection(*gateway.address, timeout=60)
        try:
            conn.request("POST", "/infer", body=body)
            response = conn.getresponse()
            status, reply = response.status, wire.loads(response.read())
        finally:
            conn.close()
        assert status == 200, reply
        np.testing.assert_array_equal(
            wire.decode_array(reply["output"]), references[MODEL_A][0])
        after = client.stats()["gateway"]
        for counter in ("unrouted", "reroutes"):
            assert after[counter] == before[counter], counter


class TestAdmission:
    def test_over_quota_client_gets_429_others_unaffected(self, zoo_dir):
        config = _config(n_workers=1, quota_rate_per_s=0.25, quota_burst=2)
        with Gateway(zoo_dir, config) as gw:
            greedy = GatewayClient(gw.address, client_id="greedy")
            polite = GatewayClient(gw.address, client_id="polite")
            img = images(n=1, seed=21)[0]
            statuses = [greedy.infer(img, MODEL_A).http_status
                        for _ in range(3)]
            assert statuses[:2] == [200, 200]
            assert statuses[2] == 429
            assert polite.infer(img, MODEL_A).http_status == 200
            assert gw.stats()["gateway"]["shed_quota"] == 1

    def test_draining_front_door_sheds_new_work_with_503(self, gateway):
        gateway.draining = True
        try:
            result = GatewayClient(gateway.address).infer(
                images(n=1)[0], MODEL_A)
        finally:
            gateway.draining = False
        assert result.http_status == 503
        assert result.retryable
        assert "draining" in result.reason


def _eventually(predicate, what, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.05)


def _counter(gw, name):
    """One of the gateway's own counters, read from its exposition."""
    for line in gw.metrics.render().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"{name} is not exported")


class TestWorkerDeath:
    def test_killed_worker_reroutes_with_zero_hung_clients(self, zoo_dir):
        config = _config(liveness_interval_s=0.1)
        with Gateway(zoo_dir, config) as gw:
            client = GatewayClient(gw.address)
            imgs = images(n=3, seed=31)
            assert client.infer(imgs[0], MODEL_A).ok
            victim = gw._ring.route(MODEL_A)
            os.kill(gw._workers[victim].process.pid, signal.SIGKILL)

            results = []
            lock = threading.Lock()

            def hammer(i):
                result = client.infer(imgs[i % len(imgs)], MODEL_A)
                with lock:
                    results.append(result)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            # Zero hung clients: every request completed, with a real
            # result, via re-routing around the corpse.
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 8
            assert all(r.ok for r in results), [
                (r.http_status, r.reason) for r in results if not r.ok]

            # The monitor notices the death and respawns the slot.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                slot = gw.health()["workers"][str(victim)]
                if slot["alive"] and slot["respawns"] >= 1:
                    break
                time.sleep(0.2)
            else:
                pytest.fail(f"worker {victim} was never respawned")
            assert gw.stats()["gateway"]["worker_respawns"] >= 1

    def test_workers_killed_together_both_come_back(self, zoo_dir):
        with Gateway(zoo_dir, _config(liveness_interval_s=0.1)) as gw:
            old = {slot: w.process.pid for slot, w in gw._workers.items()}
            for pid in old.values():
                os.kill(pid, signal.SIGKILL)
            _eventually(lambda: all(
                w["alive"] and w["respawns"] >= 1
                for w in gw.health()["workers"].values()),
                "both slots to respawn")
            assert all(gw._workers[slot].process.pid != pid
                       for slot, pid in old.items())
            assert gw.stats()["gateway"]["worker_respawns"] >= 2
            client = GatewayClient(gw.address)
            img = images(n=1, seed=61)[0]
            assert client.infer(img, MODEL_A).ok
            assert client.infer(img, MODEL_B).ok

    def test_respawn_that_exits_before_its_handshake_keeps_the_monitor(
            self, zoo_dir, monkeypatch):
        failures = "repro_gateway_worker_respawn_failures_total"
        config = _config(liveness_interval_s=0.1, max_respawns=100)
        with Gateway(zoo_dir, config) as gw:
            monitor = gw._monitor_thread
            # The child calls os._exit(slot, ...), which raises
            # TypeError before anything is sent: the pipe reads EOF.
            monkeypatch.setattr(gateway_module, "worker_main", os._exit)
            os.kill(gw._workers[0].process.pid, signal.SIGKILL)
            _eventually(lambda: _counter(gw, failures) >= 1
                        or not monitor.is_alive(), "a respawn failure")
            monkeypatch.undo()
            assert monitor.is_alive()
            assert _counter(gw, failures) >= 1
            _eventually(lambda: gw.health()["workers"]["0"]["alive"],
                        "slot 0 to come back")
            assert monitor.is_alive()
            worker = GatewayClient(("127.0.0.1", gw._workers[0].port))
            assert worker.infer(images(n=1, seed=51)[0], MODEL_A).ok

    def test_a_served_request_resets_the_death_count(self, zoo_dir):
        # max_respawns counts consecutive deaths: a slot that serves
        # between two crashes is respawned both times, not abandoned.
        config = _config(n_workers=1, max_respawns=1,
                         liveness_interval_s=0.1)
        with Gateway(zoo_dir, config) as gw:
            client = GatewayClient(gw.address)
            img = images(n=1, seed=71)[0]
            for death in range(2):
                pid = gw._workers[0].process.pid
                os.kill(pid, signal.SIGKILL)
                _eventually(lambda: gw._workers[0].process.pid != pid
                            and gw.health()["workers"]["0"]["alive"],
                            f"slot 0 to respawn after death {death + 1}")
                result = client.infer(img, MODEL_A)
                assert result.http_status == 200, result.reason
                assert gw.health()["workers"]["0"]["respawns"] == 0

    def test_worker_exiting_before_its_handshake_fails_the_constructor(
            self, zoo_dir, monkeypatch):
        before = set(multiprocessing.active_children())
        monkeypatch.setattr(gateway_module, "worker_main", os._exit)
        with pytest.raises(RuntimeError,
                           match=r"^worker 0 .*\(exit code 1\)$"):
            Gateway(zoo_dir, _config())
        # Every launched worker was joined: none is left running.
        assert set(multiprocessing.active_children()) <= before


class TestSigtermDrain:
    def test_cli_sigterm_settles_inflight_and_exits_zero(self, zoo_dir):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.gateway",
             "--artifact-dir", str(zoo_dir), "--workers", "1",
             "--dtype", "float32", "--drain-timeout", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, bufsize=1, env=env)
        try:
            ready = None
            for line in proc.stdout:
                if line.startswith("GATEWAY_READY"):
                    ready = line.split()[1]
                    break
            assert ready is not None, "gateway never became ready"
            host, _, port = ready.partition(":")
            client = GatewayClient((host, int(port)))
            imgs = images(n=6, seed=41)
            assert client.infer(imgs[0], MODEL_A).ok

            inflight = []
            lock = threading.Lock()

            def fire(img):
                try:
                    result = client.infer(img, MODEL_A)
                except OSError:
                    result = None  # socket already down: late arrival
                with lock:
                    inflight.append(result)

            threads = [threading.Thread(target=fire, args=(imgs[i % 6],))
                       for i in range(12)]
            for t in threads:
                t.start()
            proc.send_signal(signal.SIGTERM)

            # Late arrivals during the drain window get a typed 503
            # (or find the socket already closed, never a hang).
            late = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    result = client.infer(imgs[0], MODEL_A)
                except OSError:
                    late = "closed"
                    break
                if result.http_status == 503:
                    late = 503
                    break
                time.sleep(0.01)
            assert late in (503, "closed")

            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            for result in inflight:
                # Settled with a real output, or typed-refused; a reset
                # connection mid-request (None) would be a drain bug —
                # only the post-shutdown late probe may see one.
                if result is not None:
                    assert result.ok or result.http_status == 503, (
                        result.http_status, result.reason)
            assert any(r is not None and r.ok for r in inflight)

            assert proc.wait(timeout=120) == 0
            tail = proc.stdout.read()
            assert "GATEWAY_DRAINING" in tail
            assert "GATEWAY_STOPPED" in tail
        finally:
            proc.kill()
            proc.stdout.close()
