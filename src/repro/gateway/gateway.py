"""The HTTP gateway: a network front door over a worker pool.

This is the ROADMAP's "network front door + horizontal scale-out"
item: everything below (packed engine, micro-batcher, result cache,
typed shedding, graceful drain) already existed in-process; this layer
puts a socket in front of it and fans the zoo out across processes.

Shape of the thing::

    client ──HTTP──▶ Gateway (front door, routing, quotas)
                       │ consistent hash over (architecture, scheme,
                       │ scale) — each model's traffic pins to one
                       ▼ worker, so per-worker LRU/result caches hit
    worker 0..N-1: spawned processes, one ModelServer each, sharing
                   the artifact zoo directory (repro.gateway.worker)

Design decisions, and where each came from:

* **Routing by model key, not round-robin.**  A worker's value is its
  warm state (loaded models, result cache).  Consistent hashing
  (:mod:`repro.gateway.ring`) keeps each model's traffic on one
  worker, and moves only the dead worker's share on failure.
* **Admission control is layered, all of it typed.**  Per-client
  token buckets (:mod:`repro.gateway.quota`) answer 429 at the front
  door; a worker's queue-depth bound answers 429 via the serving
  layer's ``ServerBusy``; drain answers 503.  No request is ever
  silently dropped — the same never-strand contract ``ModelServer``
  keeps for futures, kept over HTTP.
* **Liveness + re-routing reuse the jobs-layer shape.**  The monitor
  thread is ``jobs/runner.py``'s lease loop in miniature: poll worker
  processes, respawn the dead (their in-flight requests fail fast at
  the proxy and re-route to the ring's next owner), and give up on a
  slot only after ``max_respawns`` consecutive deaths — the fruitless-
  death guard; a request the slot's worker answers resets its count.
  Proxy retries back off via the jobs layer's
  :class:`~repro.jobs.retry.RetryPolicy`, deterministic jitter and
  all.
* **The pool boots together.**  Every worker is launched before any
  handshake is awaited, at construction and in each monitor sweep, so
  the pool is up in about one worker's start-up time and workers that
  die together come back together.  A worker that reports an error,
  exits before its handshake or stays silent past
  ``worker_start_timeout_s`` is a ``RuntimeError`` naming its slot:
  the constructor raises it, the monitor counts it and retries on its
  next sweep.  A rolling restart still cycles one slot at a time,
  because it holds capacity on purpose.
* **Drain on SIGTERM is the PR 7 path end to end.**  The front door
  refuses new work (503), workers get SIGTERM and settle every
  admitted request through ``ModelServer.close(drain=True)``, then
  everything joins.  An in-flight client sees its result; a late
  client sees a typed refusal; nobody sees a reset connection.
"""

from __future__ import annotations

import http.client
import itertools
import logging
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..deploy.registry import classify_recipe
from ..deploy.revision import CanaryConfig, CanaryController, RevisionStore
from ..deploy.serialize import key_str, no_artifact_message, scan_artifact_dir
from ..grad import thread_default_dtype
from ..infer.pipeline import InferencePipeline
from ..jobs.retry import RetryPolicy
from ..logs import log_event
from ..serve.metrics import (
    EXPOSITION_CONTENT_TYPE,
    MetricsRegistry,
    families_from_dump,
    render_families,
)
from ..serve.server import ModelKey, ServerConfig, parse_model_key
from . import wire
from .quota import QuotaRegistry
from .ring import HashRing
from .worker import worker_main

__all__ = ["Gateway", "GatewayConfig"]

#: Structured gateway events (see :mod:`repro.logs`).
_LOG = logging.getLogger("repro.gateway")

#: ``repro_canary_state`` gauge encoding.
_CANARY_STATES = {"idle": 0, "verifying": 1, "promoted": 2, "demoted": -1}


@dataclass
class GatewayConfig:
    """Operational knobs of :class:`Gateway`.

    host / port:
        Front-door bind address; port ``0`` picks an ephemeral port
        (read it back from ``Gateway.address``).
    n_workers:
        Worker processes in the pool.
    server:
        Per-worker :class:`~repro.serve.ServerConfig` (``None`` =
        defaults).  Its ``drain_timeout_s`` bounds each worker's
        SIGTERM drain.
    ring_replicas:
        Virtual nodes per worker on the hash ring.
    quota_rate_per_s / quota_burst:
        Per-client token bucket (``None`` rate disables metering).
    retry:
        Backoff between proxy re-route attempts; ``retry.max_attempts``
        bounds how many distinct workers one request may try.
    liveness_interval_s:
        Monitor poll period for dead-worker detection.
    max_respawns:
        Consecutive deaths after which a worker slot is abandoned
        (removed from the ring) instead of respawned forever; deaths
        stop being consecutive once the slot's worker answers a
        proxied request with anything but 503.
    worker_start_timeout_s:
        How long to wait for a spawned worker's ready message.
    proxy_timeout_s:
        Socket timeout per proxied request (covers a worker's full
        queue + flush time, so it sits well above the result timeout).
    canary:
        Rollout policy (:class:`repro.deploy.CanaryConfig`).  Canary
        verification only runs while a candidate revision of a served
        model sits in the artifact directory, so the default-on policy
        costs nothing in the common single-revision case.
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_workers: int = 2
    server: Optional[ServerConfig] = None
    ring_replicas: int = 64
    quota_rate_per_s: Optional[float] = None
    quota_burst: float = 10.0
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=3, base_delay_s=0.05, max_delay_s=0.5))
    liveness_interval_s: float = 0.25
    max_respawns: int = 3
    worker_start_timeout_s: float = 120.0
    proxy_timeout_s: float = 90.0
    canary: CanaryConfig = field(default_factory=CanaryConfig)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        # A zero liveness interval would spin the monitor on a core.
        for name in ("liveness_interval_s", "worker_start_timeout_s",
                     "proxy_timeout_s"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be > 0, got {getattr(self, name)}")


@dataclass
class _WorkerSlot:
    """One pool slot: the live process behind a ring node."""

    slot: int
    process: multiprocessing.process.BaseProcess
    port: int
    respawns: int = 0
    abandoned: bool = False


class _FrontHTTPServer(ThreadingHTTPServer):
    """Front-door HTTP server; handlers reach the gateway through it."""

    daemon_threads = False
    allow_reuse_address = True

    def __init__(self, address, handler, gateway: "Gateway") -> None:
        super().__init__(address, handler)
        self.gateway = gateway


class _FrontHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    server: _FrontHTTPServer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, body: bytes,
               content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        gateway = self.server.gateway
        if self.path == "/healthz":
            body = wire.dumps(gateway.health())
            self._reply(503 if gateway.draining else 200, body)
        elif self.path == "/models":
            self._reply(200, wire.dumps({
                "models": [key_str(k) for k in sorted(gateway.catalog)]}))
        elif self.path == "/stats":
            self._reply(200, wire.dumps(gateway.stats()))
        elif self.path == "/metrics":
            self._reply(200, gateway.metrics_text().encode("utf-8"),
                        content_type=EXPOSITION_CONTENT_TYPE)
        elif self.path == "/revisions":
            self._reply(200, wire.dumps(gateway.revision_status()))
        else:
            self._reply(404, wire.error_body(
                "error", f"no route {self.path}")[1])

    def do_POST(self) -> None:
        if self.path != "/infer":
            self._reply(404, wire.error_body(
                "error", f"no route {self.path}")[1])
            return
        gateway = self.server.gateway
        client_id = self.headers.get("X-Client-Id", "anonymous")
        request_id = self.headers.get("X-Request-Id") or None
        length = self.headers.get("Content-Length", "0").strip()
        if not length.isdecimal():
            # No way to find the body's end: answer and hang up.
            self.close_connection = True
            self._reply(400, wire.error_body(
                "error", f"bad Content-Length {length!r}")[1])
            return
        body = self.rfile.read(int(length))
        self._reply(*gateway.proxy_infer(body, client_id,
                                         request_id=request_id))


class Gateway:
    """Front door + worker pool over an artifact zoo directory.

    Start it, read ``address``, point HTTP clients at it (or use
    :class:`repro.gateway.GatewayClient`); ``close()`` drains.  Also a
    context manager.
    """

    def __init__(self, artifact_dir, config: Optional[GatewayConfig] = None,
                 ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.artifact_dir = str(artifact_dir)
        #: Servable zoo keys — the same filter ModelServer applies, so
        #: the front door's 404s agree with its workers'.
        self.catalog: Set[ModelKey] = set()
        infos, _ = scan_artifact_dir(artifact_dir)
        for info in infos:
            if classify_recipe(info.recipe).deployable:
                self.catalog.add(info.key)
        if not self.catalog:
            raise ValueError(
                f"no servable deploy artifacts in {artifact_dir!s}")
        self.metrics = MetricsRegistry()
        #: Durable revision bookkeeping + the canary state machine over
        #: it (versioned rollout; see :mod:`repro.deploy.revision`).
        self.revisions = RevisionStore(artifact_dir)
        self.canary = CanaryController(self.revisions, self.config.canary)
        self._canary_lock = threading.Lock()
        self._canary_pipelines: Dict[Tuple[ModelKey, int],
                                     InferencePipeline] = {}
        self._request_seq = itertools.count()
        self.draining = False
        self._closed = False
        self._quotas = QuotaRegistry(self.config.quota_rate_per_s,
                                     self.config.quota_burst)
        self._ctx = multiprocessing.get_context("spawn")
        self._ring = HashRing(replicas=self.config.ring_replicas)
        self._workers: Dict[int, _WorkerSlot] = {}
        self._workers_lock = threading.Lock()
        self._monitor_pause = threading.Event()
        self._monitor_stop = threading.Event()
        self._rollout_threads: List[threading.Thread] = []
        self._init_metrics()
        try:
            failures = self._start_workers(
                dict.fromkeys(range(self.config.n_workers), 0))
            if failures:
                raise failures[0]
            self._httpd = _FrontHTTPServer(
                (self.config.host, self.config.port), _FrontHandler, self)
        except Exception:
            self._terminate_workers(graceful=False)
            raise
        self._front_thread = threading.Thread(
            target=self._httpd.serve_forever, name="gateway-front",
            daemon=True)
        self._front_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="gateway-monitor", daemon=True)
        self._monitor_thread.start()

    # -- metrics -----------------------------------------------------------

    def _init_metrics(self) -> None:
        """Register the ``repro_gateway_*`` / ``repro_canary_*`` families.

        Front-door and canary events increment their counters inline
        where they happen, and ``stats()["gateway"]`` reads the same
        counters.  Worker-pool liveness is a per-slot gauge so a
        scraper sees exactly which slot died.
        """
        counter = self.metrics.counter
        self._m_requests = counter(
            "repro_gateway_requests_total",
            "Requests arriving at the front door.",
        )
        self._m_proxied = counter(
            "repro_gateway_proxied_total", "Requests answered by a worker."
        )
        self._m_reroutes = counter(
            "repro_gateway_reroutes_total",
            "Retry attempts against another ring owner.",
        )
        self._m_unrouted = counter(
            "repro_gateway_unrouted_total",
            "Requests that exhausted every live worker.",
        )
        self._m_shed = counter(
            "repro_gateway_shed_total",
            "Requests refused at the front door, by reason.",
            ("reason",),
        )
        for reason in ("draining", "quota"):
            self._m_shed.labels(reason=reason)  # both series show at 0
        self._m_respawns = counter(
            "repro_gateway_worker_respawns_total",
            "Dead workers respawned by the monitor.",
        )
        self._m_respawn_failures = counter(
            "repro_gateway_worker_respawn_failures_total",
            "Worker respawns whose startup failed.",
        )
        self._m_abandoned = counter(
            "repro_gateway_workers_abandoned_total",
            "Worker slots abandoned after repeated deaths.",
        )
        self._m_rollouts = counter(
            "repro_gateway_rollouts_completed_total",
            "Post-promotion rolling restarts of the worker pool completed.",
        )

        def worker_alive():
            with self._workers_lock:
                return [
                    ({"worker": str(slot)},
                     1.0 if (not w.abandoned and w.process.is_alive())
                     else 0.0)
                    for slot, w in sorted(self._workers.items())
                ]

        self.metrics.func(
            "repro_gateway_worker_alive",
            "Per-slot worker liveness (1 = alive, 0 = dead/abandoned).",
            "gauge", worker_alive)
        self._m_canary_samples = self.metrics.counter(
            "repro_canary_samples_total",
            "Requests shadow-verified against a candidate revision.",
            ("model",))
        self._m_canary_mismatches = self.metrics.counter(
            "repro_canary_mismatches_total",
            "Shadow verifications where the candidate diverged.",
            ("model",))
        self._m_canary_promotions = self.metrics.counter(
            "repro_canary_promotions_total",
            "Candidate revisions promoted to active.", ("model",))
        self._m_canary_demotions = self.metrics.counter(
            "repro_canary_demotions_total",
            "Candidate revisions demoted on a parity mismatch.",
            ("model",))

        def canary_state():
            return [
                ({"model": label}, _CANARY_STATES.get(entry["state"], 0))
                for label, entry in sorted(self.canary.snapshot().items())
            ]

        self.metrics.func(
            "repro_canary_state",
            "Rollout state per model (0 idle, 1 verifying, 2 promoted, "
            "-1 demoted).", "gauge", canary_state)

    def metrics_text(self) -> str:
        """The merged ``/metrics`` exposition text: the gateway's own
        families plus every live worker's, each worker's samples tagged
        ``worker="<slot>"`` so per-process series stay distinguishable
        under one ``# TYPE`` block per family."""
        families = list(self.metrics.collect())
        with self._workers_lock:
            live = [(slot, w.port) for slot, w in sorted(self._workers.items())
                    if not w.abandoned and w.process.is_alive()]
        for slot, port in live:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
            try:
                conn.request("GET", "/metrics.json")
                response = conn.getresponse()
                dump = wire.loads(response.read())
                families.extend(
                    families_from_dump(dump, {"worker": str(slot)}))
            except (OSError, http.client.HTTPException, wire.WireError,
                    ValueError):
                continue  # a dying worker must not break the scrape
            finally:
                conn.close()
        return render_families(families)

    # -- worker pool -------------------------------------------------------

    def _launch(self, slot: int) -> Tuple:
        """Start one worker process; returns it and the read end of its
        handshake pipe without waiting for the handshake."""
        parent, child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(slot, self.artifact_dir, self.config.server, child),
            name=f"gateway-worker-{slot}", daemon=True)
        process.start()
        child.close()
        return process, parent

    def _await(self, slot: int, process, conn, deadline: float,
               respawns: int) -> None:
        """Receive a launched worker's handshake by ``deadline`` (a
        ``time.monotonic()`` value) and register the slot in the pool
        and on the ring; the pipe is closed either way.

        A worker that reports an error, exits first (end of file on the
        pipe) or stays silent is stopped and joined, and
        ``RuntimeError`` names the slot and its exit code.  Once the
        gateway is closing, a ready worker is stopped instead of
        registered, so ``close()`` leaves no process behind.
        """
        timeout = self.config.worker_start_timeout_s
        try:
            if conn.poll(max(0.0, deadline - time.monotonic())):
                kind, payload = conn.recv()
            else:
                kind, payload = "silent", f"no ready message in {timeout:g}s"
        except (EOFError, OSError):
            kind, payload = "error", "exited before its ready message"
        finally:
            conn.close()
        if kind == "ready":
            with self._workers_lock:
                if not self._monitor_stop.is_set():
                    self._workers[slot] = _WorkerSlot(
                        slot=slot, process=process, port=payload,
                        respawns=respawns)
                    self._ring.add(slot)
                    return
        elif kind == "error":
            process.join(timeout=5.0)  # it is exiting on its own
        process.terminate()
        process.join(timeout=5.0)
        if kind != "ready":
            raise RuntimeError(f"worker {slot} failed to start: {payload} "
                               f"(exit code {process.exitcode})")

    def _start_workers(self, respawns: Dict[int, int]) -> List[RuntimeError]:
        """Start a worker for each slot in ``respawns`` (slot -> its
        respawn count): launch them all, then await each handshake in
        slot order under one ``worker_start_timeout_s`` deadline, so
        the pool boots in about one worker's start-up time.  Returns
        the failures; every other slot is serving."""
        deadline = time.monotonic() + self.config.worker_start_timeout_s
        launched = [(slot, *self._launch(slot)) for slot in sorted(respawns)]
        failures = []
        for slot, process, conn in launched:
            try:
                self._await(slot, process, conn, deadline, respawns[slot])
            except RuntimeError as exc:
                failures.append(exc)
        return failures

    def _monitor(self) -> None:
        """Liveness loop — ``jobs/runner.py``'s lease re-dispatch shape:
        each sweep takes every dead worker's slot off the ring (their
        in-flight requests fail fast at the proxy and re-route), then
        respawns them all together; a slot that keeps dying is
        abandoned after ``max_respawns`` deaths with no request served
        in between (``proxy_infer`` resets the count)."""
        while not self._monitor_stop.wait(self.config.liveness_interval_s):
            if self._monitor_pause.is_set():
                # A rolling restart is deliberately cycling workers;
                # respawning them here would race it (two processes
                # for one slot).
                continue
            relaunch: Dict[int, int] = {}
            abandoned = 0
            with self._workers_lock:
                for slot, worker in self._workers.items():
                    if worker.abandoned or worker.process.is_alive():
                        continue
                    # Dead: route around it before anything else.
                    self._ring.remove(slot)
                    worker.respawns += 1
                    worker.abandoned = (worker.respawns
                                        > self.config.max_respawns)
                    if worker.abandoned:
                        abandoned += 1
                    else:
                        relaunch[slot] = worker.respawns
            self._m_abandoned.inc(abandoned)
            if not relaunch or self._monitor_stop.is_set():
                continue
            self._m_respawns.inc(len(relaunch))
            # A failed startup leaves the slot's dead entry in the
            # table, so the next sweep burns another respawn toward the
            # abandonment cap.
            self._m_respawn_failures.inc(
                len(self._start_workers(relaunch)))

    def _terminate_workers(self, graceful: bool) -> None:
        with self._workers_lock:
            workers = [w for w in self._workers.values() if not w.abandoned]
        for worker in workers:
            if not worker.process.is_alive():
                continue
            if graceful:
                worker.process.terminate()  # SIGTERM → worker drain
            else:
                worker.process.kill()  # nothing to settle: do not wait
        timeout = 30.0 if graceful else 5.0
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck drain
                worker.process.kill()
                worker.process.join(timeout=5.0)

    # -- front-door request handling ---------------------------------------

    def proxy_infer(self, body: bytes, client_id: str,
                    request_id: Optional[str] = None) -> Tuple[int, bytes]:
        """Route one ``/infer`` body to its worker; returns
        ``(status, response body)``.

        Layered admission first (drain 503, quota 429), then the ring
        walk: connection failures and worker-drain 503s exclude that
        worker and try the next ring owner after a jittered backoff,
        up to ``retry.max_attempts`` distinct workers.  Worker
        responses are forwarded byte-for-byte.

        While a candidate revision of the requested model is under
        rollout, a sampled fraction of successful requests is
        shadow-verified: the client's bytes still come from the
        incumbent, and the candidate's output for the same input is
        compared bit-for-bit after the fact — so a bad candidate is
        demoted without any client ever seeing its output or an error.
        """
        t0 = time.monotonic()
        if request_id is None:
            request_id = f"gw-{os.getpid():x}-{next(self._request_seq):06x}"
        self._m_requests.inc()
        if self.draining:
            self._m_shed.labels(reason="draining").inc()
            return 503, wire.error_body(
                "busy", "gateway draining", retryable=True)[1]
        if not self._quotas.try_acquire(client_id):
            self._m_shed.labels(reason="quota").inc()
            return 429, wire.error_body(
                "busy", f"client {client_id!r} over quota",
                retryable=True)[1]
        try:
            request = wire.loads(body)
            if not isinstance(request, dict) or "model" not in request:
                raise wire.WireError(
                    "request must be an object with 'model' and 'image'")
            key = parse_model_key(str(request["model"]))
        except (wire.WireError, ValueError) as exc:
            return 400, wire.error_body("error", str(exc))[1]
        if key not in self.catalog:
            return 404, wire.error_body(
                "error", no_artifact_message(key, self.catalog))[1]
        route_key = key_str(key)
        tried: Set[int] = set()
        last_unavailable: Optional[Tuple[int, bytes]] = None
        for attempt in range(self.config.retry.max_attempts):
            with self._workers_lock:
                slot = self._ring.route(route_key, exclude=tried)
                port = (self._workers[slot].port
                        if slot is not None else None)
            if slot is None:
                break
            if attempt > 0:
                self._m_reroutes.inc()
                time.sleep(self.config.retry.delay_s(route_key, attempt - 1))
            try:
                status, payload = self._forward(port, body, request_id)
            except (OSError, http.client.HTTPException):
                tried.add(slot)
                last_unavailable = (503, wire.error_body(
                    "busy", f"worker {slot} unavailable",
                    retryable=True)[1])
                continue
            if status == 503:
                # The worker is draining or closed: it answered, but it
                # is on its way out — the next ring owner can serve.
                tried.add(slot)
                last_unavailable = (status, payload)
                continue
            self._m_proxied.inc()
            with self._workers_lock:
                # The worker served: its slot's deaths are no longer
                # consecutive.  A respawn since routing has a new port.
                worker = self._workers.get(slot)
                if worker is not None and worker.port == port:
                    worker.respawns = 0
            if status == 200 and self.canary.should_sample(key):
                self._verify_canary(key, request, payload, request_id)
            log_event(_LOG, "proxy", request_id=request_id,
                      model=route_key, client_id=client_id, worker=slot,
                      status=status, attempts=attempt + 1,
                      total_s=round(time.monotonic() - t0, 6))
            return status, payload
        self._m_unrouted.inc()
        log_event(_LOG, "proxy", request_id=request_id, model=route_key,
                  client_id=client_id, status=503, outcome="unrouted",
                  attempts=len(tried))
        if last_unavailable is not None:
            return last_unavailable
        return 503, wire.error_body(
            "busy", "no live workers", retryable=True)[1]

    def _forward(self, port: int, body: bytes,
                 request_id: Optional[str] = None) -> Tuple[int, bytes]:
        """One proxy attempt against one worker (fresh connection)."""
        headers = {"Content-Type": "application/json",
                   "Content-Length": str(len(body))}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=self.config.proxy_timeout_s)
        try:
            conn.request("POST", "/infer", body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    # -- canary rollout ----------------------------------------------------

    def refresh_revisions(self) -> None:
        """Re-scan the artifact directory for new revisions (e.g. after
        an export dropped a candidate next to the incumbent)."""
        self.revisions.refresh()

    def _canary_pipeline(self, key: ModelKey,
                         revision: int, path) -> InferencePipeline:
        """The cached in-gateway pipeline for one candidate revision."""
        cache_key = (key, revision)
        pipeline = self._canary_pipelines.get(cache_key)
        if pipeline is None:
            pipeline = InferencePipeline(str(path))
            self._canary_pipelines[cache_key] = pipeline
        return pipeline

    def _drop_canary_pipelines(self, key: ModelKey) -> None:
        for cache_key in [k for k in self._canary_pipelines if k[0] == key]:
            self._canary_pipelines.pop(cache_key).close()

    def _verify_canary(self, key: ModelKey, request: Dict,
                       payload: bytes, request_id: str) -> None:
        """Shadow-verify one sampled request against the candidate.

        The client's response (``payload``, from the incumbent) is
        already decided; this compares the candidate's output for the
        same input bit-for-bit and drives the rollout state machine.
        Served outputs are deterministic, so any divergence — different
        bytes, shape, dtype, or the candidate failing to run at all —
        is proof of a bad artifact and demotes it on the spot.  Errors
        here never propagate to the request path.
        """
        label = key_str(key)
        try:
            with self._canary_lock:
                info = self.canary.candidate_info(key)
                if info is None:
                    return
                image = wire.decode_array(request["image"])
                served = wire.decode_array(wire.loads(payload)["output"])
                dtype = (self.config.server.dtype
                         if self.config.server is not None else None)
                # Same dtype scope the workers' ModelServer uses, over
                # both load and execution, so parity means parity.
                with thread_default_dtype(dtype):
                    pipeline = self._canary_pipeline(
                        key, info.revision, info.path)
                    candidate = pipeline(image)
                matched = (candidate.shape == served.shape
                           and candidate.dtype == served.dtype
                           and np.array_equal(candidate, served))
                detail = ("" if matched else
                          f"candidate revision {info.revision} diverged "
                          f"from incumbent on request {request_id}")
        except Exception as exc:
            # A candidate that cannot even be loaded/run is a bad
            # artifact by definition: demote it rather than sampling
            # forever.  The client already has its (incumbent) answer.
            matched = False
            info = self.canary.candidate_info(key)
            if info is None:
                return
            detail = (f"candidate revision {info.revision} failed "
                      f"verification: {type(exc).__name__}: {exc}")
        self._m_canary_samples.labels(model=label).inc()
        state = self.canary.record(key, matched, detail)
        if not matched:
            self._m_canary_mismatches.labels(model=label).inc()
        if state == "demoted":
            self._m_canary_demotions.labels(model=label).inc()
            self._drop_canary_pipelines(key)
            log_event(_LOG, "canary_demoted", level=logging.WARNING,
                      request_id=request_id, model=label,
                      candidate=info.revision, detail=detail)
        elif state == "promoted":
            self._m_canary_promotions.labels(model=label).inc()
            self._drop_canary_pipelines(key)
            log_event(_LOG, "canary_promoted", request_id=request_id,
                      model=label, candidate=info.revision)
            if self.config.canary.restart_workers_on_promote:
                thread = threading.Thread(
                    target=self._rolling_restart,
                    name="gateway-rollout", daemon=True)
                self._rollout_threads.append(thread)
                thread.start()

    def _rolling_restart(self) -> None:
        """Cycle the worker pool one slot at a time so live traffic
        picks up a newly promoted revision.

        Each slot leaves the ring, drains via SIGTERM (every admitted
        request is answered), and is respawned — the rest of the pool
        keeps serving throughout, so a promotion is invisible to
        clients beyond briefly re-routed traffic.
        """
        self._monitor_pause.set()
        try:
            for slot in sorted(self._workers):
                if self._monitor_stop.is_set():
                    return
                with self._workers_lock:
                    worker = self._workers.get(slot)
                    if worker is None or worker.abandoned:
                        continue
                    self._ring.remove(slot)
                process = worker.process
                if process.is_alive():
                    process.terminate()  # SIGTERM → graceful drain
                process.join(timeout=30.0)
                if process.is_alive():  # pragma: no cover - stuck drain
                    process.kill()
                    process.join(timeout=5.0)
                # On a failed start the monitor's respawn accounting
                # takes over once unpaused; the dead entry stays visible.
                self._m_respawn_failures.inc(len(
                    self._start_workers({slot: worker.respawns})))
            self._m_rollouts.inc()
            log_event(_LOG, "rollout_complete", workers=len(self._workers))
        finally:
            self._monitor_pause.clear()

    def rollout_complete(self, timeout: Optional[float] = None) -> bool:
        """Block until any in-progress post-promotion rolling restart
        finishes; returns ``False`` on timeout."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        for thread in list(self._rollout_threads):
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(timeout=remaining)
            if thread.is_alive():
                return False
        return True

    def revision_status(self) -> Dict:
        """Rollout state for ``/revisions``: on-disk revisions, the
        active one, and canary progress per model."""
        return {
            "revisions": self.revisions.snapshot(),
            "canary": self.canary.snapshot(),
        }

    # -- observability -----------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The front door's bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def health(self) -> Dict:
        with self._workers_lock:
            workers = {
                str(slot): {
                    "alive": worker.process.is_alive(),
                    "port": worker.port,
                    "respawns": worker.respawns,
                    "abandoned": worker.abandoned,
                }
                for slot, worker in sorted(self._workers.items())
            }
        return {
            "status": "draining" if self.draining else "ok",
            "models": len(self.catalog),
            "workers": workers,
        }

    def stats(self) -> Dict:
        """Gateway counters plus each live worker's ``stats()`` snapshot
        (which surfaces, among others, the serving layer's ``coalesced``
        counter)."""
        shed = self._m_shed.total
        stats = {
            "gateway": {
                "requests": self._m_requests.total(),
                "proxied": self._m_proxied.total(),
                "reroutes": self._m_reroutes.total(),
                "shed_quota": shed(reason="quota"),
                "shed_draining": shed(reason="draining"),
                "unrouted": self._m_unrouted.total(),
                "worker_respawns": self._m_respawns.total(),
                "worker_respawn_failures": self._m_respawn_failures.total(),
                "workers_abandoned": self._m_abandoned.total(),
                "rollouts_completed": self._m_rollouts.total(),
            },
            "clients": self._quotas.clients(),
            "revisions": self.revisions.snapshot(),
            "canary": self.canary.snapshot(),
            "workers": {},
        }
        with self._workers_lock:
            live = [(slot, w.port) for slot, w in self._workers.items()
                    if not w.abandoned and w.process.is_alive()]
        for slot, port in live:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
            try:
                conn.request("GET", "/stats")
                response = conn.getresponse()
                stats["workers"][str(slot)] = wire.loads(response.read())
            except (OSError, http.client.HTTPException, wire.WireError):
                stats["workers"][str(slot)] = {"error": "unreachable"}
            finally:
                conn.close()
        return stats

    # -- lifecycle ---------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the gateway; with ``drain`` every admitted request is
        answered before sockets go down.

        Order: flag the front door draining (new ``/infer`` → 503) →
        stop the monitor (so dead workers are final, not respawned) →
        SIGTERM the pool (each worker settles its admitted work via
        ``ModelServer.close(drain=True)`` and exits 0) → join workers →
        shut the front door, joining its handler threads.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.draining = True
        self._monitor_stop.set()
        # A rolling restart mid-close would race worker teardown;
        # rollout threads check _monitor_stop between slots, so this
        # join is bounded by one worker drain.
        for thread in self._rollout_threads:
            thread.join(timeout=60.0)
        self._monitor_thread.join(timeout=10.0)
        self._terminate_workers(graceful=drain)
        self._httpd.shutdown()
        self._front_thread.join(timeout=10.0)
        self._httpd.server_close()
        with self._canary_lock:
            for pipeline in self._canary_pipelines.values():
                pipeline.close()
            self._canary_pipelines.clear()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)
