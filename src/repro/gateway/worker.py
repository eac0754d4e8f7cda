"""The gateway worker: one process, one :class:`ModelServer`, one port.

``worker_main`` is the spawn target the gateway launches per worker
slot.  Each worker owns a full serving stack over the *shared*
artifact zoo directory — consistent hashing at the front door decides
which slice of the zoo a worker actually sees, so its LRU and result
cache stay hot on just those models — and speaks the gateway wire
format (:mod:`repro.gateway.wire`) over a localhost HTTP server bound
to an ephemeral port.  The bound port is reported back through a pipe;
readiness is the gateway's to await, not a sleep.

Shutdown is the PR 7 graceful-drain path end to end: SIGTERM flips the
worker to *draining* (new ``/infer`` requests get an immediate 503
while handler threads already waiting on futures keep waiting), then
``ModelServer.close(drain=True)`` settles every admitted request,
the HTTP server stops accepting, and handler threads are joined —
an in-flight client sees its real result, never a reset connection.
"""

from __future__ import annotations

import os
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from ..serve.metrics import EXPOSITION_CONTENT_TYPE
from ..serve.server import ModelServer, ServeError, ServerBusy, ServerConfig
from . import wire

__all__ = ["RESULT_TIMEOUT_S", "classify_result", "worker_main"]

#: How long a handler thread waits on a future before answering 504.
RESULT_TIMEOUT_S = 60.0


def classify_result(value) -> Tuple[int, bytes]:
    """Map a settled :class:`ServeFuture` value to ``(status, body)``.

    The full status table lives in :mod:`repro.gateway.wire`; the two
    shed flavours split deliberately — 429 says "you are over a bound,
    back off", 503 says "this process is going away, go elsewhere" —
    so the front door can retry 503 on another worker but must
    propagate 429 to the client.
    """
    if isinstance(value, np.ndarray):
        return 200, wire.dumps(
            {"status": "ok", "output": wire.encode_array(value)})
    if isinstance(value, ServerBusy):
        status = 429 if value.reason == "queue full" else 503
        return status, wire.error_body(
            "busy", value.reason, retryable=True)[1]
    if isinstance(value, ServeError):
        return 500, wire.error_body("error", value.message)[1]
    return 500, wire.error_body(
        "error", f"unexpected result type {type(value).__name__}")[1]


class _WorkerHTTPServer(ThreadingHTTPServer):
    """Per-worker HTTP server carrying the serving state.

    ``daemon_threads`` is off on purpose: ``server_close()`` then joins
    every in-flight handler thread, which is what makes SIGTERM drain
    mean "every admitted request was answered" rather than "the
    process got around to exiting".
    """

    daemon_threads = False
    allow_reuse_address = True

    def __init__(self, address, handler, *, worker_id: int,
                 model_server: ModelServer) -> None:
        super().__init__(address, handler)
        self.worker_id = worker_id
        self.model_server = model_server
        self.draining = False


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive lets the front door reuse proxy connections.
    protocol_version = "HTTP/1.1"

    server: _WorkerHTTPServer  # narrowed from socketserver.BaseServer

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # workers are spawned in tests; stderr chatter is noise

    def _reply(self, status: int, body: bytes,
               content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/healthz":
            draining = self.server.draining
            self._reply(200 if not draining else 503, wire.dumps({
                "status": "draining" if draining else "ok",
                "worker": self.server.worker_id,
                "pid": os.getpid(),
            }))
        elif self.path == "/stats":
            self._reply(200, wire.dumps(self.server.model_server.stats()))
        elif self.path == "/metrics":
            # The worker's own scrape surface (exposition text); the
            # front door aggregates /metrics.json instead so families
            # merge across the pool under one TYPE block each.
            text = self.server.model_server.metrics.render()
            self._reply(200, text.encode("utf-8"),
                        content_type=EXPOSITION_CONTENT_TYPE)
        elif self.path == "/metrics.json":
            self._reply(
                200, wire.dumps(self.server.model_server.metrics.dump()))
        else:
            self._reply(404, wire.error_body(
                "error", f"no route {self.path}")[1])

    def do_POST(self) -> None:
        if self.path != "/infer":
            self._reply(404, wire.error_body(
                "error", f"no route {self.path}")[1])
            return
        if self.server.draining:
            self._reply(503, wire.error_body(
                "busy", "worker draining", retryable=True)[1])
            return
        length = self.headers.get("Content-Length", "0").strip()
        if not length.isdecimal():
            # No way to find the body's end: answer and hang up.
            self.close_connection = True
            self._reply(400, wire.error_body(
                "error", f"bad Content-Length {length!r}")[1])
            return
        try:
            request = wire.loads(self.rfile.read(int(length)))
            if not isinstance(request, dict) or "model" not in request \
                    or "image" not in request:
                raise wire.WireError(
                    "request must be an object with 'model' and 'image'")
            image = wire.decode_array(request["image"])
        except wire.WireError as exc:
            self._reply(400, wire.error_body("error", str(exc))[1])
            return
        server = self.server.model_server
        # Correlation id threaded from the front door (or the client):
        # the worker's structured request log lines carry the same id
        # as the gateway's proxy line for the same request.
        request_id = self.headers.get("X-Request-Id") or None
        try:
            future = server.submit(image, str(request["model"]),
                                   request_id=request_id)
        except KeyError as exc:
            self._reply(404, wire.error_body("error", str(exc))[1])
            return
        except ValueError as exc:
            self._reply(400, wire.error_body("error", str(exc))[1])
            return
        try:
            value = future.result(timeout=RESULT_TIMEOUT_S)
        except TimeoutError:
            self._reply(504, wire.error_body(
                "error", "result not ready within "
                f"{RESULT_TIMEOUT_S:g}s", retryable=True)[1])
            return
        self._reply(*classify_result(value))


def worker_main(worker_id: int, artifact_dir: str,
                config: Optional[ServerConfig], conn) -> None:
    """Spawn target: serve ``artifact_dir`` on an ephemeral localhost
    port until SIGTERM, then drain and exit 0.

    ``conn`` (one end of a ``multiprocessing.Pipe``) receives exactly
    one message: ``("ready", port)`` once the socket is bound and the
    model server is scanning-complete, or ``("error", message)`` when
    startup fails — the gateway blocks on this instead of sleeping.
    """
    try:
        model_server = ModelServer(artifact_dir, config)
        httpd = _WorkerHTTPServer(
            ("127.0.0.1", 0), _Handler,
            worker_id=worker_id, model_server=model_server)
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        raise SystemExit(1)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    serve_thread = threading.Thread(
        target=httpd.serve_forever, name=f"gateway-worker-{worker_id}",
        daemon=True)
    serve_thread.start()
    conn.send(("ready", httpd.server_address[1]))
    conn.close()

    # Timed waits so a SIGTERM landing mid-acquire still gets its
    # Python-level handler run within one period on every platform.
    while not stop.is_set():
        stop.wait(timeout=0.2)
    # Drain order matters: refuse new work first, settle admitted work
    # second, only then stop the socket — so every request the worker
    # ever said yes to gets a real response.
    httpd.draining = True
    model_server.close(drain=True)
    httpd.shutdown()
    serve_thread.join(timeout=5.0)
    httpd.server_close()
