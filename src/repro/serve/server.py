"""`ModelServer`: serve a zoo of packed deploy artifacts.

PRs 1-3 made one model fast and exportable; this module is the layer
that serves *many* of them at once, the way the paper's deployment
story (and the ROADMAP's heavy-traffic north star) assumes:

* **Artifact-backed registry.**  The server is pointed at a directory
  of ``.npz`` deploy artifacts (:func:`repro.deploy.scan_artifact_dir`
  probes metadata only); each is admitted under its zoo key
  ``(architecture, scheme, scale)`` after the deploy registry's
  coverage classification confirms the cell actually packs.  Models
  load lazily on first request and live in an LRU bound of
  ``max_models`` — a zoo larger than RAM still serves.
* **Work-conserving micro-batching.**  Requests are queued per model
  by :class:`repro.serve.scheduler.MicroBatchScheduler` and executed
  as :class:`repro.infer.InferencePipeline` micro-batches: a model's
  queue runs as soon as the model is idle, and a flush takes
  everything queued, so the requests that arrive while a model runs
  form its next batch.  No request waits for batch-mates, and the
  server has no thread of its own: a flush starts on the inference
  pool from the submit or the flush end that makes its model due.
* **Result cache.**  Outputs are cached by input content hash
  (:mod:`repro.serve.cache`); repeat inputs are served without
  touching the engine, bounded by bytes.
* **Admission control.**  The global queue depth is bounded; beyond it
  requests are *shed* — resolved immediately with a typed
  :class:`ServerBusy` value instead of queueing unboundedly or raising
  across threads.  A model runs one flush at a time, so one hot model
  cannot monopolize the executor.
* **One settle path.**  Every outcome of a request — shed, cache hit,
  served, coalesced rider, failed — is counted, logged (one
  ``repro.serve`` "request" line) and resolved by one method,
  ``ModelServer._finish``.  A request whose model forward raises
  becomes a typed :class:`ServeError`, while requests run by other
  forwards of the same flush get their outputs; when loading the
  model, queueing or flushing raises outside a forward, every request
  of that flush becomes a :class:`ServeError` naming the exception.
* **Metrics.**  Every decision is counted and timed once, into the
  server's :class:`~repro.serve.metrics.MetricsRegistry`
  (``server.metrics``, what ``/metrics`` renders).  ``server.stats()``
  (the machine-readable snapshot), ``server.report()`` (the log block)
  and the per-model SLO state are computed from it when read.

Determinism: a served output is bit-identical to running the same
image through ``InferencePipeline`` on the same artifact directly —
batch composition, scheduling order, caching and thread count are all
execution-strategy details (the tests enforce this).

Typical use::

    with ModelServer("artifacts/", ServerConfig(max_batch=8)) as server:
        future = server.submit(image, model="srresnet/scales/x2")
        output = future.result()          # np.ndarray, or ServerBusy
        print(server.report())
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..deploy.registry import DeployEntry, classify_recipe
from ..deploy.serialize import (
    ArtifactInfo,
    key_str,
    no_artifact_message,
    scan_artifact_dir,
)
from ..grad import check_dtype, process_default_dtype, thread_default_dtype
from ..infer.parallel import check_num_threads, submit_task
from ..infer.pipeline import InferencePipeline
from ..logs import log_event
from .cache import ResultCache, content_key
from .metrics import MetricsRegistry
from .scheduler import MicroBatchScheduler, QueuedRequest

__all__ = [
    "ModelKey",
    "ModelServer",
    "ServeError",
    "ServeFuture",
    "ServerBusy",
    "ServerConfig",
    "parse_model_key",
]

#: ``(architecture, scheme, scale)`` — how the zoo names a model.
ModelKey = Tuple[str, str, int]

#: Where the per-request "request" lines go (see :mod:`repro.logs`).
_LOG = logging.getLogger("repro.serve")

#: How often a waiting caller (``wait``, ``drain``, ``close``)
#: re-dispatches the queues.
_REPOLL_S = 0.005


def parse_model_key(spec: Union[ModelKey, Sequence, str]) -> ModelKey:
    """Normalize a model spec to the ``(architecture, scheme, scale)`` key.

    Accepts the tuple itself, the route-style string
    ``"srresnet/scales/x2"`` (the ``x`` prefix on the scale is
    optional), or any object exposing the key as a ``.key`` attribute
    (:class:`repro.api.ModelSpec`, :class:`repro.deploy.DeployEntry`,
    :class:`repro.deploy.ArtifactInfo`).
    """
    key_attr = getattr(spec, "key", None)
    if key_attr is not None and not isinstance(spec, str):
        spec = key_attr
    if isinstance(spec, str):
        parts = spec.strip("/").split("/")
        if len(parts) != 3:
            raise ValueError(
                f"model spec {spec!r} is not 'architecture/scheme/xN'"
            )
        architecture, scheme, scale = parts
        scale = scale[1:] if scale.startswith("x") else scale
    else:
        try:
            architecture, scheme, scale = spec
        except (TypeError, ValueError):
            raise ValueError(
                f"model spec {spec!r} is not an (architecture, scheme, "
                f"scale) triple"
            ) from None
    try:
        return (str(architecture), str(scheme), int(scale))
    except ValueError:
        raise ValueError(
            f"model spec {spec!r} has a non-integer scale"
        ) from None


@dataclass(frozen=True)
class ServerBusy:
    """Typed shed result: admission control refused this request.

    Returned *as the future's value* (never raised): under overload a
    caller sees an immediate, explicit refusal it can retry or degrade
    on, and a worker thread never has to throw across the API.
    """

    model: ModelKey
    reason: str
    queue_depth: int


@dataclass(frozen=True)
class ServeError:
    """Typed failure result: the model forward running this request
    raised, or the model failed to load."""

    model: ModelKey
    message: str


class ServeFuture:
    """Handle for a submitted request — it resolves to the output
    array, a :class:`ServerBusy` shed marker or a :class:`ServeError` —
    or for a stream frame, which resolves to its
    :class:`~repro.stream.FrameResult`."""

    __slots__ = ("_event", "_value")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Block until resolved; raises ``TimeoutError`` on timeout."""
        if not self._event.wait(timeout):
            raise TimeoutError("request not served within timeout")
        return self._value

    def _resolve(self, value) -> None:
        self._value = value
        self._event.set()


@dataclass
class ServerConfig:
    """Operational knobs of :class:`ModelServer`.

    max_batch:
        Images per micro-batch forward; a flush that takes at least
        this many requests counts as ``full``, a smaller one as
        ``idle``.
    max_models:
        LRU bound on concurrently loaded models.  Models with queued or
        in-flight work are never evicted, so the bound can be exceeded
        transiently when every loaded model is busy.
    max_queue_depth:
        Global bound on queued (admitted, not yet executing) requests;
        beyond it new submissions are shed with :class:`ServerBusy`.
    cache_bytes:
        Result-cache budget (0 disables caching).
    n_threads:
        Passed through to each model's ``InferencePipeline`` (``None``
        = the process default, see :func:`repro.infer.get_num_threads`).
    dtype:
        When set (``"float32"`` / ``"float64"``), every model load and
        flush runs under this default dtype via the thread-scoped
        override (:func:`repro.grad.thread_default_dtype`), so served
        outputs are bit-identical to a direct pipeline run under the
        same dtype even when the process-wide default differs.  ``None``
        (the default) runs them under the process default, never a
        caller's thread-scoped override.
    background:
        Start each flush on the inference pool once its model is due
        (the serving mode).  ``False`` is manual mode: the caller drives
        ``poll()`` / ``drain()`` and each flush runs inline on the
        calling thread — what the deterministic scheduler tests use.
    drain_timeout_s:
        Graceful-drain bound for :meth:`ModelServer.close`: how long
        (wall clock) a closing server keeps working its queues before
        shedding what remains as typed ``ServerBusy("server closed")``.
        ``None`` (the default) drains without a bound.
    slo_default_budget_s / slo_budgets:
        Per-model latency SLO: every served request's end-to-end
        latency is judged against its model's budget — ``slo_budgets``
        maps ``"architecture/scheme/xN"`` labels to budget seconds, with
        ``slo_default_budget_s`` covering undeclared models.  A request
        over budget counts in ``repro_serve_slo_breaches_total``; the
        p99-vs-budget state in ``stats()["slo"]`` and the
        ``repro_serve_slo_*`` gauges is read from the model's request
        latency histogram (lifetime, to bucket resolution — a scraper
        gets a windowed p99 from ``rate()`` over its buckets).
    """

    max_batch: int = 8
    max_models: int = 4
    max_queue_depth: int = 256
    cache_bytes: int = 64 << 20
    n_threads: Optional[int] = None
    dtype: Optional[str] = None
    background: bool = True
    drain_timeout_s: Optional[float] = None
    slo_default_budget_s: float = 0.5
    slo_budgets: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.n_threads is not None:
            check_num_threads(self.n_threads)
        if self.dtype is not None:
            check_dtype(self.dtype)
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_models < 1:
            raise ValueError("max_models must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.drain_timeout_s is not None and self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        if self.slo_default_budget_s <= 0:
            raise ValueError("slo_default_budget_s must be positive")
        for label, budget in (self.slo_budgets or {}).items():
            if budget <= 0:
                raise ValueError(f"slo budget for {label!r} must be positive")


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _serve_error(key: ModelKey, exc: Exception) -> ServeError:
    return ServeError(model=key, message=f"{type(exc).__name__}: {exc}")


def _handle_value(key: ModelKey, handle):
    """A settled pipeline handle's output, or a typed error for the
    exception of the forward that ran it."""
    try:
        return handle.result()
    except Exception as exc:
        return _serve_error(key, exc)


class ModelServer:
    """Serve every packed artifact in a directory; see module docstring.

    Parameters
    ----------
    artifact_dir:
        Directory of ``.npz`` deploy artifacts (scanned metadata-only;
        files that are not recipe-carrying artifacts, duplicate a zoo
        key, or classify as unpackable are recorded in ``skipped``).
    config:
        :class:`ServerConfig`; defaults serve small models well.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        artifact_dir,
        config: Optional[ServerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self._clock = clock
        self.metrics = MetricsRegistry()
        self._slo_budgets = {
            str(label): float(budget)
            for label, budget in (self.config.slo_budgets or {}).items()
        }
        self._request_seq = itertools.count()
        self.cache = ResultCache(self.config.cache_bytes)
        self._scheduler = MicroBatchScheduler(self.config.max_batch)
        infos, skipped = scan_artifact_dir(artifact_dir)
        #: ``(path, reason)`` for every file the scan or coverage
        #: classification refused to serve.
        self.skipped: List[Tuple] = list(skipped)
        self._catalog: Dict[ModelKey, ArtifactInfo] = {}
        self._coverage: Dict[ModelKey, DeployEntry] = {}
        for info in infos:
            entry = classify_recipe(info.recipe)
            if not entry.deployable:
                self.skipped.append(
                    (
                        info.path,
                        f"registry classifies {info.key} as coverage "
                        f"'none': {entry.detail}",
                    )
                )
                continue
            self._catalog[info.key] = info
            self._coverage[info.key] = entry
        if not self._catalog:
            raise ValueError(
                f"no servable deploy artifacts in {artifact_dir!s} "
                f"(skipped: {[str(p) for p, _ in self.skipped]})"
            )
        self._models: "OrderedDict[ModelKey, InferencePipeline]" = (
            OrderedDict())
        self._models_lock = threading.Lock()
        self._init_metrics()
        # In-flight coalescing: cache_key -> the QueuedRequest computing
        # it.  An identical request arriving while one is queued or
        # executing attaches its future instead of recomputing — the
        # thundering-herd guard in front of the result cache.
        self._inflight_by_key: Dict[str, QueuedRequest] = {}
        self._inflight_lock = threading.Lock()
        # Background flushes handed to the pool and not yet started, by
        # model (see _claim_flush).
        self._unstarted: Dict[ModelKey, List[QueuedRequest]] = {}
        self._unstarted_lock = threading.Lock()
        self._wake = threading.Condition()
        self._stopped = False

    # -- metrics -----------------------------------------------------------

    def _init_metrics(self) -> None:
        """Register the ``repro_serve_*`` families on ``self.metrics``.

        Each event is recorded once, inline, into one of these
        families; ``stats()``, ``report()`` and the SLO gauges are
        computed from them when read.  Point-in-time state (queue
        depth, loaded models, cache evictions) is published as
        scrape-time callbacks read from its owner.
        """
        metrics = self.metrics
        by_model = ("model",)
        self._m_requests = metrics.counter(
            "repro_serve_requests_total",
            "Requests admitted to the serving layer.",
            by_model,
        )
        self._m_responses = metrics.counter(
            "repro_serve_responses_total",
            "Requests resolved with an output array.",
            by_model,
        )
        self._m_shed = metrics.counter(
            "repro_serve_shed_total",
            "Requests refused by admission control.",
            ("model", "reason"),
        )
        self._m_errors = metrics.counter(
            "repro_serve_errors_total",
            "Requests resolved with a typed ServeError.",
            by_model,
        )
        self._m_cache = metrics.counter(
            "repro_serve_cache_total",
            "Result-cache lookups by outcome (hit/miss).",
            ("model", "outcome"),
        )
        self._m_coalesced = metrics.counter(
            "repro_serve_coalesced_total",
            "Requests that rode along on an identical in-flight one.",
            by_model,
        )
        self._m_latency = metrics.histogram(
            "repro_serve_request_latency_seconds",
            "End-to-end request latency (admission to resolution).",
            by_model,
        )
        metrics.summary(
            "repro_serve_model_latency_seconds",
            "Per-model request latency quantiles (p50/p95/p99).",
            of=self._m_latency,
        )
        self._m_flushes = metrics.counter(
            "repro_serve_flushes_total",
            "Micro-batch flushes dispatched, by reason (full/idle).",
            ("model", "reason"),
        )
        self._m_batches = metrics.counter(
            "repro_serve_batches_total",
            "Model forwards run by the inference pipelines.",
            by_model,
        )
        self._m_batch_images = metrics.counter(
            "repro_serve_batch_images_total",
            "Images run through model forwards.",
            by_model,
        )
        self._m_batch_latency = metrics.histogram(
            "repro_serve_batch_latency_seconds",
            "Model forward latency per micro-batch.",
            by_model,
        )
        self._m_loads = metrics.counter(
            "repro_serve_model_loads_total", "Lazy model loads performed."
        )
        self._m_load_latency = metrics.histogram(
            "repro_serve_model_load_seconds", "Lazy model load latency."
        )
        self._m_evictions = metrics.counter(
            "repro_serve_model_evictions_total",
            "Models evicted by the LRU bound.",
        )
        metrics.func(
            "repro_serve_queue_depth",
            "Requests admitted but not yet executing.",
            "gauge",
            lambda: self._scheduler.depth(),
        )
        metrics.func(
            "repro_serve_inflight_flushes",
            "Micro-batch flushes currently executing.",
            "gauge",
            lambda: self._scheduler.inflight(),
        )
        metrics.func(
            "repro_serve_loaded_models",
            "Models currently resident in the LRU registry.",
            "gauge",
            lambda: len(self.loaded_models()),
        )
        metrics.func(
            "repro_serve_available_models",
            "Servable models in the artifact catalog.",
            "gauge",
            lambda: len(self._catalog),
        )
        metrics.func(
            "repro_serve_cache_evictions_total",
            "Result-cache entries evicted by the byte budget.",
            "counter",
            lambda: self.cache.stats()["evictions"],
        )

        def _slo_series(field):
            def produce():
                return [
                    ({"model": label}, values[field])
                    for label, values in self._slo_state().items()
                ]

            return produce

        metrics.func(
            "repro_serve_slo_budget_seconds",
            "Declared latency budget per model.",
            "gauge",
            _slo_series("budget_s"),
        )
        metrics.func(
            "repro_serve_slo_p99_seconds",
            "Lifetime p99 request latency per model (bucket resolution).",
            "gauge",
            _slo_series("p99_s"),
        )
        metrics.func(
            "repro_serve_slo_burn_ratio",
            "Lifetime p99 divided by the declared budget (>1 = burning).",
            "gauge",
            _slo_series("burn_ratio"),
        )
        self._m_breaches = metrics.counter(
            "repro_serve_slo_breaches_total",
            "Individual requests that exceeded their model's budget.",
            by_model,
        )
        for key in self._catalog:
            # At 0 from the start, so breaches/responses rates exist.
            self._m_breaches.labels(model=key_str(key))

    def _slo_budget(self, label: str) -> float:
        return self._slo_budgets.get(label, self.config.slo_default_budget_s)

    def _slo_state(self) -> Dict[str, Dict]:
        """Per-model SLO state: p99 from the model's request latency
        histogram child, breaches from its exact counter."""
        state = {}
        for labels, child in self._m_latency.items():
            label = labels["model"]
            hist = child.snapshot()
            budget = self._slo_budget(label)
            p99 = hist.percentile(99.0)
            state[label] = {
                "budget_s": budget,
                "p99_s": p99,
                "burn_ratio": p99 / budget,
                "burning": p99 > budget,
                "breaches": self._m_breaches.total(model=label),
                "observed": hist.count,
            }
        return dict(sorted(state.items()))

    def _request_id(self) -> str:
        """Process-unique correlation id: ``"<pid hex>-<seq hex>"``."""
        return f"{os.getpid():x}-{next(self._request_seq):06x}"

    # -- catalog -----------------------------------------------------------

    @property
    def available_models(self) -> Tuple[ModelKey, ...]:
        """Every servable zoo key, sorted (loaded or not)."""
        return tuple(sorted(self._catalog))

    def model_info(self, model: Union[ModelKey, str]) -> ArtifactInfo:
        return self._catalog[self._resolve_key(model)]

    def coverage(self, model: Union[ModelKey, str]) -> DeployEntry:
        """The registry coverage classification backing this model."""
        return self._coverage[self._resolve_key(model)]

    def loaded_models(self) -> Tuple[ModelKey, ...]:
        with self._models_lock:
            return tuple(self._models)

    def _resolve_key(self, model: Union[ModelKey, str]) -> ModelKey:
        key = parse_model_key(model)
        if key not in self._catalog:
            raise KeyError(no_artifact_message(key, self._catalog))
        return key

    # -- model registry (lazy load, LRU) -----------------------------------

    def _batch_recorder(self, key: ModelKey) -> Callable[[int, float], None]:
        """The ``on_batch`` callable counting and timing one model's
        pipeline forwards in the registry."""
        label = key_str(key)
        batches = self._m_batches.labels(model=label)
        images = self._m_batch_images.labels(model=label)
        latency = self._m_batch_latency.labels(model=label)

        def on_batch(n_images: int, seconds: float) -> None:
            batches.inc()
            images.inc(n_images)
            latency.observe(seconds)

        return on_batch

    def _model(self, key: ModelKey) -> InferencePipeline:
        """The loaded pipeline for ``key``; the caller holds the
        thread's ``config.dtype`` scope, which the load runs under."""
        with self._models_lock:
            pipeline = self._models.get(key)
            if pipeline is not None:
                self._models.move_to_end(key)
                return pipeline
            t0 = time.monotonic()
            pipeline = InferencePipeline(
                str(self._catalog[key].path),
                batch_size=self.config.max_batch,
                n_threads=self.config.n_threads,
                on_batch=self._batch_recorder(key),
            )
            self._m_loads.inc()
            self._m_load_latency.observe(time.monotonic() - t0)
            self._models[key] = pipeline
            self._evict_over_bound(keep=key)
            return pipeline

    def _evict_over_bound(self, keep: ModelKey) -> None:
        """Drop LRU models over ``max_models`` (busy models are kept).

        An evicted model's pipeline is ``close()``'d, not just
        dereferenced: its packed weights and any queued handles are
        released immediately instead of leaking until the cycle
        collector happens to run (the same close-on-evict contract as
        the bulk-jobs :class:`repro.jobs.worker.EngineCache`).
        """
        while len(self._models) > self.config.max_models:
            for candidate in self._models:
                if candidate == keep:
                    continue
                if self._scheduler.inflight(candidate):
                    continue
                if self._scheduler.pending(candidate):
                    continue
                self._models.pop(candidate).close()
                self._m_evictions.inc()
                break
            else:
                return  # everything is busy: transiently over the bound

    # -- request path ------------------------------------------------------

    def _finish(
        self, future: ServeFuture, key: ModelKey, request_id: str, value,
        cache: Optional[str] = None, **seconds: float,
    ) -> ServeFuture:
        """Count, log and resolve one request outcome; returns ``future``.

        The one place a request's future resolves.  ``value`` is a
        :class:`ServerBusy` (counted as shed), a :class:`ServeError`
        (counted as an error) or the output array: a response, whose
        log line carries ``cache`` (``"hit"``, ``"miss"`` or
        ``"coalesced"``) and ``seconds``: ``total_s`` (admission to
        resolution, judged against the model's SLO budget) and, when a
        flush ran it, ``queue_s`` and ``exec_s``.
        """
        label = key_str(key)
        if isinstance(value, ServerBusy):
            self._m_shed.labels(model=label, reason=value.reason).inc()
            fields = {"outcome": "shed", "reason": value.reason,
                      "queue_depth": value.queue_depth}
        elif isinstance(value, ServeError):
            self._m_errors.labels(model=label).inc()
            fields = {"outcome": "error", "message": value.message}
        else:
            total = seconds["total_s"]
            self._m_responses.labels(model=label).inc()
            self._m_latency.labels(model=label).observe(total)
            if total > self._slo_budget(label):
                self._m_breaches.labels(model=label).inc()
            fields = {"outcome": "ok", "cache": cache}
            fields.update((k, round(v, 6)) for k, v in seconds.items())
        log_event(_LOG, "request", request_id=request_id, model=label,
                  **fields)
        future._resolve(value)
        return future

    def submit(
        self,
        image: np.ndarray,
        model: Union[ModelKey, str],
        request_id: Optional[str] = None,
    ) -> ServeFuture:
        """Admit one ``(H, W, C)`` image for ``model``; never blocks.

        Returns a :class:`ServeFuture` that resolves to the output
        array — immediately on a cache hit, after its model's next
        flush otherwise — or to :class:`ServerBusy` when the
        queue-depth bound sheds the request.  ``request_id`` is the
        correlation id stamped on this request's structured log lines
        (a front door passes its ``X-Request-Id`` through); the server
        assigns one when omitted.  The one-image case of
        :meth:`submit_many`.
        """
        return self._admit([image], model, [request_id])[0]

    def submit_many(
        self, images: Sequence[np.ndarray], model: Union[ModelKey, str]
    ) -> List[ServeFuture]:
        """Admit ``images`` for ``model`` together; never blocks.

        Returns one :class:`ServeFuture` per image, in order, resolved
        as :meth:`submit` resolves its one.  The images are queued in
        one scheduler call, so the next flush of an idle model takes
        them all.  Each is checked against ``max_queue_depth`` in order
        and one past the bound sheds as ``ServerBusy("queue full")``.
        An image that is not ``(H, W, C)`` raises ``ValueError`` before
        any image is queued.
        """
        return self._admit(images, model, [None] * len(images))

    def _admit(
        self,
        images: Sequence[np.ndarray],
        model: Union[ModelKey, str],
        request_ids: Sequence[Optional[str]],
    ) -> List[ServeFuture]:
        """Count, cache-check and queue ``images``; the admission path
        of :meth:`submit` and :meth:`submit_many`."""
        key = self._resolve_key(model)
        images = [np.asarray(image) for image in images]
        for image in images:
            if image.ndim != 3:
                raise ValueError(
                    f"expected an (H, W, C) image, got shape {image.shape}"
                )
        t0 = self._clock()
        label = key_str(key)
        futures: List[ServeFuture] = []
        queued: List[QueuedRequest] = []
        for image, request_id in zip(images, request_ids):
            future = ServeFuture()
            futures.append(future)
            if request_id is None:
                request_id = self._request_id()
            self._m_requests.labels(model=label).inc()
            if self._stopped:
                # Fast path: a server known to be closed refuses without
                # taking any lock.  (The authoritative check happens
                # again under the wake lock in _enqueue — this one is
                # advisory.)
                self._finish(future, key, request_id, ServerBusy(
                    key, "server closed", self._scheduler.depth()))
                continue
            cache_key = content_key(key, image)
            if self.config.cache_bytes:
                cached = self.cache.get(cache_key)
                if cached is not None:
                    self._m_cache.labels(model=label, outcome="hit").inc()
                    self._finish(future, key, request_id, cached, "hit",
                                 total_s=self._clock() - t0)
                    continue
                self._m_cache.labels(model=label, outcome="miss").inc()
            queued.append(QueuedRequest(
                image=image,
                cache_key=cache_key,
                future=future,
                enqueued_at=t0,
                model_key=key,
                request_id=request_id,
            ))
        if queued:
            self._enqueue(key, queued)
        return futures

    def _enqueue(self, key: ModelKey, requests: List[QueuedRequest]) -> None:
        """Queue ``requests`` for ``key`` in one scheduler call, then
        (background mode) dispatch ``key``; a request identical to one
        already queued or executing rides on it instead, and one past
        the depth bound sheds."""
        # Check-and-enqueue is atomic with respect to close(): the stop
        # flag is raised under the wake lock, so a submission either
        # lands in the queue *before* the flag goes up (and close()'s
        # final drain_queued sweep settles it) or observes the flag and
        # sheds here.  An unsynchronized check could pass, then enqueue
        # after the sweep — a future nothing would ever resolve.
        with self._wake:
            if self._stopped:
                for req in requests:
                    self._finish(req.future, key, req.request_id, ServerBusy(
                        key, "server closed", self._scheduler.depth()))
                return
            with self._inflight_lock:
                fresh, riders = [], 0
                for req in requests:
                    primary = self._inflight_by_key.setdefault(
                        req.cache_key, req)
                    if primary is req:
                        fresh.append(req)
                        continue
                    # Identical request already queued or executing:
                    # ride along on its computation instead of queueing
                    # a twin.  The rider keeps its own enqueue time so
                    # its latency is measured from *its* arrival.
                    primary.extra_futures.append(
                        (req.future, req.enqueued_at, req.request_id))
                    riders += 1
                admitted = self._scheduler.enqueue(
                    fresh, max_depth=self.config.max_queue_depth)
                refused = fresh[admitted:]
                for req in refused:
                    del self._inflight_by_key[req.cache_key]
        if admitted and self.config.background:
            self._dispatch(key)
        # A refused request's riders came with it, in this call: they
        # shed with it rather than count as coalesced.
        riders -= sum(len(req.extra_futures) for req in refused)
        if riders:
            self._m_coalesced.labels(model=key_str(key)).inc(riders)
        for req in refused:
            self._settle(req, ServerBusy(
                key, "queue full", self.config.max_queue_depth))

    def map(
        self, images: Sequence[np.ndarray], model: Union[ModelKey, str]
    ) -> List:
        """Submit ``images`` together and return their results in order."""
        return self.wait(self.submit_many(images, model))

    def __call__(
        self, image: np.ndarray, model: Union[ModelKey, str]
    ) -> np.ndarray:
        """Single-image convenience: submit + wait + result."""
        return self.map([image], model)[0]

    def wait(
        self, futures: Sequence[ServeFuture], timeout: float = 60.0
    ) -> List:
        """The values of ``futures`` (from :meth:`submit`), in order.

        Dispatches every idle model's queue and waits for these
        futures alone — not for the whole server to go idle, as
        :meth:`drain` does.  Between short waits it dispatches again,
        so a request held back by its model's flush in flight runs as
        soon as that flush ends, and it runs itself any dispatched
        flush no pool worker has started.  Raises ``TimeoutError`` once
        ``timeout`` seconds pass.
        """
        if not self._dispatch_until(
            lambda: all(future.done() for future in futures),
            time.monotonic() + timeout,
        ):
            raise TimeoutError("request not served within timeout")
        return [future.result() for future in futures]

    def _dispatch_until(
        self, settled: Callable[[], bool], deadline: Optional[float] = None
    ) -> bool:
        """Dispatch the idle models' queues until ``settled()``;
        returns whether it holds (``False`` once the monotonic
        ``deadline`` passes; ``None``: no bound).

        The one dispatch-and-wait loop of :meth:`wait`, :meth:`drain`
        and both phases of :meth:`close`: every flush ends by notifying
        the wake condition, and the wait is re-polled every
        ``_REPOLL_S`` besides.  The waiting thread is blocked anyway,
        so it runs each dispatched flush no pool worker has started:
        with every worker busy (the one worker at a thread count of 1)
        a caller's model never waits behind another model's flush.
        """
        while not settled():
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                return False
            self.poll()
            with self._unstarted_lock:
                unstarted = list(self._unstarted.items())
            for key, requests in unstarted:
                self._claim_flush(key, requests)
            with self._wake:
                if not settled():
                    self._wake.wait(timeout=_REPOLL_S if remaining is None
                                    else min(_REPOLL_S, remaining))
        return True

    # -- execution ---------------------------------------------------------

    def poll(self) -> int:
        """Dispatch a flush of every idle model with queued work;
        returns the count.

        In manual mode (``background=False``) the test/caller drives
        it, and each flush runs inline: the dispatched work has settled
        when ``poll`` returns, whatever the thread count.  A background
        server starts each flush when its model becomes due, so there
        ``poll`` finds only what a racing dispatch has not yet taken.
        """
        return sum(self._dispatch(key) for key in self._scheduler.due_keys())

    def _dispatch(self, key: ModelKey) -> bool:
        """The one place a flush starts: take ``key``'s queue if its
        model is idle (racing callers start at most one flush) and hand
        it to the pool (:meth:`_claim_flush`), or run it inline in
        manual mode; returns whether one started, never once the server
        is stopped."""
        if self._stopped:
            return False
        taken, reason = self._scheduler.take(key)
        if not taken:
            return False
        self._m_flushes.labels(model=key_str(key), reason=reason).inc()
        if self.config.background:
            with self._unstarted_lock:
                self._unstarted[key] = taken
            submit_task(self._claim_flush, key, taken)
        else:
            self._run_flush(key, taken)
        return True

    def _claim_flush(
        self, key: ModelKey, requests: List[QueuedRequest]
    ) -> None:
        """Run a background flush unless another thread claimed it: its
        pool task, or a caller blocked in :meth:`_dispatch_until`."""
        with self._unstarted_lock:
            if self._unstarted.get(key) is not requests:
                return
            del self._unstarted[key]
        self._run_flush(key, requests)

    def _settle(
        self,
        req: QueuedRequest,
        value,
        started: float = 0.0,
        done: float = 0.0,
    ) -> None:
        """Settle ``req`` and every rider coalesced onto it with
        ``value`` (an output, :class:`ServerBusy` or :class:`ServeError`).

        An output is cached first, then ``req`` leaves the coalescing
        map: a new identical submission hits the cache or starts a
        fresh computation, so no future attaches to a settled request.
        Riders get their own copy of an output, and each request's
        latency runs from its own arrival to ``done``, split at the
        flush's ``started``.
        """
        served = isinstance(value, np.ndarray)
        if served and self.config.cache_bytes:
            self.cache.put(req.cache_key, value)
        with self._inflight_lock:
            if self._inflight_by_key.get(req.cache_key) is req:
                del self._inflight_by_key[req.cache_key]
            owners = [(req.future, req.enqueued_at, req.request_id)]
            owners += req.extra_futures
        for i, (future, arrived, request_id) in enumerate(owners):
            if not served:
                self._finish(future, req.model_key, request_id, value)
                continue
            # A caller mutating its result in place must never corrupt
            # another caller's.
            self._finish(
                future, req.model_key, request_id,
                value if i == 0 else value.copy(),
                "coalesced" if i else "miss",
                total_s=max(0.0, done - arrived),
                queue_s=max(0.0, started - arrived),
                exec_s=max(0.0, done - started),
            )

    def _run_flush(self, key: ModelKey, requests: List[QueuedRequest]) -> None:
        """Run ``requests`` as one pipeline flush and settle every one.

        Each resolves from its own handle: the output, or a typed error
        for the forward that failed it.  When loading the model,
        queueing or flushing raises outside a forward, each resolves to
        a typed error naming that exception.  The model's scheduler
        key is released whatever raises, and a background flush then
        dispatches the model again.  It runs under ``config.dtype`` or
        the process default, never the dispatching thread's override.
        """
        started = self._clock()
        dtype = self.config.dtype
        if dtype is None:
            dtype = process_default_dtype()
        try:
            try:
                with thread_default_dtype(dtype):
                    pipeline = self._model(key)
                    handles = [pipeline.submit(req.image) for req in requests]
                    pipeline.flush()
            except Exception as exc:
                values = [_serve_error(key, exc)] * len(requests)
            else:
                values = [_handle_value(key, handle) for handle in handles]
            done = self._clock()
            for req, value in zip(requests, values):
                self._settle(req, value, started, done)
        finally:
            # Release first: a request admitted while this flush ran
            # found its model busy, and this dispatch is what takes it.
            self._scheduler.release(key)
            if self.config.background:
                self._dispatch(key)
            with self._wake:
                self._wake.notify_all()

    def drain(self) -> None:
        """Flush everything queued; block until idle."""
        self._dispatch_until(self._scheduler.idle)

    def pending(self) -> int:
        """Requests admitted but not yet executing."""
        return self._scheduler.depth()

    # -- observability / lifecycle -----------------------------------------

    def stats(self) -> Dict:
        """Machine-readable snapshot, computed from ``self.metrics``.

        ``counters`` are family totals summed over labels; ``latency``
        folds each histogram's children into one
        (:meth:`~repro.serve.metrics.LatencyHistogram.snapshot` fields);
        ``derived`` rates are ``None`` until their inputs exist:
        ``cache_hit_rate = cache_hits / (cache_hits + cache_misses)``,
        ``shed_rate = shed / requests`` and ``batch_occupancy =
        batch_images / (batches * max_batch)``.  ``slo`` maps each
        served model to its budget, p99, burn state and breaches.
        """
        counters = {
            "requests": self._m_requests.total(),
            "responses": self._m_responses.total(),
            "shed": self._m_shed.total(),
            "errors": self._m_errors.total(),
            "coalesced": self._m_coalesced.total(),
            "cache_hits": self._m_cache.total(outcome="hit"),
            "cache_misses": self._m_cache.total(outcome="miss"),
            "model_loads": self._m_loads.total(),
            "model_evictions": self._m_evictions.total(),
            "batches": self._m_batches.total(),
            "batch_images": self._m_batch_images.total(),
        }
        for reason in ("full", "idle"):
            counters[f"flush_{reason}"] = self._m_flushes.total(reason=reason)
        hits, misses = counters["cache_hits"], counters["cache_misses"]
        return {
            "counters": counters,
            "latency": {
                "request_latency": self._m_latency.merged().snapshot(),
                "batch_seconds": self._m_batch_latency.merged().snapshot(),
                "load_seconds": self._m_load_latency.merged().snapshot(),
            },
            "derived": {
                "cache_hit_rate": _ratio(hits, hits + misses),
                "shed_rate": _ratio(counters["shed"], counters["requests"]),
                "batch_occupancy": _ratio(
                    counters["batch_images"],
                    counters["batches"] * self.config.max_batch,
                ),
            },
            "cache": self.cache.stats(),
            "slo": self._slo_state(),
            "server": {
                "available_models": len(self._catalog),
                "loaded_models": len(self.loaded_models()),
                "queue_depth": self._scheduler.depth(),
                "inflight": self._scheduler.inflight(),
                "skipped_artifacts": len(self.skipped),
                # Surfaced for front doors (the HTTP gateway reports
                # it): how many requests rode along on an identical
                # in-flight computation instead of occupying queue
                # depth.
                "coalesced": counters["coalesced"],
            },
        }

    def report(self) -> str:
        """Plain-text operational report, rendered from :meth:`stats`."""
        stats = self.stats()
        lines = ["serve telemetry", "  counters:"]
        for name, value in sorted(stats["counters"].items()):
            lines.append(f"    {name:<18} {value}")
        lines.append("  latency (ms):")
        for name, snap in sorted(stats["latency"].items()):
            if snap["count"]:
                lines.append(
                    f"    {name:<18} n={snap['count']:<7} "
                    f"p50={snap['p50_ms']:.3f} p95={snap['p95_ms']:.3f} "
                    f"p99={snap['p99_ms']:.3f} max={snap['max_ms']:.3f}"
                )
        lines.append("  derived:")
        for name, value in sorted(stats["derived"].items()):
            rendered = "n/a" if value is None else f"{value:.3f}"
            lines.append(f"    {name:<18} {rendered}")
        lines.append("  cache:")
        for name in ("entries", "current_bytes", "max_bytes", "evictions"):
            lines.append(f"    {name:<18} {stats['cache'][name]}")
        lines.append("  server:")
        for name, value in sorted(stats["server"].items()):
            lines.append(f"    {name:<18} {value}")
        loaded = set(self.loaded_models())
        lines.append("  models:")
        for key in self.available_models:
            state = "loaded" if key in loaded else "cold"
            lines.append(
                f"    {key_str(key):<24} {state:<7} "
                f"coverage={self._coverage[key].coverage}"
            )
        return "\n".join(lines)

    def close(self, drain: bool = True) -> None:
        """Stop serving gracefully: settle admitted work, then refuse.

        With ``drain=True`` the server first works its queues —
        in-flight flushes and queued requests settle normally —
        *before* the stop flag goes up, bounded by
        ``config.drain_timeout_s`` (``None``: unbounded).
        Once the deadline passes (or immediately with ``drain=False``)
        the flag is raised, which stops dispatch, and everything still
        queued is resolved as a typed ``ServerBusy("server closed")`` —
        a closing server never strands a future, whatever state it is
        in.  Idempotent.
        """
        timeout = self.config.drain_timeout_s
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        if drain and not self._stopped:
            # Graceful phase: settle in-flight flushes and queued work
            # before raising the stop flag, so a clean shutdown looks
            # like a drain, not a shed.
            self._dispatch_until(self._scheduler.idle, deadline)
        with self._wake:
            already_stopped = self._stopped
            self._stopped = True
            self._wake.notify_all()
        if already_stopped:
            return
        # Past the deadline (or an undrained close): shed everything
        # still queued with a typed refusal instead of stranding it.
        for req in self._scheduler.drain_queued():
            self._settle(req, ServerBusy(req.model_key, "server closed", 0))
        if drain:
            # In-flight flushes settle their own requests; give them a
            # bounded window to finish so close() returning means every
            # admitted future is resolved in the common case.
            now = time.monotonic()
            self._dispatch_until(
                lambda: not self._scheduler.inflight(),
                (now if deadline is None else max(now, deadline)) + 5.0,
            )
        # Release the loaded models once nothing is executing: the same
        # close-on-evict contract the LRU applies, at end of life.  If
        # a flush is somehow still running past the settle window the
        # pipelines are left alone (it resolves its own futures).
        if not self._scheduler.inflight():
            with self._models_lock:
                released, self._models = list(self._models.values()), (
                    OrderedDict())
            for pipeline in released:
                pipeline.close()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close(drain=False)
        except Exception:
            pass
