"""Multi-model serving layer over packed deploy artifacts.

The production half of the deployment story: PRs 1-3 produced fast
packed kernels, a micro-batching :class:`repro.infer.InferencePipeline`
and one-file ``.npz`` deploy artifacts; this package turns a directory
of those artifacts into a *server* —

* :mod:`repro.serve.server`    — :class:`ModelServer`: lazy LRU-bounded
  multi-model registry keyed by ``(architecture, scheme, scale)``,
  admission control with typed :class:`ServerBusy` shedding, and the
  one dispatch that hands a due model's flush to the inference pool;
* :mod:`repro.serve.scheduler` — work-conserving micro-batch policy:
  per-model queues, each due whenever it holds work and its model has
  no flush in flight (a model runs one flush at a time);
* :mod:`repro.serve.cache`     — content-hash result cache with
  byte-size LRU eviction (repeat inputs never touch the engine); a
  video stream keeps one more as its tile store;
* :mod:`repro.serve.metrics`   — the one metrics store: a
  Prometheus-style :class:`MetricsRegistry` of counters and
  log-bucketed latency histograms (:class:`LatencyHistogram`) that the
  server, streams, the jobs runner and the HTTP gateway record into,
  with exposition text, cross-process merging and a format lint.
  ``stats()``, ``report()`` and per-model SLO burn state are computed
  from it when read.

Served outputs are bit-identical to direct ``InferencePipeline`` runs
of the same artifact — scheduling, batching and caching are execution
-strategy details, never numerics.
"""

from .cache import ResultCache, content_key
from .metrics import (
    BUCKET_BOUNDS,
    EXPOSITION_CONTENT_TYPE,
    LatencyHistogram,
    MetricsRegistry,
    families_from_dump,
    lint_exposition,
    render_families,
)
from .scheduler import MicroBatchScheduler, QueuedRequest
from .server import (
    ModelKey,
    ModelServer,
    ServeError,
    ServeFuture,
    ServerBusy,
    ServerConfig,
    parse_model_key,
)

__all__ = [
    "ResultCache",
    "content_key",
    "EXPOSITION_CONTENT_TYPE",
    "MetricsRegistry",
    "families_from_dump",
    "lint_exposition",
    "render_families",
    "MicroBatchScheduler",
    "QueuedRequest",
    "ModelKey",
    "ModelServer",
    "ServeError",
    "ServeFuture",
    "ServerBusy",
    "ServerConfig",
    "parse_model_key",
    "BUCKET_BOUNDS",
    "LatencyHistogram",
]
