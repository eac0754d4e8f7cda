"""repro.api — the typed public front door to the whole system.

One coherent surface over the five execution layers that grew under it
(``models`` -> ``deploy`` -> ``infer`` -> ``serve``):

* :class:`ModelSpec` — declarative, validated description of a zoo
  cell (architecture, scheme, scale, preset, overrides);
* :class:`EngineConfig` — the engine's execution settings (threads,
  dtype, seed, batch size, tiling) in one typed object; serving
  settings live in :class:`repro.serve.ServerConfig` alone;
* :class:`Engine` — the lifecycle facade:
  ``from_spec -> train -> compile -> export`` and
  ``from_artifact -> infer / infer_many / serve``;
* :class:`InferRequest` / :class:`InferResult` / :class:`EngineError`
  — shared typed request/result objects: a direct engine call and a
  model-server round-trip return the same result type;
* :class:`Capability` / :func:`capability` / :func:`capability_matrix`
  — the merged registry answering "can this cell compile, export,
  serve?" before any work happens;
* :class:`ServeSession` / :func:`serve_directory` — typed serving
  over a packed-artifact zoo;
* :func:`configure_logging` / :func:`log_event` — process-wide
  structured JSON logging for every ``repro.*`` layer (one JSON
  object per line; the serving stack's per-request events use it).

The legacy entry points remain supported as the low-level layer this
facade drives (see the README's Public API table); new cross-layer
features land here first.
"""

from .capabilities import Capability, capability, capability_matrix
from .config import EngineConfig
from .engine import Engine
from .logs import configure_logging, log_event
from .results import EngineError, InferRequest, InferResult
from .serving import ServeSession, ServeTicket, serve_directory
from .spec import ModelSpec

__all__ = [
    "Capability",
    "Engine",
    "EngineConfig",
    "EngineError",
    "InferRequest",
    "InferResult",
    "ModelSpec",
    "ServeSession",
    "ServeTicket",
    "capability",
    "capability_matrix",
    "configure_logging",
    "log_event",
    "serve_directory",
]
