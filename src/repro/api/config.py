"""`EngineConfig`: every execution knob of the engine in one typed object.

The thread count lives in ``REPRO_NUM_THREADS`` / ``set_num_threads``,
tiling and batch size in per-callsite kwargs, and the serving knobs in
:class:`repro.serve.ServerConfig`; :class:`EngineConfig` holds all of
them.  Its one environment-backed field follows a single documented
precedence rule:

    **explicit argument > ``REPRO_*`` environment variable > default**

The environment is read once, at construction; :meth:`source` reports
where the value came from (``"arg"`` / ``"env"`` / ``"default"``), so a
surprising setting can be traced to its origin.

============== ======================= ==========================
field           environment variable    default
============== ======================= ==========================
n_threads       ``REPRO_NUM_THREADS``   ``None`` (= cpu count)
============== ======================= ==========================

The remaining fields are plain typed defaults — execution strategy
(``batch_size``, ``tile``, ``dtype``, ``seed``) and the serving knobs
mirrored into :class:`repro.serve.ServerConfig` by
:meth:`to_server_config`.  Outputs are always clipped to [0, 1].
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Any, Callable, ContextManager, Dict, Optional, Tuple

from ..grad import thread_default_dtype

__all__ = ["EngineConfig"]


def _positive_int(value: Any) -> int:
    value = int(value)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


#: env-backed fields: name -> (variable, default, parser)
_ENV_FIELDS: Dict[str, Tuple[str, Any, Callable[[Any], Any]]] = {
    "n_threads": ("REPRO_NUM_THREADS", None, _positive_int),
}


@dataclass
class EngineConfig:
    """Every execution knob of :class:`repro.api.Engine`, in one place.

    The environment-backed field (see module docstring) accepts
    ``None`` to mean "unset": the ``REPRO_*`` variable is consulted,
    then the default.  An explicit value always wins and is validated
    the same way the environment value would be.

    Parameters
    ----------
    n_threads:
        Inference worker threads (``None`` = auto, see
        :func:`repro.infer.get_num_threads`).
    dtype:
        When set (e.g. ``"float32"``), every engine operation runs
        under this default dtype, applied as a thread-scoped override
        (:func:`repro.grad.thread_default_dtype`) that the inference
        pool carries into its workers.  The process-wide default is
        never touched, so engines with different dtypes can run
        concurrently.
    seed:
        When set, ``Engine.from_spec`` seeds the RNG before building,
        so weight initialization is reproducible.
    batch_size:
        Images per micro-batch on the inference path, the most tiles
        per forward on the tiled path; also the serving ``max_batch``.
    tile / tile_overlap:
        When ``tile`` is set, engine inference runs the bounded-memory
        tiled path with this LR tile size.  This is the only place
        tiling is set: deploy artifacts carry none.
    latency_budget_s / max_models / max_queue_depth /
    max_inflight_per_model / cache_bytes / background / poll_interval_s:
        Serving knobs, passed to :class:`repro.serve.ServerConfig` by
        :meth:`to_server_config`.
    """

    n_threads: Optional[int] = None

    dtype: Optional[str] = None
    seed: Optional[int] = None
    batch_size: int = 8
    tile: Optional[int] = None
    tile_overlap: int = 8

    latency_budget_s: float = 0.02
    max_models: int = 4
    max_queue_depth: int = 256
    max_inflight_per_model: int = 1
    cache_bytes: int = 64 << 20
    background: bool = True
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        self._sources: Dict[str, str] = {}
        for name, (variable, default, parse) in _ENV_FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                source = "arg"
            else:
                env = os.environ.get(variable)
                if env is not None and env != "":
                    value, source = env, "env"
                else:
                    value, source = default, "default"
            if value is not None:
                try:
                    value = parse(value)
                except (TypeError, ValueError) as exc:
                    origin = (f"environment variable {variable}"
                              if source == "env" else f"field {name!r}")
                    raise ValueError(f"invalid {origin}: {exc}") from exc
            setattr(self, name, value)
            self._sources[name] = source
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.tile is not None and self.tile < 1:
            raise ValueError(f"tile must be >= 1, got {self.tile}")

    def source(self, name: str) -> str:
        """Where an env-backed field's value came from:
        ``"arg"`` | ``"env"`` | ``"default"``."""
        if name not in _ENV_FIELDS:
            raise KeyError(
                f"{name!r} is not an environment-backed field; one of "
                f"{sorted(_ENV_FIELDS)}")
        return self._sources[name]

    def scope(self) -> ContextManager[None]:
        """Run the calling thread under this config's ``dtype`` (when
        set) for the duration; other threads are unaffected."""
        return thread_default_dtype(self.dtype)

    def to_server_config(self):
        """The :class:`repro.serve.ServerConfig` these knobs map onto.

        ``dtype`` rides along: the server applies it as the same
        thread-scoped override around model loads and flushes, so
        ``Engine.serve`` is bit-identical to ``Engine.infer`` under a
        non-default dtype.
        """
        from ..serve.server import ServerConfig
        return ServerConfig(
            latency_budget_s=self.latency_budget_s,
            max_batch=self.batch_size,
            max_models=self.max_models,
            max_queue_depth=self.max_queue_depth,
            max_inflight_per_model=self.max_inflight_per_model,
            cache_bytes=self.cache_bytes,
            n_threads=self.n_threads,
            dtype=self.dtype,
            background=self.background,
            poll_interval_s=self.poll_interval_s)

    def describe(self) -> str:
        """One line per field: value, and provenance where env-backed."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            provenance = (f"  ({self._sources[f.name]})"
                          if f.name in _ENV_FIELDS else "")
            lines.append(f"{f.name:<22} {value!r}{provenance}")
        return "\n".join(lines)
