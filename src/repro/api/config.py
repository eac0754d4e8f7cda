"""`EngineConfig`: the engine's execution settings in one typed object.

Serving settings live in :class:`repro.serve.ServerConfig` alone;
:meth:`EngineConfig.to_server_config` carries the three the two share
(``batch_size`` as ``max_batch``, ``n_threads`` and ``dtype``).  Each
field is checked when the config is built, by the rule of the code that
applies it (:func:`repro.infer.parallel.check_num_threads`,
:func:`repro.grad.check_dtype` and
:func:`repro.infer.tiling.check_tile_geometry`).  Outputs are always
clipped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ContextManager, Optional

from ..grad import check_dtype, thread_default_dtype
from ..infer.parallel import check_num_threads
from ..infer.tiling import check_tile_geometry
from ..serve.server import ServerConfig

__all__ = ["EngineConfig"]


@dataclass
class EngineConfig:
    """Every execution knob of :class:`repro.api.Engine`, in one place.

    Parameters
    ----------
    n_threads:
        Inference worker threads (``None`` = the process default, read
        when the engine runs; see :func:`repro.infer.get_num_threads`).
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
        tiled path with this LR tile size, and ``0 <= tile_overlap <
        tile`` must hold.  This is the only place tiling is set: deploy
        artifacts carry none.
    """

    n_threads: Optional[int] = None
    dtype: Optional[str] = None
    seed: Optional[int] = None
    batch_size: int = 8
    tile: Optional[int] = None
    tile_overlap: int = 8

    def __post_init__(self) -> None:
        if self.n_threads is not None:
            check_num_threads(self.n_threads)
        if self.dtype is not None:
            check_dtype(self.dtype)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.tile is not None:
            check_tile_geometry(self.tile, self.tile_overlap)

    def scope(self) -> ContextManager[None]:
        """Run the calling thread under this config's ``dtype`` (when
        set) for the duration; other threads are unaffected."""
        return thread_default_dtype(self.dtype)

    def to_server_config(self) -> ServerConfig:
        """The :class:`repro.serve.ServerConfig` ``Engine.serve`` uses
        when given none: ``max_batch=batch_size``, this ``n_threads``
        and ``dtype``, and ``ServerConfig``'s defaults for the rest.

        ``dtype`` rides along: the server applies it as the same
        thread-scoped override around model loads and flushes, so
        ``Engine.serve`` is bit-identical to ``Engine.infer`` under a
        non-default dtype.
        """
        return ServerConfig(max_batch=self.batch_size,
                            n_threads=self.n_threads, dtype=self.dtype)
