"""`ServeSession`: the facade's handle on a running model server.

:class:`repro.serve.ModelServer` resolves its futures to bare arrays or
server-side marker types (``ServerBusy`` / ``ServeError``).  A
:class:`ServeSession` wraps a server so every outcome comes back as the
shared :class:`repro.api.InferResult` — the same type
:meth:`repro.api.Engine.infer` returns — making "talk to a pipeline"
and "talk to a server" interchangeable to calling code.
:class:`ServeTicket` is that typed view of one server future; the
server still counts, logs and resolves every request itself.  A
:class:`repro.stream.StreamSession` given a session unwraps it and
sends its tiles straight to ``session.server``.

Sessions are created by :meth:`repro.api.Engine.serve` (serve this
engine's artifact) or :func:`serve_directory` (serve a whole artifact
zoo).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..serve.server import ModelServer, ServerConfig
from .results import EngineError, InferRequest, InferResult

__all__ = ["ServeSession", "ServeTicket", "serve_directory"]

ModelKey = Tuple[str, str, int]


class ServeTicket:
    """Handle for one in-flight served request; ``result()`` blocks and
    returns a typed :class:`InferResult` (never a raw marker type)."""

    __slots__ = ("_future", "_model")

    def __init__(self, future, model: ModelKey) -> None:
        self._future = future
        self._model = model

    @property
    def model(self) -> ModelKey:
        return self._model

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> InferResult:
        return InferResult.from_serve_value(
            self._future.result(timeout), self._model)


class ServeSession:
    """Typed facade over one :class:`repro.serve.ModelServer`.

    Use as a context manager; the underlying server (``.server``)
    remains reachable for telemetry and low-level control.
    """

    def __init__(self, server, default_model: Optional[ModelKey] = None
                 ) -> None:
        self.server = server
        self.default_model = default_model

    @classmethod
    def over_directory(cls, artifact_dir,
                       config: Optional[ServerConfig] = None,
                       default_model: Optional[ModelKey] = None
                       ) -> "ServeSession":
        """Serve every packed artifact in a directory (lazy LRU zoo)
        under ``config`` (``None``: ``ServerConfig()``)."""
        return cls(ModelServer(artifact_dir, config),
                   default_model=default_model)

    # -- request path ------------------------------------------------------

    @property
    def available_models(self) -> Tuple[ModelKey, ...]:
        return self.server.available_models

    def _resolve(self, model) -> ModelKey:
        from ..serve.server import parse_model_key
        if model is None:
            model = self.default_model
        if model is None:
            raise EngineError(
                "no model given and this session has no default; pass "
                "model=... (a zoo key or 'arch/scheme/xN' route)")
        return parse_model_key(model)

    def submit(self, image: Union[np.ndarray, InferRequest], model=None
               ) -> ServeTicket:
        """Admit one image (or :class:`InferRequest`); never blocks.

        Shed and failed requests resolve as typed ``"busy"`` /
        ``"error"`` results on the returned ticket, exactly like the
        engine's direct path reports them.
        """
        if isinstance(image, InferRequest):
            model = model if model is not None else image.model
            image = image.image
        key = self._resolve(model)
        return ServeTicket(self.server.submit(np.asarray(image), key), key)

    def infer(self, image: Union[np.ndarray, InferRequest],
              model=None) -> InferResult:
        """Submit one image and block for its typed result."""
        return self.infer_many([image], model=model)[0]

    def infer_many(self, images: Sequence[Union[np.ndarray, InferRequest]],
                   model=None, timeout: float = 60.0) -> List[InferResult]:
        """Submit a batch and return its typed results in order.

        Waits for these requests only (:meth:`ModelServer.wait`), not
        for other clients' work on the same server."""
        tickets = [self.submit(img, model=model) for img in images]
        self.server.wait([t._future for t in tickets], timeout)
        return [t.result() for t in tickets]

    # -- observability / lifecycle -----------------------------------------

    def stats(self):
        return self.server.stats()

    def report(self) -> str:
        return self.server.report()

    def close(self, drain: bool = True) -> None:
        self.server.close(drain=drain)

    def __enter__(self) -> "ServeSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)


def serve_directory(artifact_dir, config: Optional[ServerConfig] = None,
                    default_model: Optional[ModelKey] = None) -> ServeSession:
    """Serve an artifact zoo directory through the typed facade
    (alias of :meth:`ServeSession.over_directory`)."""
    return ServeSession.over_directory(artifact_dir, config,
                                       default_model=default_model)
