"""Shared typed request/result objects for every inference surface.

Before the facade, each entry layer had its own conventions: a direct
:class:`repro.infer.InferencePipeline` call returned a bare array or
raised, while a :class:`repro.serve.ModelServer` round-trip resolved to
an array, a :class:`repro.serve.ServerBusy` shed marker, or a
:class:`repro.serve.ServeError` — types that existed only server-side.
This module is the common vocabulary:

* :class:`InferRequest` — one image plus optional routing (model key);
* :class:`InferResult` — the one result type **every** path returns:
  ``Engine.infer`` and a served round-trip produce the same object for
  the same outcome, so calling code handles overload and failure
  identically whether it talks to a pipeline or a server;
* :class:`EngineError` — the facade's exception for *misuse* (invalid
  spec, wrong lifecycle state, undeployable cell).  Execution failures
  during inference are **not** raised: they come back as ``status ==
  "error"`` results, exactly like the server's typed failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

import numpy as np

__all__ = ["EngineError", "InferRequest", "InferResult"]

#: ``(architecture, scheme, scale)`` — the zoo model key.
ModelKey = Tuple[str, str, int]


class EngineError(RuntimeError):
    """A facade-level usage error (bad spec, lifecycle misuse,
    undeployable cell).  Carries a human-readable explanation; the
    capability registry's detail string is included when the error is a
    coverage refusal."""


@dataclass(frozen=True, eq=False)
class InferRequest:
    """One inference request, addressable to any execution surface.

    ``model`` may be ``None`` (the engine / session default applies), a
    zoo key tuple, or a route string like ``"srresnet/scales/x2"``.
    """

    image: np.ndarray
    model: Optional[Union[ModelKey, str]] = None


@dataclass(frozen=True, eq=False)
class InferResult:
    """The one typed inference outcome, shared by every surface.

    (``eq`` is disabled: results hold arrays, so compare ``status`` /
    ``np.array_equal(a.image, b.image)`` explicitly.)

    ``status`` is one of:

    ``"ok"``
        ``image`` holds the super-resolved output.
    ``"busy"``
        Admission control shed the request (serving only);
        ``detail`` carries the reason (e.g. ``"queue full"``).
    ``"error"``
        Execution failed; ``detail`` is the exception summary.  The
        direct path reports failures this way too, mirroring the
        server's :class:`repro.serve.ServeError` semantics.
    """

    status: str
    model: Optional[ModelKey] = None
    image: Optional[np.ndarray] = field(default=None, repr=False)
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("ok", "busy", "error"):
            raise ValueError(
                f"status must be 'ok', 'busy' or 'error', got {self.status!r}")
        if self.status == "ok" and self.image is None:
            raise ValueError("an 'ok' result needs an image")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def unwrap(self) -> np.ndarray:
        """The output image; raises :class:`EngineError` otherwise."""
        if self.status != "ok":
            raise EngineError(
                f"inference on {self.model} resolved {self.status}: "
                f"{self.detail or '(no detail)'}")
        return self.image

    @classmethod
    def success(cls, image: np.ndarray,
                model: Optional[ModelKey] = None) -> "InferResult":
        return cls(status="ok", model=model, image=np.asarray(image))

    @classmethod
    def busy(cls, model: Optional[ModelKey], reason: str) -> "InferResult":
        return cls(status="busy", model=model, detail=reason)

    @classmethod
    def failure(cls, model: Optional[ModelKey], message: str) -> "InferResult":
        return cls(status="error", model=model, detail=message)

    @classmethod
    def from_serve_value(cls, value: Any,
                         model: Optional[ModelKey] = None) -> "InferResult":
        """Map a :class:`repro.serve.ServeFuture` value onto the shared
        result type (array, ``ServerBusy`` or ``ServeError``)."""
        from ..serve.server import ServeError, ServerBusy
        if isinstance(value, ServerBusy):
            return cls.busy(value.model, value.reason)
        if isinstance(value, ServeError):
            return cls.failure(value.model, value.message)
        return cls.success(value, model)
