"""Video super-resolution streaming.

Turns the single-image serving stack into a temporal workload:
ordered per-stream sessions over ``ServeSession``/``ModelServer``,
cross-frame tile reuse via content-hashed tile deltas against a
per-stream ``ResultCache``, and frame-deadline policies
(``drop-late`` vs ``best-effort``) read from ``StreamConfig`` and
decided by the stream itself.  A frame's dirty tiles reach the
server's micro-batcher together and are waited for through the
server's ``wait()``; tile counts live in the metrics registry.
Entry points:

* :meth:`repro.api.Engine.stream` — open a stream over an engine's
  exported artifact.
* :class:`StreamSession` — the session itself, for callers holding a
  serving surface already.
* :func:`synthetic_clip` — deterministic clips with a controllable
  static-region fraction, for tests and the sustained-FPS bench.

The whole subsystem is gated on bit-parity: a streamed clip with
tile reuse enabled is frame-for-frame bit-identical to one-shot
``Engine.infer``.
"""

from .delta import FrameDelta, plan_frame_delta
from .results import FrameDropped, FrameResult, StreamError
from .session import (
    BEST_EFFORT,
    DROP_LATE,
    POLICIES,
    StreamConfig,
    StreamSession,
)
from .video import synthetic_clip

__all__ = [
    "BEST_EFFORT",
    "DROP_LATE",
    "POLICIES",
    "FrameDelta",
    "FrameDropped",
    "FrameResult",
    "StreamConfig",
    "StreamError",
    "StreamSession",
    "plan_frame_delta",
    "synthetic_clip",
]
