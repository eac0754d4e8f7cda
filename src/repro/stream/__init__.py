"""Video super-resolution streaming.

Turns the single-image serving stack into a temporal workload:
ordered per-stream sessions over ``ServeSession``/``ModelServer``,
cross-frame tile reuse via content-hashed tile deltas, and
frame-deadline policies (``drop-late`` vs ``best-effort``) decided by
the stream itself; a frame's dirty tiles reach the server's
micro-batcher together.  Entry points:

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

from .deadline import BEST_EFFORT, DROP_LATE, POLICIES, DeadlinePolicy
from .delta import FrameDelta, plan_frame_delta
from .results import FrameDropped, FrameResult, StreamError
from .session import StreamConfig, StreamSession
from .video import dirty_fraction, synthetic_clip

__all__ = [
    "BEST_EFFORT",
    "DROP_LATE",
    "POLICIES",
    "DeadlinePolicy",
    "FrameDelta",
    "FrameDropped",
    "FrameResult",
    "StreamConfig",
    "StreamError",
    "StreamSession",
    "dirty_fraction",
    "plan_frame_delta",
    "synthetic_clip",
]
