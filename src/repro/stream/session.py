"""Ordered per-stream video SR sessions with cross-frame tile reuse.

A :class:`StreamSession` sits on top of a single-image serving surface
(:class:`~repro.serve.server.ModelServer`, a
:class:`~repro.api.serving.ServeSession` — unwrapped to its server
once, at construction — or anything duck-typed like a server) and
turns it into a *video* surface:

* **Ordering.**  Frames carry monotonically increasing sequence
  numbers and results are delivered strictly in-sequence per stream,
  no matter how the underlying scheduler batches, coalesces or
  reorders the tile requests.  A dedicated collector thread per
  stream assembles frames one at a time, so two sessions sharing one
  server never head-of-line block each other.
* **Tile reuse.**  Each frame is tile-delta planned against the
  stream's own :class:`~repro.serve.cache.ResultCache`, bounded by
  ``tile_cache_bytes``; unchanged tiles are stitched from cache and
  only dirty tiles are submitted.  Planning happens *on the
  collector, per frame, in order* — so by the time frame N is
  planned, every tile frame N-1 computed is already cached, which is
  what makes consecutive-frame reuse work.  Reused and computed
  tiles are counted in the registry's ``repro_stream_tiles_total``
  alone, which ``stats()["tiles"]`` reads.
* **Deadlines.**  A frame's deadline is fixed at admission: arrival
  plus its ``deadline_s``, else plus the config's
  ``frame_budget_s``, else none.  ``drop-late`` resolves a frame
  still incomplete at its deadline (inclusive) as a typed dropped
  result (successors unaffected); ``best-effort`` always completes
  and reports lateness.  Both are decided here; the server is not
  told the deadline.
* **Dispatch.**  A frame's dirty tiles are admitted in one
  ``submit_many`` call, so an idle model runs them as one flush, and
  are waited for through the server's ``wait()``: it polls a
  manual-mode server and runs a dispatched flush no pool worker has
  started, so a frame never waits behind another model's flush.
* **One settle path.**  ``submit_frame`` returns a
  :class:`~repro.serve.server.ServeFuture`; the collector builds each
  frame's :class:`~repro.stream.results.FrameResult` (ok, dropped or
  error) and ``StreamSession._finish`` counts, logs (one
  ``repro.stream`` "frame" line) and resolves it — the only place a
  frame resolves.

Bit-parity contract: with the backend serving the same artifact at
the same dtype, a streamed frame is **bit-identical** to one-shot
``Engine.infer`` on that frame with the same ``tile``/``tile_overlap``
— the session stitches through the same
``repro.infer.tiling.TileStitcher`` in the same plan order.
"""

import itertools
import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..deploy.serialize import key_str
from ..infer.tiling import (
    TilePlan,
    TileStitcher,
    check_tile_geometry,
    plan_tiles,
    tile_view,
)
from ..logs import log_event
from ..serve.cache import ResultCache
from ..serve.metrics import MetricsRegistry
from ..serve.server import ServeFuture, parse_model_key
from .delta import plan_frame_delta
from .results import FrameResult, StreamError

_LOG = logging.getLogger("repro.stream")

__all__ = [
    "BEST_EFFORT",
    "DROP_LATE",
    "POLICIES",
    "StreamConfig",
    "StreamSession",
]

#: Frame-deadline policies: ``drop-late`` resolves a frame still
#: incomplete at its deadline as dropped; ``best-effort`` completes
#: every frame and reports how late it was.
DROP_LATE = "drop-late"
BEST_EFFORT = "best-effort"
POLICIES = (DROP_LATE, BEST_EFFORT)

# How often a tile wait re-checks for an undrained close, and an
# injected clock for the frame's deadline (seconds).
_WAIT_SLICE_S = 0.02


class _TileFailed(Exception):
    """Internal: a tile request resolved busy/error."""


class _Aborted(Exception):
    """Internal: session closed without drain while a frame was live."""


@dataclass(frozen=True)
class StreamConfig:
    """Per-stream knobs (geometry, reuse, deadline policy), checked
    here and nowhere else.

    ``tile``/``overlap`` need ``0 <= overlap < tile``, and must match
    the engine's ``tile`` / ``tile_overlap`` for the bit-parity
    guarantee to hold against ``Engine.infer``.  ``policy`` is one of
    :data:`POLICIES`; ``frame_budget_s`` (``>= 0``, ``None``: no
    deadline) is a frame's default budget from admission.
    ``tile_cache_bytes`` bounds the stream's tile store and ``0``
    disables reuse; ``max_pending_frames`` bounds the submit queue
    (``submit_frame`` blocks when full — backpressure, not shedding).
    """

    tile: int = 48
    overlap: int = 8
    policy: str = BEST_EFFORT
    frame_budget_s: Optional[float] = None
    tile_cache_bytes: int = 64 << 20
    max_pending_frames: Optional[int] = None

    def __post_init__(self):
        check_tile_geometry(self.tile, self.overlap)
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if self.frame_budget_s is not None and self.frame_budget_s < 0:
            raise ValueError("frame_budget_s must be >= 0")
        if self.tile_cache_bytes < 0:
            raise ValueError("tile_cache_bytes must be >= 0")
        if (
            self.max_pending_frames is not None
            and self.max_pending_frames < 1
        ):
            raise ValueError("max_pending_frames must be >= 1")


@dataclass
class _Frame:
    seq: int
    image: np.ndarray
    arrival: float
    deadline: Optional[float]
    future: ServeFuture = field(repr=False)


class StreamSession:
    """One ordered video stream over a single-image serving backend.

    Parameters
    ----------
    backend:
        A :class:`ModelServer`, a :class:`ServeSession` (its
        ``server`` serves the tiles), or any object with
        ``submit_many(images, model=...)`` returning one future per
        image whose ``result(timeout)`` yields an ndarray or a
        busy/error marker (``reason`` / ``message``).  Tiles are
        waited for through the backend's ``wait(futures, timeout)``
        when it has one, as a server's runs (or, in manual mode,
        polls) their flush; else through each future's ``result``.
    model:
        Zoo key (``(architecture, scheme, scale)`` or
        ``"arch/scheme/xN"``) every tile of this stream is routed to.
    scale:
        The model's upscale factor (output tiles are
        ``tile * scale`` on each side).
    metrics:
        Registry for the per-stream metric families; defaults to the
        backend's own registry so stream series appear on the
        existing ``/metrics`` surfaces.  Re-registration of the same
        families by concurrent streams is safe (label ``stream``
        disambiguates).  ``stats()`` reads this stream's children of
        those families, so sessions that reuse one ``stream_id`` on
        one registry share (merge) both their ``/metrics`` series and
        their ``stats()`` counts and latency.

    Frames must not be mutated by the caller until their future
    resolves (same no-copy admission contract as the pipeline).
    """

    _ids = itertools.count()

    def __init__(
        self,
        backend,
        model,
        scale: int,
        config: Optional[StreamConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        stream_id: Optional[str] = None,
        clock=time.monotonic,
        owns_backend: bool = False,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self.model = parse_model_key(model)
        self.scale = int(scale)
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        self.stream_id = (
            stream_id
            if stream_id is not None
            else f"stream-{next(self._ids)}"
        )
        # A ServeSession serves through its ModelServer: tiles go there.
        backend = getattr(backend, "server", backend)
        self._backend = backend
        self._owns_backend = owns_backend
        self._clock = clock
        self.tile_cache = ResultCache(self.config.tile_cache_bytes)
        self._plans: Dict[Tuple[int, int], TilePlan] = {}
        self._lock = threading.Condition()
        self._frames: "deque[_Frame]" = deque()
        self._last_seq: Optional[int] = None
        self._closed = False
        self._drain_on_close = True
        self._register_metrics(metrics)
        self._thread = threading.Thread(
            target=self._collect_loop,
            name=f"repro-stream-{self.stream_id}",
            daemon=True,
        )
        self._thread.start()

    # -- submission ----------------------------------------------------

    def submit_frame(
        self,
        frame: np.ndarray,
        seq: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> ServeFuture:
        """Admit one HWC frame; returns its future immediately.

        ``seq`` must be strictly greater than every previously
        submitted sequence number (auto-assigned when omitted).
        ``deadline_s`` overrides the stream's ``frame_budget_s`` for
        this frame; the clock starts at admission.  Blocks only when
        ``max_pending_frames`` backpressure is engaged.
        """
        frame = np.asarray(frame)
        if frame.ndim != 3:
            raise StreamError(
                f"expected an (H, W, C) frame, got shape {frame.shape}"
            )
        with self._lock:
            # Backpressure first: the wait releases the lock, so seq
            # assignment/validation must happen after it or a racing
            # submitter could interleave out of order.
            cap = self.config.max_pending_frames
            while (
                cap is not None
                and len(self._frames) >= cap
                and not self._closed
            ):
                self._lock.wait()
            if self._closed:
                raise StreamError("stream session is closed")
            if seq is None:
                seq = 0 if self._last_seq is None else self._last_seq + 1
            else:
                seq = int(seq)
                if self._last_seq is not None and seq <= self._last_seq:
                    raise StreamError(
                        f"sequence numbers must increase: got {seq} "
                        f"after {self._last_seq}"
                    )
            arrival = self._clock()
            if deadline_s is None:
                deadline_s = self.config.frame_budget_s
            deadline = None if deadline_s is None else arrival + deadline_s
            future = ServeFuture()
            self._frames.append(
                _Frame(
                    seq=seq,
                    image=frame,
                    arrival=arrival,
                    deadline=deadline,
                    future=future,
                )
            )
            self._last_seq = seq
            self._m_in.labels(stream=self.stream_id).inc()
            self._lock.notify_all()
        return future

    def submit_clip(
        self,
        frames: Sequence[np.ndarray],
        deadline_s: Optional[float] = None,
    ) -> List[ServeFuture]:
        """Admit a whole clip in order; returns one future per frame."""
        return [self.submit_frame(f, deadline_s=deadline_s) for f in frames]

    # -- lifecycle -----------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop accepting frames and shut the collector down.

        ``drain=True`` processes everything already queued;
        ``drain=False`` resolves queued frames as dropped.  Owned
        backends (``Engine.stream()`` with no explicit session) are
        closed too.  Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            if not already:
                self._drain_on_close = drain
            self._lock.notify_all()
        self._thread.join(timeout=60.0)
        if self._owns_backend and not already:
            self._backend.close()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- observability -------------------------------------------------

    def pending(self) -> int:
        with self._lock:
            return len(self._frames)

    def stats(self) -> Dict:
        """Snapshot of this stream's counters, reuse and latency, read
        from its children of the registry's stream families.

        ``tiles`` holds the reused and computed tile counts of
        ``repro_stream_tiles_total`` and their ``reuse_ratio``, then
        the tile store's own ``entries``, ``current_bytes``,
        ``max_bytes``, ``hits``, ``misses`` and ``evictions``.
        """
        sid = self.stream_id
        with self._lock:
            counts = {
                "frames_in": self._m_in.total(stream=sid),
                "pending": len(self._frames),
            }
        for outcome in ("ok", "dropped", "error"):
            counts[f"frames_{outcome}"] = self._m_out.total(
                stream=sid, outcome=outcome
            )
        counts["frames_out"] = self._m_out.total(stream=sid)
        return {
            "stream": self.stream_id,
            "model": key_str(self.model),
            "policy": self.config.policy,
            "frames": counts,
            "tiles": {**self.tile_cache.stats(), **self._tile_counts()},
            "latency": self._m_latency.merged(stream=sid).snapshot(),
        }

    # -- internals -----------------------------------------------------

    def _tile_counts(self) -> Dict:
        """This stream's reused and computed tiles, read from
        ``repro_stream_tiles_total``, and the reuse ratio they give."""
        sid = self.stream_id
        reused = self._m_tiles.total(stream=sid, outcome="reused")
        computed = self._m_tiles.total(stream=sid, outcome="computed")
        total = reused + computed
        return {
            "reused_tiles": reused,
            "computed_tiles": computed,
            "reuse_ratio": round(reused / total, 6) if total else 0.0,
        }

    def _time_left(self, frame: _Frame, now: float) -> float:
        """Seconds until ``frame`` drops (``<= 0``: it drops now), or
        ``inf`` when it cannot: best-effort, or no deadline."""
        if self.config.policy == DROP_LATE and frame.deadline is not None:
            return frame.deadline - now
        return math.inf

    def _register_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        if metrics is None:
            metrics = getattr(self._backend, "metrics", None)
        if not isinstance(metrics, MetricsRegistry):
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._m_in = metrics.counter(
            "repro_stream_frames_in_total",
            "Frames admitted into a stream session.",
            ("stream",),
        )
        self._m_out = metrics.counter(
            "repro_stream_frames_out_total",
            "Frames resolved by a stream session, by outcome.",
            ("stream", "outcome"),
        )
        self._m_tiles = metrics.counter(
            "repro_stream_tiles_total",
            "Tiles planned by the delta planner, by how they were "
            "satisfied.",
            ("stream", "outcome"),
        )
        self._m_reuse = metrics.gauge(
            "repro_stream_tile_reuse_ratio",
            "Lifetime fraction of planned tiles served from the "
            "stream's tile store.",
            ("stream",),
        )
        self._m_latency = metrics.histogram(
            "repro_stream_frame_latency_seconds",
            "Frame end-to-end latency, admission to ordered delivery.",
            ("stream",),
        )
        metrics.summary(
            "repro_stream_frame_quantile_seconds",
            "Frame latency quantiles (p50/p95/p99) per stream.",
            of=self._m_latency,
        )

    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                while not self._frames and not self._closed:
                    self._lock.wait()
                if not self._frames:
                    return
                shed = self._closed and not self._drain_on_close
                frame = self._frames.popleft()
                self._lock.notify_all()
            try:
                if shed:
                    raise _Aborted()
                result = self._process(frame)
            except _Aborted:
                result = FrameResult(
                    "dropped", frame.seq, detail="session closed without drain"
                )
            except Exception as exc:  # never kill the collector
                result = FrameResult(
                    "error", frame.seq, detail=f"{type(exc).__name__}: {exc}"
                )
            self._finish(frame, result)

    def _plan_for(self, shape) -> TilePlan:
        h, w = int(shape[0]), int(shape[1])
        plan = self._plans.get((h, w))
        if plan is None:
            plan = plan_tiles(h, w, self.config.tile, self.config.overlap)
            self._plans[(h, w)] = plan
        return plan

    def _process(self, frame: _Frame) -> FrameResult:
        """Run one frame: its delta plan, dirty tiles and stitch."""
        if self._time_left(frame, self._clock()) <= 0:
            return FrameResult(
                "dropped", frame.seq, detail="deadline expired before inference"
            )
        plan = self._plan_for(frame.image.shape)
        cache = self.tile_cache if self.config.tile_cache_bytes > 0 else None
        delta = plan_frame_delta(frame.image, plan, self.model, cache)
        th, tw = plan.tile_h, plan.tile_w
        # One request per distinct dirty tile, all admitted together.
        first = {}
        for i in delta.dirty:
            first.setdefault(delta.keys[i], i)
        futures = {}
        if first:
            tiles = [tile_view(frame.image, plan.tiles[i], th, tw)
                     for i in first.values()]
            futures = dict(zip(
                first, self._backend.submit_many(tiles, model=self.model)))
        fresh: Dict[str, np.ndarray] = {}
        try:
            for key, fut in futures.items():
                fresh[key] = self._await_tile(fut, frame)
        except _TileFailed as exc:
            return FrameResult("error", frame.seq, detail=str(exc))
        except TimeoutError:
            return FrameResult(
                "dropped",
                frame.seq,
                detail=f"deadline expired with {len(futures) - len(fresh)} "
                f"of {len(futures)} dirty tiles outstanding",
                tiles_total=len(plan.tiles),
                tiles_reused=len(delta.reused),
            )
        out = self._stitch(plan, delta, fresh)
        if cache is not None:
            for key, sr in fresh.items():
                cache.put(key, sr)
        return FrameResult(
            "ok",
            frame.seq,
            image=out,
            tiles_total=len(plan.tiles),
            tiles_reused=len(delta.reused),
        )

    def _await_tile(self, fut, frame: _Frame) -> np.ndarray:
        """Wait for one tile, honoring close and the frame deadline.

        Waits through the backend's ``wait()`` when it has one, else
        the future's ``result``, in slices no longer than the time a
        drop-late frame has left.  Raises ``TimeoutError`` once that
        frame's deadline comes while the tile is still outstanding,
        ``_Aborted`` on an undrained close, ``_TileFailed`` on a
        busy/error value.
        """
        wait = getattr(self._backend, "wait", None)
        while True:
            with self._lock:
                if self._closed and not self._drain_on_close:
                    raise _Aborted()
            left = self._time_left(frame, self._clock())
            if left <= 0:
                raise TimeoutError()
            timeout = min(_WAIT_SLICE_S, left)
            try:
                if wait is None:
                    value = fut.result(timeout=timeout)
                else:
                    value = wait([fut], timeout=timeout)[0]
            except TimeoutError:
                continue
            return self._tile_value(value)

    @staticmethod
    def _tile_value(value) -> np.ndarray:
        """A backend's tile value as an SR array, or _TileFailed."""
        if isinstance(value, np.ndarray):
            return value
        reason = getattr(value, "reason", None)  # ServerBusy marker
        if reason is not None:
            raise _TileFailed(f"tile request shed: {reason}")
        message = getattr(value, "message", None)  # ServeError marker
        if message is not None:
            raise _TileFailed(f"tile request failed: {message}")
        raise _TileFailed(
            f"unexpected tile result type {type(value).__name__}"
        )

    def _stitch(self, plan, delta, fresh) -> np.ndarray:
        """Assemble the SR frame through ``tiled_super_resolve``'s
        ``TileStitcher``, in plan order."""
        stitcher = TileStitcher(plan, self.scale)
        for i in range(len(plan.tiles)):
            sr = delta.cached.get(i)
            if sr is None:
                sr = fresh[delta.keys[i]]
            stitcher.add(i, np.moveaxis(sr, -1, 0))
        return stitcher.finish()

    # -- completion ----------------------------------------------------

    def _finish(self, frame: _Frame, result: FrameResult) -> None:
        """Count, log and resolve one frame outcome.

        The one place a frame's future resolves.  Lateness and latency
        are measured here, at delivery; an ok frame also counts its
        tiles and feeds the latency histogram.
        """
        now = self._clock()
        elapsed = max(0.0, now - frame.arrival)
        if frame.deadline is not None:
            result = replace(result, late_s=max(0.0, now - frame.deadline))
        sid = self.stream_id
        self._m_out.labels(stream=sid, outcome=result.status).inc()
        if result.ok:
            reused = result.tiles_reused
            computed = result.tiles_total - reused
            self._m_tiles.labels(stream=sid, outcome="reused").inc(reused)
            self._m_tiles.labels(stream=sid, outcome="computed").inc(computed)
            self._m_reuse.labels(stream=sid).set(
                self._tile_counts()["reuse_ratio"]
            )
            self._m_latency.labels(stream=sid).observe(elapsed)
        fields = {}
        if result.detail:
            fields["detail"] = result.detail
        log_event(
            _LOG,
            "frame",
            stream=sid,
            model=key_str(self.model),
            seq=result.seq,
            outcome=result.status,
            total_s=round(elapsed, 6),
            late_s=round(result.late_s, 6),
            tiles_total=result.tiles_total,
            tiles_reused=result.tiles_reused,
            **fields,
        )
        frame.future._resolve(result)
