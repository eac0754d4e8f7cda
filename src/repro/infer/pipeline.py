"""Micro-batching inference pipeline — the serving-layer API.

:class:`InferencePipeline` is the front door for running many images
through one SR model the way a serving process would: callers
``submit()`` images as they arrive and read results later; the pipeline
groups pending images by shape, stacks each group into NCHW batches of
``batch_size``, and fans the batches out over the inference thread pool
(:mod:`repro.infer.parallel`).  Large inputs can be routed through the
tiled path (:func:`repro.infer.tiling.tiled_super_resolve`)
instead, bounding peak memory by the tile size.

The batching is purely an execution-strategy change: convolution
batches are processed per-slice by the kernels, so a pipeline result is
identical to a one-at-a-time ``super_resolve`` call.

Typical use::

    pipeline = InferencePipeline(compiled_model, batch_size=8)
    handles = [pipeline.submit(img) for img in images]
    outputs = [h.result() for h in handles]     # flushes on first read

    # or simply
    outputs = pipeline.map(images)
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..grad import Tensor, no_grad
from .parallel import parallel_map
from .tiling import tiled_super_resolve

__all__ = ["DiscardedError", "InferencePipeline", "PendingResult",
           "PipelineHooks"]


class DiscardedError(RuntimeError):
    """``result()`` was called on a handle removed by
    :meth:`InferencePipeline.discard_pending`.  Raised immediately —
    a discarded submission can never produce a result, so blocking (or
    re-flushing the queue forever) would wedge the caller."""


class PipelineHooks:
    """Observer interface for an external scheduler / metrics sink.

    Subclass and override what you need; the default implementation is
    a no-op, so the pipeline costs nothing when unobserved.
    :class:`repro.serve.ModelServer` uses ``on_batch`` to count each
    model's batches and batch images and to time its forwards in the
    server's metrics registry, without the pipeline knowing that
    registry exists.

    ``on_batch`` fires once per executed model forward on the untiled
    path (it may fire from a worker thread); ``on_flush`` fires once
    per ``flush()`` that processed at least one image, from the thread
    driving the flush.
    """

    def on_batch(self, n_images: int, seconds: float) -> None:
        """One micro-batch of ``n_images`` ran in ``seconds``."""

    def on_flush(self, n_images: int, seconds: float) -> None:
        """One ``flush()`` completed ``n_images`` in ``seconds``."""


class PendingResult:
    """Handle for a submitted image; ``result()`` flushes if needed."""

    __slots__ = ("_pipeline", "_value", "_ready", "_discarded")

    def __init__(self, pipeline: "InferencePipeline"):
        self._pipeline = pipeline
        self._value: Optional[np.ndarray] = None
        self._ready = False
        self._discarded = False

    def done(self) -> bool:
        return self._ready

    def discarded(self) -> bool:
        return self._discarded

    def result(self) -> np.ndarray:
        """The super-resolved image (runs the pipeline if still pending).

        A handle removed by :meth:`InferencePipeline.discard_pending`
        raises :class:`DiscardedError` immediately: its image is no
        longer queued, so no amount of flushing can ever resolve it.
        """
        if self._discarded:
            raise DiscardedError(
                "this submission was discarded (discard_pending) and "
                "will never produce a result")
        if not self._ready:
            self._pipeline.flush()
        if not self._ready:  # pragma: no cover - defensive
            raise RuntimeError(
                "pipeline flush did not produce a result for this handle")
        return self._value

    def _set(self, value: np.ndarray) -> None:
        self._value = value
        self._ready = True


class InferencePipeline:
    """Batched, thread-parallel inference over submitted images.

    ``submit()`` is safe to call from any thread (the queue is locked);
    execution itself is driven by whichever thread calls ``flush()`` /
    ``result()`` — concurrent flushes process disjoint queue snapshots.

    Parameters
    ----------
    model:
        SR model mapping NCHW to NCHW (e.g. a ``compile_model`` output),
        or the path of a packed deploy artifact
        (:func:`repro.deploy.serialize.save_artifact`) — the serving
        process never touches the float model.
    batch_size:
        Images per model forward when micro-batching same-shape images
        (also the tile batch size on the tiled path).
    tile / tile_overlap:
        When ``tile`` is given, every image runs through the
        tiled path instead of a whole-image forward; ``scale`` is then
        required (tile placement needs the upsampling factor up front).
    scale:
        The model's upsampling factor; only used by the tiled path.
    n_threads:
        Worker threads for batches (default: the global setting, see
        :func:`repro.infer.parallel.get_num_threads`).
    clip:
        Clip outputs to [0, 1] (the convention of every SR entry point
        in this repo; disable for raw residual outputs).
    hooks:
        Optional :class:`PipelineHooks` observer — the pluggable
        scheduler/metrics attachment point.
    """

    def __init__(self, model, batch_size: int = 8,
                 tile: Optional[int] = None, tile_overlap: int = 8,
                 scale: Optional[int] = None,
                 n_threads: Optional[int] = None, clip: bool = True,
                 hooks: Optional[PipelineHooks] = None):
        if isinstance(model, (str, os.PathLike)):
            from ..deploy.serialize import load_artifact
            model = load_artifact(model)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if tile is not None and scale is None:
            raise ValueError(
                "tiled pipelines need the model's scale factor up front "
                "(pass scale=...)")
        if tile is not None and not clip:
            raise ValueError(
                "clip=False is not supported on the tiled path: "
                "tiled_super_resolve blends per-tile outputs already "
                "clipped to [0, 1]")
        self.model = model
        self.batch_size = batch_size
        self.tile = tile
        self.tile_overlap = tile_overlap
        self.scale = scale
        self.n_threads = n_threads
        self.clip = clip
        self.hooks = hooks if hooks is not None else PipelineHooks()
        self._pending: List[Tuple[np.ndarray, PendingResult]] = []
        self._queue_lock = threading.Lock()
        self._closed = False
        #: Counters: submitted/completed images, batches run, largest batch.
        self.stats: Dict[str, int] = {
            "submitted": 0, "completed": 0, "batches": 0, "max_batch": 0}

    @classmethod
    def from_config(cls, model, config, scale: Optional[int] = None,
                    hooks: Optional[PipelineHooks] = None
                    ) -> "InferencePipeline":
        """Build a pipeline from an :class:`repro.api.EngineConfig`-style
        object (anything with ``batch_size`` / ``tile`` / ``tile_overlap``
        / ``n_threads`` / ``clip`` attributes) — how the typed facade
        (:class:`repro.api.Engine`) instantiates its execution layer."""
        return cls(model, batch_size=config.batch_size, tile=config.tile,
                   tile_overlap=config.tile_overlap, scale=scale,
                   n_threads=config.n_threads, clip=config.clip, hooks=hooks)

    def submit(self, lr_image: np.ndarray) -> PendingResult:
        """Queue an ``(H, W, 3)`` image; returns a result handle."""
        lr_image = np.asarray(lr_image)
        if lr_image.ndim != 3:
            raise ValueError(
                f"expected an (H, W, C) image, got shape {lr_image.shape}")
        handle = PendingResult(self)
        with self._queue_lock:
            if self._closed:
                raise RuntimeError(
                    "cannot submit to a closed InferencePipeline")
            self._pending.append((lr_image, handle))
        self.stats["submitted"] += 1
        return handle

    def flush(self) -> None:
        """Run every pending image; all outstanding handles become ready.

        If the model raises, completed handles keep their results and
        the unprocessed images stay queued — a later ``flush()`` (or
        ``result()``) retries them instead of silently dropping them.
        The queue swap is locked, so a ``submit()`` racing a concurrent
        flush can never be dropped (it lands in the next flush).
        """
        with self._queue_lock:
            taken, self._pending = self._pending, []
        if not taken:
            return
        started = time.monotonic()
        try:
            if self.tile is not None:
                self._flush_tiled(taken)
            else:
                self._flush_stacked(taken)
        finally:
            unprocessed = [entry for entry in taken if not entry[1]._ready]
            if unprocessed:
                with self._queue_lock:
                    self._pending = unprocessed + self._pending
            completed = len(taken) - len(unprocessed)
            if completed:
                self.hooks.on_flush(completed, time.monotonic() - started)

    def _flush_tiled(self, taken) -> None:
        for image, handle in taken:
            sr = tiled_super_resolve(
                self.model, image, self.scale, tile=self.tile,
                overlap=self.tile_overlap, batch_size=self.batch_size,
                n_threads=self.n_threads)
            handle._set(sr)
            self.stats["completed"] += 1

    def _flush_stacked(self, taken) -> None:
        groups: Dict[Tuple[int, ...], List[Tuple[np.ndarray, PendingResult]]] = {}
        for image, handle in taken:
            groups.setdefault(image.shape, []).append((image, handle))
        batches: List[List[Tuple[np.ndarray, PendingResult]]] = []
        for group in groups.values():
            for i in range(0, len(group), self.batch_size):
                batches.append(group[i:i + self.batch_size])

        def run(batch: List[Tuple[np.ndarray, PendingResult]]):
            stacked = np.stack([img.transpose(2, 0, 1) for img, _ in batch])
            t0 = time.monotonic()
            out = np.asarray(self.model(Tensor(stacked)).data)
            return out, time.monotonic() - t0

        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                outputs = parallel_map(run, batches, self.n_threads)
        finally:
            self.model.train(was_training)

        for batch, (out, seconds) in zip(batches, outputs):
            self.stats["batches"] += 1
            self.stats["max_batch"] = max(self.stats["max_batch"], len(batch))
            self.hooks.on_batch(len(batch), seconds)
            for (_, handle), sr in zip(batch, out):
                sr = sr.transpose(1, 2, 0)
                if self.clip:
                    sr = np.clip(sr, 0.0, 1.0)
                handle._set(sr)
                self.stats["completed"] += 1

    def discard_pending(self, handles) -> int:
        """Drop queued images whose handle is in ``handles``; returns count.

        The cancellation path for layers driving the pipeline from
        outside (the model server): after a failed flush the offending
        submissions can be removed instead of poisoning every later
        flush of this model.  Handles already completed (or not queued
        here) are ignored.
        """
        targets = set(handles)
        with self._queue_lock:
            before = len(self._pending)
            kept, dropped = [], []
            for entry in self._pending:
                (dropped if entry[1] in targets else kept).append(entry)
            self._pending = kept
            for _, handle in dropped:
                # Mark while still holding the lock, so a racing
                # result() either finds the entry queued or finds the
                # handle marked — never a silent limbo in between.
                handle._discarded = True
            return before - len(kept)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the pipeline: drop the model, discard queued work.

        The eviction path of layers that cycle many pipelines (the
        model server's LRU registry, the bulk-jobs engine cache): the
        model's packed weights and staging buffers become collectable
        immediately instead of living until the garbage collector finds
        the cycle.  Any still-queued submission is marked discarded —
        its ``result()`` raises a typed :class:`DiscardedError` rather
        than blocking forever — and later ``submit()`` calls raise.
        Idempotent.
        """
        with self._queue_lock:
            if self._closed:
                return
            self._closed = True
            dropped, self._pending = self._pending, []
            for _, handle in dropped:
                handle._discarded = True
        self.model = None

    def map(self, images: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Submit ``images``, flush once, and return results in order."""
        handles = [self.submit(img) for img in images]
        self.flush()
        return [h.result() for h in handles]

    def __call__(self, lr_image: np.ndarray) -> np.ndarray:
        """Single-image convenience: submit + flush + result."""
        return self.submit(lr_image).result()

    def pending(self) -> int:
        """Number of images queued but not yet run."""
        return len(self._pending)
