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

One contract covers every flush: ``flush()`` settles every image it
takes off the queue.  Each handle gets its output or the exception of
the model forward that ran it — one stacked batch, or one image on the
tiled path — so a failing forward fails only its own images, and
nothing goes back on the queue.  Any number of threads may flush at
once: each flush takes the images queued when it starts, and a handle
whose image another thread's flush took waits in ``result()`` for that
flush instead of raising.  ``close()`` settles whatever is still
queued with a ``RuntimeError``, so no handle waits forever.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..grad import Tensor, no_grad
from .parallel import check_num_threads, parallel_map
from .tiling import check_tile_geometry, tiled_super_resolve

__all__ = ["InferencePipeline", "PendingResult"]


class PendingResult:
    """Handle for a submitted image; ``result()`` flushes if needed."""

    __slots__ = ("_pipeline", "_settled", "_value", "_error")

    def __init__(self, pipeline: "InferencePipeline"):
        self._pipeline = pipeline
        self._settled = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._settled.is_set()

    def result(self) -> np.ndarray:
        """The super-resolved image.

        Flushes the pipeline when the image is still queued, and waits
        when another thread's flush took it.  Raises the exception of
        the model forward that ran the image, or the ``RuntimeError`` of
        a ``close()`` that found it queued.
        """
        if not self._settled.is_set():
            self._pipeline.flush()
            self._settled.wait()
        if self._error is not None:
            raise self._error
        return self._value

    def _settle(self, value: Optional[np.ndarray] = None,
                error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error
        self._settled.set()


_Entry = Tuple[np.ndarray, PendingResult]


class InferencePipeline:
    """Batched, thread-parallel inference over submitted images.

    ``submit()`` is safe to call from any thread (the queue is locked);
    execution itself is driven by whichever thread calls ``flush()`` /
    ``result()``, and concurrent flushes take disjoint queue snapshots
    (see the module docstring for the settle contract).

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
        required (tile placement needs the upsampling factor up front)
        and ``0 <= tile_overlap < tile`` must hold.
    scale:
        The model's upsampling factor; only used by the tiled path.
    n_threads:
        Worker threads for batches (default: the process default, see
        :func:`repro.infer.parallel.get_num_threads`).
    on_batch:
        Optional ``on_batch(n_images, seconds)`` callable, called once
        per successful model forward on the untiled path, from the
        thread that ran it.  :class:`repro.serve.ModelServer` counts and
        times each model's batches in its metrics registry this way.

    Outputs are clipped to [0, 1], the convention of every SR entry
    point in this repo.
    """

    def __init__(self, model, batch_size: int = 8,
                 tile: Optional[int] = None, tile_overlap: int = 8,
                 scale: Optional[int] = None,
                 n_threads: Optional[int] = None,
                 on_batch: Optional[Callable[[int, float], None]] = None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if n_threads is not None:
            check_num_threads(n_threads)
        if tile is not None and scale is None:
            raise ValueError(
                "tiled pipelines need the model's scale factor up front "
                "(pass scale=...)")
        if tile is not None:
            check_tile_geometry(tile, tile_overlap)
        if isinstance(model, (str, os.PathLike)):
            from ..deploy.serialize import load_artifact
            model = load_artifact(model)
        self.model = model
        self.batch_size = batch_size
        self.tile = tile
        self.tile_overlap = tile_overlap
        self.scale = scale
        self.n_threads = n_threads
        self.on_batch = on_batch
        self._pending: List[_Entry] = []
        self._queue_lock = threading.Lock()
        self._closed = False

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
        return handle

    def flush(self) -> None:
        """Run every queued image and settle its handle.

        Each handle gets its output or the exception of the model
        forward that ran it; a failed forward does not make ``flush()``
        raise.  The queue is taken under its lock, so a racing
        ``submit()`` lands in this flush or the next one.
        """
        with self._queue_lock:
            taken, self._pending = self._pending, []
            model = self.model
        if not taken:
            return
        try:
            if self.tile is not None:
                self._flush_tiled(model, taken)
            else:
                self._flush_stacked(model, taken)
        finally:
            # Only an error outside the forwards gets here with images
            # unsettled; it still must not leave a handle waiting.
            for _, handle in taken:
                if not handle.done():
                    handle._settle(error=RuntimeError(
                        "the flush running this image stopped early"))

    def _flush_tiled(self, model, taken: List[_Entry]) -> None:
        for image, handle in taken:
            try:
                sr = tiled_super_resolve(
                    model, image, self.scale, tile=self.tile,
                    overlap=self.tile_overlap, batch_size=self.batch_size,
                    n_threads=self.n_threads)
            except Exception as exc:
                handle._settle(error=exc)
            else:
                handle._settle(sr)

    def _flush_stacked(self, model, taken: List[_Entry]) -> None:
        groups: Dict[Tuple[int, ...], List[_Entry]] = {}
        for image, handle in taken:
            groups.setdefault(image.shape, []).append((image, handle))
        batches = [group[i:i + self.batch_size] for group in groups.values()
                   for i in range(0, len(group), self.batch_size)]

        def run(batch: List[_Entry]) -> None:
            try:
                stacked = np.stack([img.transpose(2, 0, 1)
                                    for img, _ in batch])
                t0 = time.monotonic()
                out = np.asarray(model(Tensor(stacked)).data)
                seconds = time.monotonic() - t0
            except Exception as exc:
                for _, handle in batch:
                    handle._settle(error=exc)
                return
            for (_, handle), sr in zip(batch, out):
                handle._settle(np.clip(sr.transpose(1, 2, 0), 0.0, 1.0))
            if self.on_batch is not None:
                self.on_batch(len(batch), seconds)

        # Into eval mode once, never back: restoring the old mode here
        # would race another thread's forward on the same model.
        if model.training:
            model.eval()
        with no_grad():
            parallel_map(run, batches, self.n_threads)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the pipeline: drop the model, settle queued work.

        The eviction path of layers that cycle many pipelines (the
        model server's LRU registry, the bulk-jobs engine cache): the
        model's packed weights and staging buffers become collectable
        immediately instead of living until the garbage collector finds
        the cycle.  Every still-queued handle is settled with a
        ``RuntimeError``, so its ``result()`` raises instead of
        blocking, and later ``submit()`` calls raise.  A flush already
        running finishes on the model it took.  Idempotent.
        """
        with self._queue_lock:
            if self._closed:
                return
            self._closed = True
            dropped, self._pending = self._pending, []
            self.model = None
        error = RuntimeError(
            "the InferencePipeline was closed before this image ran")
        for _, handle in dropped:
            handle._settle(error=error)

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
