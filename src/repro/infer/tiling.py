"""Tiled ("chopped") inference for memory-bounded full-image SR.

This module is the repo's one tiled execution path.
:func:`tiled_super_resolve` is the one tiled forward: ``Engine.infer``
and ``InferencePipeline(tile=...)`` run it, and so do the jobs and
servers built on them.  :class:`TileStitcher` is the one stitch: the
tiled forward and :class:`repro.stream.StreamSession` (which assembles
frames from served and cached tiles) both blend through it.  One
geometry — :func:`plan_tiles` — drives both: overlapping tiles with a
flush-right final tile, interior edges trimmed by ``trim`` pixels
before placement, remaining overlap averaged.  Tiling is an inference
setting (``EngineConfig.tile``); deploy artifacts carry none.

The execution strategy is chunked and streaming: tiles run through the
model in NCHW chunks of at most ``batch_size`` tiles, so the conv/GEMM
kernels see a few large-M operands instead of dozens of tiny ones;
chunks fan out over :func:`repro.infer.parallel.parallel_map` worker
threads one wave at a time and are stitched (then freed) as each wave
completes, keeping peak memory bounded by a wave rather than the input.
The plan is cut into whole waves of near-equal chunks, so no thread
idles in the last wave.  Stitching happens on the calling thread in
plan order, so results are identical for every (batch size, thread
count) combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..grad import Tensor, no_grad
from ..nn import Module
from .parallel import get_num_threads, parallel_map

__all__ = ["TileSpec", "TilePlan", "check_tile_geometry", "plan_tiles",
           "tiled_super_resolve", "iter_tile_batches", "TileStitcher",
           "tile_view"]


def check_tile_geometry(tile: int, overlap: int) -> None:
    """Raise ``ValueError`` unless ``tile >= 1`` and ``0 <= overlap < tile``.

    The one rule every tiled surface applies when its tiling is set
    (``EngineConfig``, ``StreamConfig``, ``InferencePipeline``), so a
    geometry :func:`plan_tiles` would refuse fails when configured,
    not on every later call.
    """
    if tile < 1:
        raise ValueError(f"tile must be positive, got {tile}")
    if not 0 <= overlap < tile:
        raise ValueError(f"overlap {overlap} must be in [0, tile={tile})")


def _tile_starts(full: int, tile: int, stride: int) -> list:
    """Start offsets covering [0, full) with a final flush-right tile."""
    if full <= tile:
        return [0]
    starts = list(range(0, full - tile, stride))
    starts.append(full - tile)
    return starts


@dataclass(frozen=True)
class TileSpec:
    """One tile of a :class:`TilePlan`: origin plus per-edge trims.

    ``y0/x0`` index the tile's top-left corner in the input; ``top/left/
    bottom/right`` are the input pixels discarded from the corresponding
    tile edge before placing the output (non-zero only on interior
    edges — image borders keep their pixels).
    """

    y0: int
    x0: int
    top: int
    left: int
    bottom: int
    right: int


@dataclass(frozen=True)
class TilePlan:
    """Tile geometry for one (H, W) input."""

    height: int
    width: int
    tile_h: int
    tile_w: int
    overlap: int
    trim: int
    tiles: Tuple[TileSpec, ...]

    def __len__(self) -> int:
        return len(self.tiles)


def plan_tiles(height: int, width: int, tile: int, overlap: int = 8,
               trim: Optional[int] = None) -> TilePlan:
    """Plan overlapping tiles covering an ``(height, width)`` input.

    ``tile`` is clamped to the input on each axis; tiles step by ``tile
    - overlap`` with a final flush-right tile, so inputs that are not a
    multiple of the stride are still covered exactly.  ``trim`` (default
    ``overlap // 2``) input pixels are marked for discard on interior
    tile edges; ``2 * trim <= overlap`` keeps trimmed tiles covering the
    canvas with no gaps.
    """
    check_tile_geometry(tile, overlap)
    trim = overlap // 2 if trim is None else trim
    if trim < 0 or 2 * trim > overlap:
        raise ValueError(f"trim {trim} needs 0 <= 2*trim <= overlap={overlap}")
    tile_h, tile_w = min(tile, height), min(tile, width)
    stride_h = max(tile_h - overlap, 1)
    stride_w = max(tile_w - overlap, 1)
    specs = []
    for y0 in _tile_starts(height, tile_h, stride_h):
        for x0 in _tile_starts(width, tile_w, stride_w):
            specs.append(TileSpec(
                y0=y0, x0=x0,
                top=trim if y0 > 0 else 0,
                left=trim if x0 > 0 else 0,
                bottom=trim if y0 + tile_h < height else 0,
                right=trim if x0 + tile_w < width else 0))
    return TilePlan(height=height, width=width, tile_h=tile_h, tile_w=tile_w,
                    overlap=overlap, trim=trim, tiles=tuple(specs))


def tile_view(image: np.ndarray, spec: TileSpec, tile_h: int,
              tile_w: int) -> np.ndarray:
    """Zero-copy view of one tile of a leading-(H, W) ``image``.

    Slices the first two axes at ``spec``'s origin, so it works for
    HWC frames and (H, W) planes alike.  The result is a *strided
    view* — callers hashing it (the streaming tile-delta planner does)
    rely on ``serve.cache.content_key`` normalizing contiguity.
    """
    return image[spec.y0:spec.y0 + tile_h, spec.x0:spec.x0 + tile_w]


def iter_tile_batches(model, data: np.ndarray, plan: TilePlan,
                      batch_size: int, n_threads: Optional[int] = None):
    """Yield ``(tile_indices, outputs)`` for a ``(B, C, H, W)`` input.

    Tiles run through ``model`` in chunks (each chunk is one NCHW
    forward of ``len(indices) * B`` rows, tile-major), dispatched over
    the thread pool one *wave* of ``n_threads`` chunks at a time.  The
    plan is cut into ``ceil(len(plan) / batch_size)`` contiguous chunks,
    rounded up to a whole number of waves and capped at the tile count,
    whose sizes differ by at most one: each holds at most ``batch_size``
    tiles and every wave keeps all its threads busy (25 tiles at batch
    8 on 2 threads run as [7, 6] then [6, 6], not [8, 8] then [8, 1]).
    Chunks are gathered from ``data`` only when their wave runs and
    outputs are yielded (and can be stitched and dropped) as each wave
    completes, so peak memory is bounded by one wave — not by the input
    size.  Yield order is plan order for every thread count.

    The caller manages eval mode and ``no_grad``.
    """
    b, c = data.shape[:2]
    th, tw = plan.tile_h, plan.tile_w
    wave = max(1, get_num_threads() if n_threads is None else int(n_threads))
    n_chunks = -(-len(plan) // max(1, batch_size))
    n_chunks = min(-(-n_chunks // wave) * wave, len(plan))
    size, extra = divmod(len(plan), n_chunks)
    bounds = [i * size + min(i, extra) for i in range(n_chunks + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def run(indices):
        tiles = np.empty((len(indices) * b, c, th, tw), dtype=data.dtype)
        for j, t in enumerate(indices):
            s = plan.tiles[t]
            tiles[j * b:(j + 1) * b] = data[:, :, s.y0:s.y0 + th,
                                            s.x0:s.x0 + tw]
        return np.asarray(model(Tensor(tiles)).data)

    for i in range(0, len(chunks), wave):
        group = chunks[i:i + wave]
        for indices, out in zip(group, parallel_map(run, group, n_threads)):
            yield indices, out


class TileStitcher:
    """Blend tile outputs into one image: clip, place, average, clip.

    Each tile is trimmed by its plan edges, clipped to [0, 1] in
    float64 and added onto a float64 canvas; :meth:`finish` divides
    every pixel by the number of tiles that covered it and clips
    again.  Tiles are consumed incrementally (pair with
    :func:`iter_tile_batches`), so only the canvas and one wave of
    outputs are ever resident.
    """

    def __init__(self, plan: TilePlan, scale: int):
        self.plan = plan
        self.scale = scale
        self.canvas: Optional[np.ndarray] = None
        self.weight = np.zeros((plan.height * scale, plan.width * scale),
                               dtype=np.float64)

    def add(self, tile_index: int, sr: np.ndarray) -> None:
        """Place one tile's ``(C_out, th*s, tw*s)`` output."""
        s = self.plan.tiles[tile_index]
        scale = self.scale
        th, tw = self.plan.tile_h, self.plan.tile_w
        expect = (th * scale, tw * scale)
        if sr.ndim != 3 or sr.shape[1:] != expect:
            raise ValueError(
                f"tile {tile_index}: model produced {tuple(sr.shape[1:])} "
                f"for a {(th, tw)} tile; expected {expect} at scale {scale}")
        if self.canvas is None:
            self.canvas = np.zeros((sr.shape[0],) + self.weight.shape,
                                   dtype=np.float64)
        sr = sr[:, s.top * scale:(th - s.bottom) * scale,
                s.left * scale:(tw - s.right) * scale]
        ys = (s.y0 + s.top) * scale
        xs = (s.x0 + s.left) * scale
        self.canvas[:, ys:ys + sr.shape[1], xs:xs + sr.shape[2]] += np.clip(
            np.asarray(sr, dtype=np.float64), 0.0, 1.0)
        self.weight[ys:ys + sr.shape[1], xs:xs + sr.shape[2]] += 1.0

    def finish(self) -> np.ndarray:
        """The stitched ``(H*s, W*s, C_out)`` image, clipped to [0, 1]."""
        self.canvas /= np.maximum(self.weight, 1.0)
        return np.clip(self.canvas.transpose(1, 2, 0), 0.0, 1.0)


def tiled_super_resolve(model: Module, lr_image: np.ndarray, scale: int,
                        tile: int = 48, overlap: int = 8,
                        lr_multiple: int = 1,
                        trim: int = None,
                        batch_size: int = 16,
                        n_threads: Optional[int] = None) -> np.ndarray:
    """Super-resolve ``lr_image`` tile by tile ("chop forward").

    Tiles run as NCHW batches of at most ``batch_size``, split evenly
    over whole waves of ``n_threads`` worker threads (see
    :func:`iter_tile_batches`), stitched as each wave completes —
    identical outputs to the sequential per-tile loop at a fraction of
    the per-call overhead, with peak memory bounded by one wave plus
    the output canvas.  Returns the ``(scale*H, scale*W, C)`` float64
    image; each tile's output is clipped to [0, 1] before blending and
    the blend is clipped again (:class:`TileStitcher`).

    Parameters
    ----------
    model:
        SR model mapping ``(H, W, 3)`` LR to ``(scale*H, scale*W, 3)``.
    lr_image:
        ``(H, W, 3)`` image in [0, 1]; H and W must be multiples of
        ``lr_multiple`` (the model's window constraint).
    scale:
        The model's upsampling factor (output scaling of tile placement).
    tile:
        LR tile size; must be a multiple of ``lr_multiple``.
    overlap:
        LR pixels of overlap between neighbouring tiles.
    trim:
        LR pixels discarded from each interior tile edge before placing
        the output (tile borders carry the model's halo artifacts — most
        visibly the bicubic residual computed on the tile instead of the
        full image).  Defaults to ``overlap // 2``; must satisfy
        ``2 * trim <= overlap`` so trimmed tiles still cover the canvas.
        Remaining overlapped pixels are averaged.
    batch_size:
        Most tiles per model forward — bounds peak memory exactly like
        the original per-tile loop did, just up to ``batch_size`` tiles
        at a time.
    n_threads:
        Worker threads for tile batches (default: the process default,
        see :func:`repro.infer.parallel.get_num_threads`).
    """
    h, w = lr_image.shape[:2]
    if tile % max(lr_multiple, 1):
        raise ValueError(f"tile {tile} must be a multiple of {lr_multiple}")
    plan = plan_tiles(h, w, tile, overlap, trim)
    data = np.ascontiguousarray(lr_image.transpose(2, 0, 1))[None]
    stitcher = TileStitcher(plan, scale)
    # Into eval mode once, never back: restoring the old mode here
    # would race another thread's forward on the same model.
    if model.training:
        model.eval()
    with no_grad():
        for indices, out in iter_tile_batches(model, data, plan,
                                              batch_size, n_threads):
            for j, t in enumerate(indices):
                stitcher.add(t, out[j])
    return stitcher.finish()
