"""Bicubic resampling (MATLAB-``imresize``-style, antialiased downscale).

The SR literature (and this paper) derives LR inputs by bicubic
downsampling of HR images and reports the "Bicubic" baseline by bicubic
upsampling; both come from this module.  The kernel is the Keys cubic
with a = -0.5, applied separably per axis, with width widened by the
scale factor when shrinking (antialiasing), matching MATLAB/PIL behaviour
closely enough that the Bicubic baseline rows of Table III are meaningful.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np


def cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Keys cubic convolution kernel."""
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    inner = (a + 2) * ax3 - (a + 3) * ax2 + 1
    outer = a * ax3 - 5 * a * ax2 + 8 * a * ax - 4 * a
    return np.where(ax <= 1, inner, np.where(ax < 2, outer, 0.0))


@functools.lru_cache(maxsize=256)
def _contributions(in_size: int, out_size: int, scale: float,
                   antialias: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Sample indices and weights for one axis.

    Returns ``(indices, weights)`` with shape ``(out_size, taps)``; border
    samples replicate the edge pixel.  Memoized per argument tuple, so
    the arrays are shared between calls and read-only.
    """
    kernel_width = 4.0
    kernel_scale = 1.0
    if scale < 1.0 and antialias:
        kernel_width /= scale
        kernel_scale = scale
    centers = (np.arange(out_size) + 0.5) / scale - 0.5
    taps = int(math.ceil(kernel_width)) + 2
    left = np.floor(centers - kernel_width / 2).astype(int) + 1
    indices = left[:, None] + np.arange(taps)[None, :]
    weights = cubic_kernel((centers[:, None] - indices) * kernel_scale)
    weights = weights * kernel_scale if kernel_scale != 1.0 else weights
    norm = weights.sum(axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    weights = weights / norm
    indices = np.clip(indices, 0, in_size - 1)
    indices.flags.writeable = False
    weights.flags.writeable = False
    return indices, weights


def _resize_axis(img: np.ndarray, out_size: int, axis: int,
                 antialias: bool) -> np.ndarray:
    in_size = img.shape[axis]
    if in_size == out_size:
        return img
    scale = out_size / in_size
    indices, weights = _contributions(in_size, out_size, scale, antialias)
    moved = np.moveaxis(img, axis, 0)
    gathered = moved[indices]                      # (out, taps, ...)
    weighted = np.einsum("ot...,ot->o...", gathered, weights)
    return np.moveaxis(weighted, 0, axis)


def bicubic_resize(img: np.ndarray, out_hw: Tuple[int, int],
                   antialias: bool = True, clip: bool = True) -> np.ndarray:
    """Resize an ``(H, W, ...)`` array to ``out_hw`` over its two
    leading axes; any trailing axes (channels, a batch) ride along."""
    out_h, out_w = out_hw
    if out_h <= 0 or out_w <= 0:
        raise ValueError("output size must be positive")
    result = _resize_axis(img.astype(np.float64), out_h, 0, antialias)
    result = _resize_axis(result, out_w, 1, antialias)
    if clip:
        result = np.clip(result, 0.0, 1.0)
    return result


def downscale(img: np.ndarray, scale: int) -> np.ndarray:
    """Bicubic downscale by an integer factor (the LR degradation)."""
    h, w = img.shape[:2]
    if h % scale or w % scale:
        raise ValueError(f"image {h}x{w} not divisible by scale {scale}")
    return bicubic_resize(img, (h // scale, w // scale), antialias=True)


def upscale(img: np.ndarray, scale: int) -> np.ndarray:
    """Bicubic upscale by an integer factor (the Bicubic baseline)."""
    h, w = img.shape[:2]
    return bicubic_resize(img, (h * scale, w * scale), antialias=False)
