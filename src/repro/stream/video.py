"""Deterministic synthetic video clips for streaming tests/benches.

Real video is mostly static background with localized motion; the
tile-reuse win of the streaming layer is a direct function of how
much of each frame actually changes.  :func:`synthetic_clip` makes
that fraction a *knob*: a static background (one of the
``data.synthetic`` generators) with a textured sprite of controllable
area gliding across it, so a benchmark can sweep the static-region
fraction and report sustained FPS against it.

Everything is seeded — the same arguments always produce the same
clip, bit for bit, which the parity gates rely on.
"""

import math
from typing import List

import numpy as np

from ..data.synthetic import generate

__all__ = ["synthetic_clip"]


def synthetic_clip(
    n_frames: int,
    h: int,
    w: int,
    static_fraction: float = 0.6,
    seed: int = 0,
    kind: str = "mixed",
    step: int = 4,
    dtype=np.float32,
) -> List[np.ndarray]:
    """A list of ``n_frames`` HWC frames in ``[0, 1]``.

    ``static_fraction`` is the approximate fraction of the frame area
    the moving sprite never touches *per step* — the sprite covers
    ``(1 - static_fraction)`` of the area and moves ``step`` pixels
    between frames (wrapping), so between two consecutive frames the
    dirty region is the union of the sprite's old and new positions.
    ``static_fraction=1.0`` degenerates to a fully static clip.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if not 0.0 <= static_fraction <= 1.0:
        raise ValueError("static_fraction must be in [0, 1]")
    base = generate(kind, seed, h, w)
    moving = 1.0 - static_fraction
    frames: List[np.ndarray] = []
    if moving <= 0.0:
        frame = base.astype(dtype, copy=False)
        return [frame.copy() for _ in range(n_frames)]
    # A sprite whose sides scale with sqrt(moving) covers ~moving of
    # the frame area, clamped so it always fits and is never empty.
    bh = min(h, max(1, int(round(h * math.sqrt(moving)))))
    bw = min(w, max(1, int(round(w * math.sqrt(moving)))))
    sprite = generate("texture", seed + 1, bh, bw)
    step = max(1, int(step))
    span_y = max(1, h - bh + 1)
    span_x = max(1, w - bw + 1)
    for f in range(n_frames):
        y = (f * step) % span_y
        x = (f * step) % span_x
        frame = base.copy()
        frame[y:y + bh, x:x + bw] = sprite
        frames.append(frame.astype(dtype, copy=False))
    return frames

