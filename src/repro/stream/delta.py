"""Cross-frame tile-delta planning.

Consecutive video frames are mostly identical, so full-frame
inference wastes work on static regions.  The planner extends
``TilePlan`` geometry with *content*: it hashes every input tile of a
frame (``serve.cache.content_key`` over a zero-copy tile view) and
splits the plan into

* **reused** tiles — their super-resolved outputs are already in the
  stream's tile store, a :class:`~repro.serve.cache.ResultCache` keyed
  by the same hash; the cached SR tiles are fetched *eagerly* (as
  copies) so a later eviction cannot strand the frame between plan
  and stitch;
* **dirty** tiles — content not seen before (or evicted); only these
  are submitted for inference.

The hash keys are exactly the serving layer's ``content_key`` over
the same bytes the server would hash, so a dirty tile submitted to
``ModelServer`` coalesces with any identical in-flight tile and hits
the server's own result cache under the very same key.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..infer.tiling import TilePlan, tile_view
from ..serve.cache import ResultCache, content_key

__all__ = ["FrameDelta", "plan_frame_delta"]


@dataclass(frozen=True)
class FrameDelta:
    """One frame's plan split into reused and dirty tiles.

    ``keys[i]`` is the content hash of tile ``i`` of ``plan``;
    ``cached`` maps reused tile indices to their SR outputs (private
    copies, safe to stitch regardless of later cache activity).
    """

    plan: TilePlan
    keys: Tuple[str, ...]
    dirty: Tuple[int, ...]
    reused: Tuple[int, ...]
    cached: Dict[int, np.ndarray] = field(repr=False)

    @property
    def reuse_ratio(self) -> float:
        """Fraction of this frame's tiles served from the tile cache."""
        if not self.plan.tiles:
            return 0.0
        return len(self.reused) / len(self.plan.tiles)


def plan_frame_delta(
    frame: np.ndarray,
    plan: TilePlan,
    model_key,
    cache: Optional[ResultCache],
) -> FrameDelta:
    """Hash ``frame``'s tiles and split ``plan`` against ``cache``.

    ``frame`` is HWC; ``plan`` must cover its (H, W).  With
    ``cache=None`` every tile is dirty (reuse disabled).  Note two
    dirty tiles with identical content get the *same* key — the
    session submits each distinct key once and fans the result out.
    """
    th, tw = plan.tile_h, plan.tile_w
    keys = []
    dirty = []
    reused = []
    cached: Dict[int, np.ndarray] = {}
    for i, spec in enumerate(plan.tiles):
        view = tile_view(frame, spec, th, tw)
        key = content_key(model_key, view)
        keys.append(key)
        sr = cache.get(key) if cache is not None else None
        if sr is None:
            dirty.append(i)
        else:
            reused.append(i)
            cached[i] = sr
    return FrameDelta(
        plan=plan,
        keys=tuple(keys),
        dirty=tuple(dirty),
        reused=tuple(reused),
        cached=cached,
    )
