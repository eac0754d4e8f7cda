"""Test-time inference utilities for SR models.

The EDSR lineage (and every paper building on it, including SCALES'
experimental protocol) evaluates with two standard tools this module
provides:

* :func:`self_ensemble` — the x8 geometric ensemble ("EDSR+"):
  average the model's predictions over the dihedral transforms of the
  input (4 rotations x optional flip), undoing each transform on the
  output.  Typically worth ~0.1-0.2 dB at no training cost.
* :func:`tiled_super_resolve` — chop the LR image into overlapping tiles,
  super-resolve each and blend, bounding peak memory so full-resolution
  images fit through NumPy inference.

Both stack tiles / transform variants into NCHW batches and fan them
out over a thread pool (a call's ``n_threads``, else
``REPRO_NUM_THREADS``, sets the width; NumPy kernels release the
GIL).  :class:`InferencePipeline` is the serving-layer entry point —
submit images, run them as micro-batches, read results.  Its one batch
contract: a ``flush()`` settles every image it takes, each with its
output or the exception of the model forward that ran it, and nothing
goes back on the queue.  Threads may flush one pipeline concurrently;
a handle whose image another thread's flush took waits for that flush.
"""

from .parallel import get_num_threads, parallel_map, submit_task
from .pipeline import InferencePipeline, PendingResult
from .tiling import (TilePlan, TileSpec, plan_tiles, tile_view,
                     tiled_super_resolve)
from .tta import DIHEDRAL_TRANSFORMS, self_ensemble

__all__ = [
    "DIHEDRAL_TRANSFORMS", "self_ensemble", "tiled_super_resolve",
    "TilePlan", "TileSpec", "plan_tiles", "tile_view",
    "InferencePipeline", "PendingResult",
    "get_num_threads", "parallel_map", "submit_task",
]
