"""Geometric self-ensemble (the "+" models of the EDSR lineage)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..grad import Tensor, no_grad
from ..nn import Module
from .parallel import parallel_map

Transform = Tuple[Callable[[np.ndarray], np.ndarray],
                  Callable[[np.ndarray], np.ndarray]]


def _rot(k: int) -> Transform:
    return (lambda a, k=k: np.rot90(a, k, axes=(0, 1)),
            lambda a, k=k: np.rot90(a, -k, axes=(0, 1)))


def _rot_flip(k: int) -> Transform:
    return (lambda a, k=k: np.rot90(a[:, ::-1], k, axes=(0, 1)),
            lambda a, k=k: np.rot90(a, -k, axes=(0, 1))[:, ::-1])


#: The 8 dihedral (rotation x mirror) transform/inverse pairs.
DIHEDRAL_TRANSFORMS: List[Transform] = (
    [_rot(k) for k in range(4)] + [_rot_flip(k) for k in range(4)])


def self_ensemble(model: Module, lr_image: np.ndarray,
                  n_transforms: int = 8,
                  n_threads: Optional[int] = None) -> np.ndarray:
    """Super-resolve ``lr_image`` averaged over dihedral transforms.

    Parameters
    ----------
    model:
        Any SR model accepted by :func:`repro.train.super_resolve`.
    lr_image:
        ``(H, W, 3)`` image in [0, 1].
    n_transforms:
        How many of the 8 dihedral transforms to use (1 disables the
        ensemble; 4 is rotations only; 8 is the full "+'' protocol).
    n_threads:
        Worker threads for the shape groups (default: the process
        default, see :func:`repro.infer.parallel.get_num_threads`).

    Transform variants of equal shape — the unrotated and the
    90/270-degree views, two groups of up to 4 — are stacked into single
    NCHW forwards dispatched over the inference thread pool, instead of
    eight separate model calls.  Accumulation happens in transform order
    on the calling thread, so the result matches averaging one
    :func:`repro.train.super_resolve` call per transform.

    Note: models with a square-window constraint (SwinIR/HAT) accept the
    rotated inputs as long as H and W are both window multiples.
    """
    if not 1 <= n_transforms <= 8:
        raise ValueError(f"n_transforms must be in [1, 8], got {n_transforms}")
    variants = [np.ascontiguousarray(forward_t(lr_image))
                for forward_t, _ in DIHEDRAL_TRANSFORMS[:n_transforms]]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i, v in enumerate(variants):
        groups.setdefault(v.shape, []).append(i)

    def run_group(indices: List[int]) -> np.ndarray:
        batch = np.stack([variants[i].transpose(2, 0, 1) for i in indices])
        return np.asarray(model(Tensor(batch)).data)

    # Into eval mode once, never back: restoring the old mode here
    # would race another thread's forward on the same model.
    if model.training:
        model.eval()
    with no_grad():
        outputs = parallel_map(run_group, list(groups.values()), n_threads)

    # Undo transforms and accumulate in transform order — identical
    # float summation order to one call per transform.
    sr_by_index: Dict[int, np.ndarray] = {}
    for indices, out in zip(groups.values(), outputs):
        for j, i in enumerate(indices):
            sr = np.clip(out[j].transpose(1, 2, 0), 0.0, 1.0)
            sr_by_index[i] = DIHEDRAL_TRANSFORMS[i][1](sr)
    accumulated = sr_by_index[0]
    for i in range(1, n_transforms):
        accumulated = accumulated + sr_by_index[i]
    return np.clip(accumulated / n_transforms, 0.0, 1.0)
