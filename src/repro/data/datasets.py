"""SR datasets: the DIV2K-substitute training pool and four benchmark suites.

Each dataset is a list of :class:`SRPair` (LR input, HR target) in NCHW-
compatible ``(H, W, 3)`` float arrays in [0, 1]; LR is produced by the
antialiased bicubic downscale in :mod:`repro.data.resize`, identical to
the degradation the paper's experiments use.

The four evaluation suites mirror the character of the paper's sets:

* ``set5``   — 5 smooth images with blobs and soft edges;
* ``set14``  — 14 mixed-content images;
* ``b100``   — natural-texture images (default 20 for runtime; the real
  set has 100, pass ``n_images=100`` for the full-size suite);
* ``urban100`` — repeated geometric structure (default 20, same note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import synthetic
from .resize import downscale

#: Seed bases keep every suite disjoint from the training pool and from
#: each other.
_SUITE_SEEDS = {"div2k": 10_000, "set5": 20_000, "set14": 30_000,
                "b100": 40_000, "urban100": 50_000}

_SUITE_KINDS: Dict[str, List[str]] = {
    # DIV2K's value is diversity: cycle every generator so the training
    # distribution covers each benchmark suite's regime.
    "div2k": ["mixed", "urban", "stripes", "texture", "blobs",
              "checkerboard", "rectangles", "mixed", "urban", "gradient"],
    "set5": ["blobs", "gradient", "blobs", "stripes", "blobs"],
    "set14": ["mixed", "stripes", "blobs", "texture", "checkerboard",
              "rectangles", "mixed", "gradient", "stripes", "texture",
              "mixed", "blobs", "checkerboard", "mixed"],
    "b100": ["texture"],
    "urban100": ["urban"],
}

_SUITE_DEFAULT_SIZE = {"div2k": 25, "set5": 5, "set14": 14,
                       "b100": 20, "urban100": 20}

BENCHMARK_SUITES = ("set5", "set14", "b100", "urban100")


@dataclass(frozen=True)
class SRPair:
    """One evaluation/training item: the LR input and its HR ground truth."""

    lr: np.ndarray
    hr: np.ndarray
    name: str = ""

    @property
    def scale(self) -> int:
        return self.hr.shape[0] // self.lr.shape[0]


def _crop_to_multiple(img: np.ndarray, multiple: int) -> np.ndarray:
    h, w = img.shape[:2]
    return img[: h - h % multiple if h % multiple else h,
               : w - w % multiple if w % multiple else w]


def make_pair(hr: np.ndarray, scale: int, name: str = "",
              lr_multiple: int = 1, degradation: str = "bd") -> SRPair:
    """Derive the LR image from ``hr``.

    ``degradation`` selects the LR model:

    * ``"bicubic"`` — antialiased bicubic downscale (the paper's setting);
    * ``"bd"`` (default) — Gaussian blur (sigma = 0.4 * scale) followed by
      bicubic downscale, the standard "BD" degradation of the SR
      literature.  BD is the default here because the antialiased-bicubic
      LR leaves almost no learnable headroom for the scaled-down NumPy
      models (see DESIGN.md); the method comparison structure is identical
      under either degradation.

    ``lr_multiple`` additionally crops so the *LR* size is divisible by it
    (transformer models need LR sizes divisible by the window size).
    """
    hr = _crop_to_multiple(hr, scale * max(lr_multiple, 1))
    if degradation == "bd":
        from scipy import ndimage
        sigma = 0.4 * scale
        source = np.clip(ndimage.gaussian_filter(hr, sigma=(sigma, sigma, 0)), 0, 1)
    elif degradation == "bicubic":
        source = hr
    else:
        raise KeyError(f"unknown degradation {degradation!r}")
    return SRPair(lr=downscale(source, scale), hr=hr, name=name)


def hr_images(suite: str, n_images: Optional[int] = None,
              size: Tuple[int, int] = (64, 64)) -> List[np.ndarray]:
    """The HR images of a suite (deterministic in suite name and index)."""
    if suite not in _SUITE_SEEDS:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(_SUITE_SEEDS)}")
    kinds = _SUITE_KINDS[suite]
    count = n_images if n_images is not None else _SUITE_DEFAULT_SIZE[suite]
    base = _SUITE_SEEDS[suite]
    h, w = size
    return [synthetic.generate(kinds[i % len(kinds)], base + i, h, w)
            for i in range(count)]


def benchmark_suite(suite: str, scale: int = 2, n_images: Optional[int] = None,
                    size: Tuple[int, int] = (64, 64),
                    lr_multiple: int = 1, degradation: str = "bd") -> List[SRPair]:
    """LR/HR pairs for one of the four evaluation suites (or ``div2k``)."""
    images = hr_images(suite, n_images, size)
    return [make_pair(img, scale, name=f"{suite}_{i:03d}", lr_multiple=lr_multiple,
                      degradation=degradation)
            for i, img in enumerate(images)]


def training_pool(scale: int = 2, n_images: int = 25,
                  size: Tuple[int, int] = (96, 96),
                  lr_multiple: int = 1, degradation: str = "bd") -> List[SRPair]:
    """The DIV2K-substitute training set."""
    return benchmark_suite("div2k", scale, n_images, size, lr_multiple, degradation)
