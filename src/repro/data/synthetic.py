"""Procedural image generator — the DIV2K / benchmark-set substitute.

The paper trains on DIV2K and evaluates on Set5 / Set14 / B100 / Urban100.
Those images cannot ship with an offline reproduction, so this module
synthesizes images with the structural properties SR cares about:

* oriented sinusoidal gratings (the stripes of Fig. 9b where E2FIF fails),
* checkerboards and rectangles (repeated geometry, the Urban100 regime),
* smooth gradients and Gaussian blobs (the Set5 regime),
* band-limited noise textures (the B100 regime).

Every generator is deterministic in its seed, so datasets are exactly
reproducible across runs and machines.

Recoverability
--------------
All periodic structure is kept above the Nyquist limit of the coarsest
LR grid the experiments use (x4): a wavelength below ``2 * scale`` HR
pixels aliases into a *false* low-frequency pattern in the LR image, which
no SR method can undo — trained models then hallucinate plausible-but-
wrong texture and lose PSNR to bicubic blur, inverting every comparison
the paper makes.  :data:`MIN_RECOVERABLE_WAVELENGTH` (2.5 x the max scale,
with margin for the BD blur) is therefore the floor for stripe
wavelengths and checkerboard periods, and noise textures are smoothed
until their spectrum is negligible beyond the x4 LR Nyquist frequency.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

#: Smallest wavelength (HR pixels) that survives x4 downscaling + BD blur.
MIN_RECOVERABLE_WAVELENGTH = 10.0


def _coords(h: int, w: int):
    y, x = np.mgrid[0:h, 0:w]
    return y / max(h - 1, 1), x / max(w - 1, 1)


def _random_color(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.15, 0.85, size=3)


def gradient_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Smooth linear gradient between two random colors."""
    y, x = _coords(h, w)
    theta = rng.uniform(0, 2 * np.pi)
    ramp = x * np.cos(theta) + y * np.sin(theta)
    ramp = (ramp - ramp.min()) / max(np.ptp(ramp), 1e-9)
    c0, c1 = _random_color(rng), _random_color(rng)
    return ramp[..., None] * c1 + (1 - ramp[..., None]) * c0


def stripe_image(rng: np.random.Generator, h: int, w: int,
                 min_wavelength: float = MIN_RECOVERABLE_WAVELENGTH,
                 max_wavelength: float = 36.0) -> np.ndarray:
    """Oriented sinusoidal grating — high-frequency content SR must recover.

    Wavelength is expressed in *pixels* so training and evaluation images
    of different sizes share identical per-pixel statistics, and is floored
    at :data:`MIN_RECOVERABLE_WAVELENGTH` so the pattern survives x4
    downscaling (see the module docstring).
    """
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    theta = rng.uniform(0, np.pi)
    wavelength = rng.uniform(min_wavelength, max_wavelength)
    phase = rng.uniform(0, 2 * np.pi)
    wave = 0.5 + 0.5 * np.sin(
        2 * np.pi / wavelength * (x * np.cos(theta) + y * np.sin(theta)) + phase)
    if rng.random() < 0.5:  # square-wave variant: hard edges
        wave = (wave > 0.5).astype(np.float64)
    c0, c1 = _random_color(rng), _random_color(rng)
    return wave[..., None] * c1 + (1 - wave[..., None]) * c0


def checkerboard_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Axis-aligned checkerboard (windows-of-a-building regime).

    The cell size is floored at half of :data:`MIN_RECOVERABLE_WAVELENGTH`
    (one checker period spans two cells) so the grid survives x4 LR.
    """
    cell = int(rng.integers(6, 17))  # pixel-based: size-independent statistics
    y, x = np.mgrid[0:h, 0:w]
    pattern = ((y // cell + x // cell) % 2).astype(np.float64)
    c0, c1 = _random_color(rng), _random_color(rng)
    return pattern[..., None] * c1 + (1 - pattern[..., None]) * c0


def rectangle_image(rng: np.random.Generator, h: int, w: int,
                    n_rects: int = 6) -> np.ndarray:
    """Random filled rectangles over a base color (man-made structure)."""
    img = np.ones((h, w, 3)) * _random_color(rng)
    for _ in range(n_rects):
        y0 = int(rng.integers(0, h - 2))
        x0 = int(rng.integers(0, w - 2))
        y1 = int(rng.integers(y0 + 1, h))
        x1 = int(rng.integers(x0 + 1, w))
        img[y0:y1, x0:x1] = _random_color(rng)
    return img


def blob_image(rng: np.random.Generator, h: int, w: int,
               n_blobs: int = 4, texture_amount: float = 0.06) -> np.ndarray:
    """Soft Gaussian blobs on a smooth background (Set5-like smoothness).

    A faint fine-grained texture keeps the image from being perfectly
    band-limited (a pure blob field is reconstructed exactly by bicubic
    interpolation, which would make the suite uninformative).
    """
    img = gradient_image(rng, h, w)
    y, x = np.mgrid[0:h, 0:w]
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sigma = rng.uniform(5.0, 18.0)  # pixels, size-independent
        bump = np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * sigma ** 2))
        img += bump[..., None] * (_random_color(rng) - 0.5)
    if texture_amount:
        from scipy import ndimage
        grain = ndimage.gaussian_filter(rng.normal(size=(h, w, 3)),
                                        sigma=(1.4, 1.4, 0))
        img += texture_amount * grain
    return img


def texture_image(rng: np.random.Generator, h: int, w: int,
                  smoothness: float = 2.2) -> np.ndarray:
    """Band-limited noise texture (B100 natural-texture regime).

    ``smoothness`` is the Gaussian sigma shaping the noise spectrum; 2.2
    leaves < 5% of the energy beyond the x4 LR Nyquist frequency, so the
    texture is recoverable rather than irreducible noise.
    """
    from scipy import ndimage
    noise = rng.normal(size=(h, w, 3))
    smooth = ndimage.gaussian_filter(noise, sigma=(smoothness, smoothness, 0))
    smooth = (smooth - smooth.min()) / max(np.ptp(smooth), 1e-9)
    return 0.2 + 0.6 * smooth


def urban_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Strong repeated geometric structure: gratings + window grids.

    Urban100 is where the paper's headline improvements land (repeated
    stripes and facades), so this generator layers several hard-edged
    periodic structures.
    """
    base = stripe_image(rng, h, w, min_wavelength=MIN_RECOVERABLE_WAVELENGTH,
                        max_wavelength=24.0)
    grid = checkerboard_image(rng, h, w)
    mask_y = int(rng.integers(h // 4, 3 * h // 4))
    base[mask_y:] = 0.7 * grid[mask_y:] + 0.3 * base[mask_y:]
    rects = rectangle_image(rng, h, w, n_rects=3)
    alpha = rng.uniform(0.1, 0.3)
    return (1 - alpha) * base + alpha * rects


def mixed_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """A random blend of all component generators (DIV2K substitute)."""
    generators: List[Callable] = [gradient_image, stripe_image, checkerboard_image,
                                  rectangle_image, blob_image, texture_image]
    k = int(rng.integers(2, 4))
    picks = rng.choice(len(generators), size=k, replace=False)
    weights = rng.dirichlet(np.ones(k))
    img = np.zeros((h, w, 3))
    for weight, pick in zip(weights, picks):
        img += weight * generators[pick](rng, h, w)
    img += rng.normal(0, 0.005, size=img.shape)  # mild sensor noise
    return img


def generate(kind: str, seed: int, h: int, w: int) -> np.ndarray:
    """Generate one image of ``kind`` deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    table: Dict[str, Callable] = {
        "gradient": gradient_image,
        "stripes": stripe_image,
        "checkerboard": checkerboard_image,
        "rectangles": rectangle_image,
        "blobs": blob_image,
        "texture": texture_image,
        "urban": urban_image,
        "mixed": mixed_image,
    }
    if kind not in table:
        raise KeyError(f"unknown image kind {kind!r}; choose from {sorted(table)}")
    return np.clip(table[kind](rng, h, w), 0.0, 1.0)
