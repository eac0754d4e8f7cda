"""SSIM (Wang et al., 2004) with the standard Gaussian window.

Computed on the Y channel with an 11x11 Gaussian window (sigma = 1.5) and
the usual constants K1 = 0.01, K2 = 0.03 — the configuration SR papers
(including this one) report.
"""

from __future__ import annotations

import numpy as np

from ..data.color import rgb_to_y, shave_border


def _gaussian_filter(img: np.ndarray, sigma: float, truncate: float) -> np.ndarray:
    from scipy import ndimage
    return ndimage.gaussian_filter(img, sigma=sigma, truncate=truncate, mode="reflect")


def ssim(sr: np.ndarray, hr: np.ndarray, shave: int = 0, max_value: float = 1.0,
         sigma: float = 1.5, k1: float = 0.01, k2: float = 0.03) -> float:
    """Mean structural similarity between two single-channel images."""
    if sr.shape != hr.shape:
        raise ValueError(f"shape mismatch: {sr.shape} vs {hr.shape}")
    if sr.ndim != 2:
        raise ValueError("ssim expects single-channel images; use ssim_y for RGB")
    if shave:
        sr = shave_border(sr, shave)
        hr = shave_border(hr, shave)
    x = sr.astype(np.float64)
    y = hr.astype(np.float64)
    # 11x11 window: truncate at 5 pixels for sigma 1.5 -> radius 5.
    truncate = 5.0 / (2 * sigma) * 1.5 if sigma != 1.5 else 3.3333333333
    c1 = (k1 * max_value) ** 2
    c2 = (k2 * max_value) ** 2
    mu_x = _gaussian_filter(x, sigma, truncate)
    mu_y = _gaussian_filter(y, sigma, truncate)
    mu_x2 = mu_x * mu_x
    mu_y2 = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_x2 = _gaussian_filter(x * x, sigma, truncate) - mu_x2
    sigma_y2 = _gaussian_filter(y * y, sigma, truncate) - mu_y2
    sigma_xy = _gaussian_filter(x * y, sigma, truncate) - mu_xy
    numerator = (2 * mu_xy + c1) * (2 * sigma_xy + c2)
    denominator = (mu_x2 + mu_y2 + c1) * (sigma_x2 + sigma_y2 + c2)
    return float(np.mean(numerator / denominator))


def ssim_y(sr_rgb: np.ndarray, hr_rgb: np.ndarray, shave: int = 0) -> float:
    """SSIM over the BT.601 luma channel, as reported in Tables III–VI."""
    return ssim(rgb_to_y(sr_rgb), rgb_to_y(hr_rgb), shave=shave)
