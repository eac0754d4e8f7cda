"""Shared building blocks of the SR architectures (Fig. 2).

Every network follows the head / body / tail decomposition the paper
describes: the head extracts shallow features with a FP conv, the body
stacks basic blocks (these are where binarization happens), and the tail
reconstructs the HR image with conv + pixel shuffle.  Following the
paper's experimental protocol, head and tail are never binarized.
"""

from __future__ import annotations

import math
from typing import Callable

from .. import grad as G
from ..grad import Tensor
from ..nn import (
    BatchNorm2d,
    Conv2d,
    Identity,
    Module,
    PixelShuffle,
    PReLU,
    ReLU,
    Sequential,
)

ConvFactory = Callable[[int, int, int], Module]


def fp_conv_factory(in_channels: int, out_channels: int, kernel_size: int) -> Module:
    """The default full-precision conv used when no scheme is requested."""
    return Conv2d(in_channels, out_channels, kernel_size)


class Upsampler(Sequential):
    """Tail upsampling: (conv -> pixel shuffle) per factor-of-2, or x3.

    Always full precision, as in the paper's protocol.
    """

    def __init__(self, scale: int, n_feats: int):
        modules = []
        if scale & (scale - 1) == 0 and scale != 1:  # power of two
            for _ in range(int(math.log2(scale))):
                modules.append(Conv2d(n_feats, 4 * n_feats, 3))
                modules.append(PixelShuffle(2))
        elif scale == 3:
            modules.append(Conv2d(n_feats, 9 * n_feats, 3))
            modules.append(PixelShuffle(3))
        elif scale == 1:
            modules.append(Identity())
        else:
            raise ValueError(f"unsupported scale {scale}")
        super().__init__(*modules)
        self.scale = scale
        self.n_feats = n_feats


class ResidualBlock(Module):
    """conv -> (BN) -> act -> conv -> (BN), with a block-level skip.

    The basic block of SRResNet (with BN) and EDSR (without BN, with
    ``res_scale``).  ``conv_factory`` decides whether the two convs are
    full precision or one of the binary schemes.
    """

    def __init__(self, n_feats: int, conv_factory: ConvFactory = fp_conv_factory,
                 use_bn: bool = False, act: str = "relu", res_scale: float = 1.0,
                 kernel_size: int = 3):
        super().__init__()
        self.res_scale = res_scale
        self.conv1 = conv_factory(n_feats, n_feats, kernel_size)
        self.bn1 = BatchNorm2d(n_feats) if use_bn else Identity()
        self.act = PReLU() if act == "prelu" else ReLU()
        self.conv2 = conv_factory(n_feats, n_feats, kernel_size)
        self.bn2 = BatchNorm2d(n_feats) if use_bn else Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn2(self.conv2(self.act(self.bn1(self.conv1(x)))))
        if self.res_scale != 1.0:
            out = out * self.res_scale
        return out + x


class MeanShift(Module):
    """Subtract (or add back) a fixed channel mean, as EDSR does for RGB.

    For the synthetic datasets the mean is 0.5 per channel (images live in
    [0, 1]).
    """

    def __init__(self, mean=(0.5, 0.5, 0.5), sign: int = -1):
        super().__init__()
        import numpy as np
        self._shift = sign * np.asarray(mean, dtype=np.float64).reshape(1, -1, 1, 1)

    def forward(self, x: Tensor) -> Tensor:
        return x + Tensor(self._shift)


def zero_init_last_conv(module: Module) -> None:
    """Zero the last conv of a tail so the initial output is exactly the
    bicubic residual baseline (training can then only improve on it)."""
    last = None
    for sub in module.modules():
        if isinstance(sub, Conv2d):
            last = sub
    if last is not None:
        last.weight.data[...] = 0.0
        if last.bias is not None:
            last.bias.data[...] = 0.0


def bicubic_residual(x: Tensor, scale: int) -> Tensor:
    """Bicubic-upsampled input as a constant image-space residual.

    The binary SR literature (E2FIF, BTM) reconstructs the *residual* on
    top of a cheap interpolation of the LR input; the interpolation is a
    constant w.r.t. the parameters, so it enters the graph as data.

    The batch resizes in one call, viewed as one ``(H, W, C, B)`` image;
    each output equals upscaling its image alone, bit for bit.  Images
    with one value per row (``C * W == 1``) are the exception: alone,
    their row pass sums the taps in another order, so they resize one
    at a time.
    """
    import numpy as np

    from ..data.resize import upscale

    images = x.data
    b, c, _, w = images.shape
    step = 1 if c * w == 1 else b
    ups = np.concatenate([
        upscale(images[i:i + step].transpose(2, 3, 1, 0), scale)
        .transpose(3, 2, 0, 1)
        for i in range(0, b, step)
    ], dtype=G.get_default_dtype())
    return Tensor(ups)


class CALayer(Module):
    """Squeeze-and-excitation channel attention (used by RCAN and HAT)."""

    def __init__(self, n_feats: int, reduction: int = 4):
        super().__init__()
        hidden = max(n_feats // reduction, 1)
        self.down = Conv2d(n_feats, hidden, 1)
        self.act = ReLU()
        self.up = Conv2d(hidden, n_feats, 1)

    def forward(self, x: Tensor) -> Tensor:
        pooled = G.global_avg_pool2d(x)
        weights = G.sigmoid(self.up(self.act(self.down(pooled))))
        return x * weights
