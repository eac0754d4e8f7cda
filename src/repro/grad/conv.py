"""Convolution and pooling with autograd support.

``conv2d`` is the computational core of every CNN-based SR network in the
paper (SRResNet/EDSR/RDN/RCAN) and of the binary convolution layers.  It is
implemented as im2col + GEMM: a zero-copy, read-only strided window
view (the shape and strides ``sliding_window_view`` would give, built
directly with ``as_strided``) followed by a single BLAS-backed matmul
over the batch.  The window view never materializes the
``(B, C, kh, kw, H_out, W_out)`` patch tensor; the only copy is the one
packing the strided view into the GEMM operand layout.  Zero padding is
a zeroed buffer with the input copied into its interior.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


def conv2d_output_shape(
    in_shape: Tuple[int, int],
    kernel: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tuple[int, int]:
    """Spatial output size of a 2-D convolution."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    h, w = in_shape
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    return out_h, out_w


def _scatter_patches(grad_patches: np.ndarray, x_shape: Tuple[int, ...],
                     kh: int, kw: int, sh: int, sw: int,
                     out_h: int, out_w: int) -> np.ndarray:
    """col2im: overlap-add ``(B, C, kh, kw, out_h, out_w)`` patch
    gradients back onto the ``x_shape`` input."""
    gx = np.zeros(x_shape, dtype=grad_patches.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i:i + out_h * sh:sh, j:j + out_w * sw:sw] += grad_patches[:, :, i, j]
    return gx


def _zero_pad(x: np.ndarray, pads: Tuple[int, ...]) -> np.ndarray:
    """``x`` zero-padded by ``pads[i]`` on both sides of trailing axis
    ``i`` (``np.pad`` in constant mode, without its per-call set-up)."""
    lead = x.ndim - len(pads)
    out = np.zeros(x.shape[:lead] + tuple(n + 2 * p for n, p in
                                          zip(x.shape[lead:], pads)),
                   dtype=x.dtype)
    out[(...,) + tuple(slice(p, p + n) for n, p in
                       zip(x.shape[lead:], pads))] = x
    return out


def _window_view(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Zero-copy, read-only strided window view of shape
    (B, C, out_h, out_w, kh, kw)."""
    b, c, h, w = x.shape
    s_b, s_c, s_h, s_w = x.strides
    return as_strided(
        x, (b, c, (h - kh) // sh + 1, (w - kw) // sw + 1, kh, kw),
        (s_b, s_c, s_h * sh, s_w * sw, s_h, s_w), writeable=False)


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            out_h: int, out_w: int) -> np.ndarray:
    """Patch matrix of shape (B, C*kh*kw, out_h*out_w) for GEMM: the
    zero-copy window view, packed into the column layout with a single
    vectorized copy."""
    b, c = x.shape[:2]
    view = _window_view(x, kh, kw, sh, sw)
    return view.transpose(0, 1, 4, 5, 2, 3).reshape(
        b, c * kh * kw, out_h * out_w)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input.

    Parameters mirror ``torch.nn.functional.conv2d`` (no dilation/groups,
    which the paper's networks do not use).
    """
    b, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv2d_output_shape((h, w), (kh, kw), (sh, sw), (ph, pw))
    if out_h <= 0 or out_w <= 0:
        raise ValueError("convolution output would be empty")

    x_pad = _zero_pad(x.data, (ph, pw)) if (ph or pw) else x.data
    cols = _im2col(x_pad, kh, kw, sh, sw, out_h, out_w)
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    out = np.matmul(w_mat, cols).reshape(b, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, send):
        grad_mat = grad.reshape(b, c_out, out_h * out_w)
        gw = np.tensordot(grad_mat, cols, axes=([0, 2], [0, 2]))
        gcols = np.matmul(w_mat.T, grad_mat)
        send(weight, gw.reshape(weight.shape))
        gpatches = gcols.reshape(b, c_in, kh, kw, out_h, out_w)
        gx_pad = _scatter_patches(gpatches, x_pad.shape, kh, kw, sh, sw, out_h, out_w)
        if ph or pw:
            gx = gx_pad[:, :, ph:ph + h, pw:pw + w]
        else:
            gx = gx_pad
        send(x, gx)
        if bias is not None:
            send(bias, grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out, parents, backward)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D convolution over (B, C, L) input.

    Used by the channel-wise re-scaling module of SCALES (Fig. 7), which
    applies a Conv1d with kernel size 5 across the channel axis.
    """
    b, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    out_l = (length + 2 * padding - k) // stride + 1
    if out_l <= 0:
        raise ValueError("conv1d output would be empty")

    x_pad = _zero_pad(x.data, (padding,)) if padding else x.data
    s_b, s_c, s_l = x_pad.strides
    view = as_strided(x_pad, (b, c_in, out_l, k),
                      (s_b, s_c, s_l * stride, s_l), writeable=False)
    # (B, C, out_l, k) -> (B, C*k, out_l); single packing copy.
    cols = view.transpose(0, 1, 3, 2).reshape(b, c_in * k, out_l)
    w_mat = weight.data.reshape(c_out, c_in * k)
    out = np.matmul(w_mat, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, send):
        gw = np.tensordot(grad, cols, axes=([0, 2], [0, 2]))
        gcols = np.matmul(w_mat.T, grad)
        send(weight, gw.reshape(weight.shape))
        gpatches = gcols.reshape(b, c_in, k, out_l)
        gx_pad = np.zeros(x_pad.shape, dtype=grad.dtype)
        for i in range(k):
            gx_pad[:, :, i:i + out_l * stride:stride] += gpatches[:, :, i]
        gx = gx_pad[:, :, padding:padding + length] if padding else gx_pad
        send(x, gx)
        if bias is not None:
            send(bias, grad.sum(axis=(0, 2)))

    return Tensor._make(out, parents, backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C, 1, 1) spatial mean.

    The aggregation step of the channel-wise re-scaling branch.
    """
    b, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3), keepdims=True)

    def backward(grad, send):
        send(x, np.broadcast_to(grad / (h * w), x.shape))

    return Tensor._make(data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling (no padding).

    Reduces directly over the zero-copy window view, so no patch tensor
    is ever materialized.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else kernel)
    b, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("pooling window is larger than the input")
    data = _window_view(x.data, kh, kw, sh, sw).mean(axis=(4, 5))

    def backward(grad, send):
        gpatches = np.broadcast_to(
            grad[:, :, None, None] / (kh * kw), (b, c, kh, kw, out_h, out_w)
        )
        send(x, _scatter_patches(gpatches, x.shape, kh, kw, sh, sw, out_h, out_w))

    return Tensor._make(data, (x,), backward)
