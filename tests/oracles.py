"""Reference implementations the production code is checked against.

The library keeps one execution path per operation.  The seed
implementations those paths replaced live here as test oracles and as
the timing baselines of ``benchmarks/`` (imported there as
``tests.oracles``):

* popcounts — the 16-bit lookup table (:func:`popcount_u64_lut`) and the
  SWAR reduction (:func:`popcount_u64`);
* :func:`binary_gemm_reference` — the seed XNOR-GEMM;
* :func:`packed_conv2d` / :func:`packed_linear` — the seed packed kernels
  (float sign planes, float64 im2col, per-call packing);
* :func:`reference_packed` — runs every packed layer's bit-domain step
  through the seed forward, for whole-model reference runs;
* :class:`SequentialTiledInference` — the one tiled oracle: one forward
  per tile on the calling thread, with its own clip-and-average stitch;
* :func:`self_ensemble_reference` — the seed per-transform loop;
* :func:`bicubic_residual_reference` — the seed per-image bicubic
  residual loop;
* :func:`reference_conv2d` and :func:`reference_conv2d_backward` — naive
  direct convolution and its gradients, the float conv oracle.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

import numpy as np

from repro.deploy.engine import PackedBinaryConv2d, PackedBinaryLinear
from repro.deploy.kernels import _padding_correction
from repro.data.resize import upscale
from repro.deploy.packing import pack_signs
from repro.grad import Tensor, no_grad, thread_default_dtype
from repro.grad.conv import _window_view, conv2d_output_shape
from repro.infer import DIHEDRAL_TRANSFORMS, plan_tiles
from repro.nn import Module
from repro.train import super_resolve

# ----------------------------------------------------------------------
# Popcounts
# ----------------------------------------------------------------------

#: 16-bit popcount lookup table (64 KiB) — 4 lookups per uint64.  Used
#: only by the reference :func:`popcount_u64_lut`.
_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)],
                       dtype=np.uint8)

# SWAR popcount constants (Hacker's Delight, fig. 5-2).
_M1 = np.uint64(0x5555555555555555)   # pairs of bits
_M2 = np.uint64(0x3333333333333333)   # nibbles
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)   # bytes
_H01 = np.uint64(0x0101010101010101)  # byte-sum via multiply-high
_S1 = np.uint64(1)
_S2 = np.uint64(2)
_S4 = np.uint64(4)
_S56 = np.uint64(56)


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (vectorized SWAR).

    Branch-free mask-and-add: fold bit pairs, nibbles and bytes in
    parallel inside each word, then sum the eight byte-counts with a
    multiply-high.
    """
    v = np.array(words, dtype=np.uint64, copy=True)
    return _popcount_u64_inplace(v, np.empty_like(v)).astype(np.uint32)


def _popcount_u64_inplace(v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SWAR popcount that clobbers ``v`` (and ``scratch``) — no allocs.

    ``v`` ends up holding the per-word popcount (values 0..64) as
    ``uint64``; the same array is returned.
    """
    t = scratch
    np.right_shift(v, _S1, out=t)
    t &= _M1
    v -= t                      # v = pairs-of-bits counts
    np.right_shift(v, _S2, out=t)
    t &= _M2
    v &= _M2
    v += t                      # v = nibble counts
    np.right_shift(v, _S4, out=t)
    v += t
    v &= _M4                    # v = byte counts
    v *= _H01                   # top byte = sum of all byte counts
    v >>= _S56
    return v


def popcount_u64_lut(words: np.ndarray) -> np.ndarray:
    """Reference popcount (16-bit LUT, 4 gathers per uint64) — the seed
    implementation."""
    words = np.asarray(words, dtype=np.uint64)
    mask = np.uint64(0xFFFF)
    counts = _POPCOUNT16[(words & mask).astype(np.uint16)].astype(np.uint32)
    for shift in (16, 32, 48):
        counts += _POPCOUNT16[((words >> np.uint64(shift)) & mask).astype(np.uint16)]
    return counts


# ----------------------------------------------------------------------
# Packed kernels
# ----------------------------------------------------------------------

def binary_gemm_reference(packed_a: np.ndarray, packed_b: np.ndarray, k: int,
                          block: int = 1024) -> np.ndarray:
    """The seed XNOR-GEMM: word-streaming SWAR-popcount loop with
    per-call buffers."""
    packed_a = np.asarray(packed_a, dtype=np.uint64)
    packed_b = np.asarray(packed_b, dtype=np.uint64)
    if packed_a.ndim != 2 or packed_b.ndim != 2:
        raise ValueError("binary_gemm expects 2-D packed operands")
    if packed_a.shape[1] != packed_b.shape[1]:
        raise ValueError(
            f"word-count mismatch: {packed_a.shape[1]} vs {packed_b.shape[1]}")
    m, n_words = packed_a.shape
    n = packed_b.shape[0]
    out = np.empty((m, n), dtype=np.int32)
    rows = min(block, m)
    mismatches = np.empty((rows, n), dtype=np.uint64)
    xor = np.empty((rows, n), dtype=np.uint64)
    scratch = np.empty((rows, n), dtype=np.uint64)
    b_t = np.ascontiguousarray(packed_b.T)  # (W, N): unit stride per word
    for start in range(0, m, block):
        stop = min(start + block, m)
        r = stop - start
        acc = mismatches[:r]
        acc[:] = 0
        for w in range(n_words):
            np.bitwise_xor(packed_a[start:stop, w, None], b_t[w, None, :],
                           out=xor[:r])
            acc += _popcount_u64_inplace(xor[:r], scratch[:r])
        out[start:stop] = k - 2 * acc.astype(np.int64)
    return out


def _gather_patches(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                    out_h: int, out_w: int) -> np.ndarray:
    """Gather conv patches into shape (B, C, kh, kw, out_h, out_w) with
    the seed Python loop."""
    b, c = x.shape[:2]
    patches = np.empty((b, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patches[:, :, i, j] = x[:, :, i:i + out_h * sh:sh, j:j + out_w * sw:sw]
    return patches


def im2col_rows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                out_h: int, out_w: int) -> np.ndarray:
    """Patch-major rows of shape (B * out_h * out_w, C*kh*kw).

    Row ``b * (out_h*out_w) + (y * out_w + x)`` holds the flattened
    receptive field at output position (y, x) of batch item ``b`` — the
    activation layout :func:`packed_conv2d` packs into ``uint64`` words.
    """
    b, c = x.shape[:2]
    k = c * kh * kw
    view = _window_view(x, kh, kw, sh, sw)
    return view.transpose(0, 2, 3, 1, 4, 5).reshape(b * out_h * out_w, k)


def packed_conv2d(activation_signs: np.ndarray, packed_weight: np.ndarray,
                  weight_signs: np.ndarray, stride: int = 1,
                  padding: int = 0,
                  padding_correction: Optional[np.ndarray] = None) -> np.ndarray:
    """The seed binary convolution on packed weights.

    ``activation_signs`` is ``(B, C_in, H, W)`` in {-1, +1};
    ``packed_weight`` is ``(C_out, words)`` over ``C_in*kh*kw`` bits (from
    :func:`repro.deploy.pack_weight_conv`); ``weight_signs`` is the
    ``(C_out, C_in, kh, kw)`` float sign tensor used for the zero-padding
    correction (computed on the fly unless ``padding_correction`` is
    given).  Returns the ``(B, C_out, H_out, W_out)`` float64
    ``conv2d(pad(signs), sign(w))``.
    """
    b, c_in, h, w = activation_signs.shape
    c_out, c_in_w, kh, kw = weight_signs.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
    if padding:
        padded = np.full((b, c_in, h + 2 * padding, w + 2 * padding), -1.0,
                         dtype=activation_signs.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = activation_signs
    else:
        padded = activation_signs
    out_h, out_w = conv2d_output_shape(padded.shape[2:], (kh, kw), stride, 0)
    k = c_in * kh * kw
    rows = im2col_rows(padded, kh, kw, stride, stride, out_h, out_w)
    packed_cols = pack_signs(rows)
    dots = binary_gemm_reference(packed_cols, packed_weight, k)
    out = dots.reshape(b, out_h * out_w, c_out).transpose(0, 2, 1)
    out = out.reshape(b, c_out, out_h, out_w).astype(np.float64)
    if padding:
        if padding_correction is None:
            padding_correction = _padding_correction((h, w), weight_signs,
                                                     stride, padding)
        out += padding_correction
    return out


def packed_linear(activation_signs: np.ndarray,
                  packed_weight: np.ndarray, k: int) -> np.ndarray:
    """The seed binary linear layer ``signs @ sign(w).T`` on packed
    weights: ``(..., K)`` signs in, ``(..., out_features)`` float64 out."""
    signs = np.asarray(activation_signs)
    *lead, k_in = signs.shape
    if k_in != k:
        raise ValueError(f"activation feature size {k_in} != weight bits {k}")
    packed_rows = pack_signs(signs.reshape(-1, k))
    dots = binary_gemm_reference(packed_rows, packed_weight, k)
    return dots.astype(np.float64).reshape(*lead, -1)


# ----------------------------------------------------------------------
# Whole-model reference runs
# ----------------------------------------------------------------------

def _conv_forward_reference(self: PackedBinaryConv2d, x: Tensor) -> Tensor:
    """Seed bit-domain step of a packed conv: float sign planes + float64
    im2col."""
    data = np.asarray(x.data, dtype=np.float64)
    if self.alpha is not None:
        u = (data - self.beta) / self.alpha
        signs = np.where(u >= 0, 1.0, -1.0)
        act_scale = float(self.alpha.reshape(-1)[0])
    else:
        signs = np.where(data >= 0, 1.0, -1.0)
        act_scale = 1.0
    correction = self._cached_padding_correction(signs.shape[2:])
    out = packed_conv2d(signs, self.packed_weight, self.weight_signs,
                        stride=self.stride, padding=self.padding,
                        padding_correction=correction)
    out *= act_scale * self.weight_scale[None, :, None, None]
    if self.conv_bias is not None:
        out += self.conv_bias[None, :, None, None]
    return Tensor(out.astype(data.dtype))


def _linear_forward_reference(self: PackedBinaryLinear, x: Tensor) -> Tensor:
    """Seed bit-domain step of a packed linear."""
    data = np.asarray(x.data, dtype=np.float64)
    if self.alpha is not None:
        u = (data - self.beta) / self.alpha
        signs = np.where(u >= 0, 1.0, -1.0)
        act_scale = float(np.asarray(self.alpha).reshape(-1)[0])
    else:
        signs = np.where(data >= 0, 1.0, -1.0)
        act_scale = 1.0
    out = packed_linear(signs, self.packed_weight, self.in_features)
    out *= act_scale * self.weight_scale
    if self.lin_bias is not None:
        out += self.lin_bias
    return Tensor(out.astype(data.dtype))


@contextlib.contextmanager
def reference_packed() -> Iterator[None]:
    """Run every packed layer's bit-domain step through the seed forward
    (process-wide, restored on exit)."""
    saved = (PackedBinaryConv2d._forward_bits,
             PackedBinaryLinear._forward_bits)
    PackedBinaryConv2d._forward_bits = _conv_forward_reference
    PackedBinaryLinear._forward_bits = _linear_forward_reference
    try:
        yield
    finally:
        (PackedBinaryConv2d._forward_bits,
         PackedBinaryLinear._forward_bits) = saved


class SequentialTiledInference(Module):
    """The oracle of every tiled surface: ``tiled_super_resolve``,
    ``Engine.infer`` and ``InferencePipeline`` with ``tile``, and
    ``StreamSession``.

    Runs one forward per tile of :func:`repro.infer.plan_tiles`'s plan,
    in plan order, on the calling thread.  Each tile's kept region
    (interior edges trimmed) is clipped to [0, 1] in float64 and summed
    onto a float64 canvas beside a per-pixel coverage count; the canvas
    is divided by the count and clipped again.  The stitch is written
    out here rather than taken from ``TileStitcher``.  The scale is read
    off the first tile's output.  NCHW in, float64 NCHW out;
    :meth:`super_resolve` is the ``(H, W, C)`` single-image form.
    """

    def __init__(self, model, tile: int, overlap: int = 8):
        super().__init__()
        self.model = model
        self.tile = tile
        self.overlap = overlap

    def forward(self, x: Tensor) -> Tensor:
        data = np.asarray(x.data)
        b, _, h, w = data.shape
        plan = plan_tiles(h, w, self.tile, self.overlap)
        th, tw = plan.tile_h, plan.tile_w
        canvas = count = None
        for s in plan.tiles:
            out = np.asarray(self.model(Tensor(
                data[:, :, s.y0:s.y0 + th, s.x0:s.x0 + tw])).data)
            if canvas is None:
                scale = out.shape[2] // th
                assert out.shape[2:] == (th * scale, tw * scale), out.shape
                canvas = np.zeros((b, out.shape[1], h * scale, w * scale))
                count = np.zeros((h * scale, w * scale))
            rows = slice((s.y0 + s.top) * scale,
                         (s.y0 + th - s.bottom) * scale)
            cols = slice((s.x0 + s.left) * scale,
                         (s.x0 + tw - s.right) * scale)
            kept = out[:, :, s.top * scale:(th - s.bottom) * scale,
                       s.left * scale:(tw - s.right) * scale]
            canvas[:, :, rows, cols] += np.clip(kept.astype(np.float64),
                                                0.0, 1.0)
            count[rows, cols] += 1.0
        with thread_default_dtype("float64"):  # whatever the default
            return Tensor(np.clip(canvas / count, 0.0, 1.0))

    def super_resolve(self, lr_image: np.ndarray) -> np.ndarray:
        """The float64 ``(H*s, W*s, C)`` output for one HWC image."""
        self.eval()
        x = np.ascontiguousarray(np.asarray(lr_image).transpose(2, 0, 1))
        with no_grad():
            return self(Tensor(x[None])).data[0].transpose(1, 2, 0)


def self_ensemble_reference(model, lr_image: np.ndarray,
                            n_transforms: int = 8) -> np.ndarray:
    """The seed self-ensemble: one ``super_resolve`` call per dihedral
    transform, accumulated in transform order."""
    accumulated: Optional[np.ndarray] = None
    for forward_t, inverse_t in DIHEDRAL_TRANSFORMS[:n_transforms]:
        sr = super_resolve(model, np.ascontiguousarray(forward_t(lr_image)))
        sr = inverse_t(sr)
        accumulated = sr if accumulated is None else accumulated + sr
    return np.clip(accumulated / n_transforms, 0.0, 1.0)


def bicubic_residual_reference(x: Tensor, scale: int) -> Tensor:
    """The seed ``bicubic_residual``: one ``upscale`` call per image."""
    return Tensor(np.stack([
        upscale(img.transpose(1, 2, 0), scale).transpose(2, 0, 1)
        for img in x.data]))


# ----------------------------------------------------------------------
# Float convolution
# ----------------------------------------------------------------------

def _pair(value):
    return (value, value) if isinstance(value, int) else tuple(value)


def reference_conv2d(x, w, b=None, stride=1, padding=0):
    """Naive direct convolution for cross-checking the im2col version."""
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    bsz, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (ww + 2 * pw - kw) // sw + 1
    out = np.zeros((bsz, cout, oh, ow))
    for n in range(bsz):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = x_pad[n, :, i * sh:i * sh + kh,
                                  j * sw:j * sw + kw]
                    out[n, co, i, j] = np.sum(patch * w[co])
            if b is not None:
                out[n, co] += b[co]
    return out


def reference_conv2d_backward(x, w, grad, stride=1, padding=0):
    """Gradients ``(d_x, d_w, d_bias)`` of :func:`reference_conv2d` for
    the upstream gradient ``grad``, by the same direct loops."""
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    bsz, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gx_pad = np.zeros_like(x_pad)
    gw = np.zeros_like(w)
    for n in range(bsz):
        for co in range(cout):
            for i in range(grad.shape[2]):
                for j in range(grad.shape[3]):
                    rows = slice(i * sh, i * sh + kh)
                    cols = slice(j * sw, j * sw + kw)
                    g = grad[n, co, i, j]
                    gw[co] += g * x_pad[n, :, rows, cols]
                    gx_pad[n, :, rows, cols] += g * w[co]
    return (gx_pad[:, :, ph:ph + h, pw:pw + ww], gw,
            grad.sum(axis=(0, 2, 3)))
