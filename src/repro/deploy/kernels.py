"""XNOR-popcount compute kernels on packed operands.

The arithmetic identity all of this rests on: for two {-1, +1} vectors
``a``, ``b`` of length ``K`` packed into words with equal padding bits,

``dot(a, b) = K - 2 * popcount(pack(a) XOR pack(b))``

because every agreeing position contributes +1 and every disagreeing
position -1, and the zero-padding bits agree by construction so they
never enter the popcount.

``binary_gemm`` is weight-stationary in spirit: it streams the packed
activations one word-column at a time against the whole packed weight
panel, accumulating mismatch counts in a single ``(block, N)`` buffer.
The popcount runs through ``np.bitwise_count`` (hardware POPCNT), and
the per-word counts accumulate in ``uint16`` — a quarter of the traffic
of an ``int64`` accumulator on a loop that is purely memory-bound.

Activations reach the GEMM as lane-packed bitplanes.  Each pixel's
channels are packed once per image into the narrowest lane that holds
them: 8, 16 or 32 bits when ``C_in`` <= 8, 16 or 32, otherwise
``64 * ceil(C_in / 64)`` bits.  im2col then gathers whole lanes, so one
GEMM row of a ``kh x kw`` conv is ``kh * kw`` lanes laid end to end,
zero-filled to a whole number of 64-bit words: a 32-channel 3x3 conv
runs ``ceil(9 * 32 / 64) = 5`` words per row where whole-word pixels
would take 9.  The weight rows are staged the same way, so both
operands hold 0-bits in the same lane tails and the GEMM identity
holds.

Scratch panels (XOR, counts, accumulators, staging rows, padded bit
images) come from the per-thread :mod:`repro.deploy.workspace` arena,
so repeated same-shape calls — every tile of a tiled forward — reuse
them.  The packed operands themselves (``np.packbits`` outputs)
are still fresh per call: ``packbits`` has no ``out=`` parameter, and
copying its result into an arena buffer would cost the same pass it
saves.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..grad.conv import _window_view, conv2d_output_shape
from .packing import WORD_BITS, packed_words, pack_signs
from .workspace import Workspace, workspace

__all__ = [
    "binary_gemm", "pack_weight_conv", "pack_weight_linear",
    "FastConvWeight", "packed_conv2d_bits",
    "FastLinearWeight", "packed_linear_bits",
]

#: Row-block size for the GEMM working set; (block, N) uint64 panels
#: should stay L2-resident.
_GEMM_BLOCK = 2048


def binary_gemm(packed_a: np.ndarray, packed_b: np.ndarray, k: int,
                block: int = _GEMM_BLOCK,
                b_t: Optional[np.ndarray] = None,
                out: Optional[np.ndarray] = None,
                ws: Optional[Workspace] = None) -> np.ndarray:
    """Binary matrix product ``signs_a @ signs_b.T`` via XNOR + popcount.

    Parameters
    ----------
    packed_a:
        ``uint64`` array ``(M, W)`` — M packed rows.
    packed_b:
        ``uint64`` array ``(N, W)`` — N packed rows.
    k:
        The true (unpadded) number of bits per row.
    block:
        Row-block size bounding the ``(block, N)`` accumulation /
        XOR-scratch workspace.
    b_t:
        Optional precomputed contiguous transpose ``(W, N)`` of
        ``packed_b``.  Weight-stationary callers pass it so the panel is
        transposed once per layer instead of once per call.
    out:
        Optional ``(M, N) int32`` destination (e.g. an arena buffer when
        the caller immediately folds the dots into its own output).
    ws:
        Scratch arena; defaults to the calling thread's workspace.

    Returns
    -------
    ``int32`` array ``(M, N)`` of exact {-1,+1} dot products.
    """
    packed_a = np.asarray(packed_a, dtype=np.uint64)
    packed_b = np.asarray(packed_b, dtype=np.uint64)
    if packed_a.ndim != 2 or packed_b.ndim != 2:
        raise ValueError("binary_gemm expects 2-D packed operands")
    if packed_a.shape[1] != packed_b.shape[1]:
        raise ValueError(
            f"word-count mismatch: {packed_a.shape[1]} vs {packed_b.shape[1]}")
    m, n_words = packed_a.shape
    n = packed_b.shape[0]
    if ws is None:
        ws = workspace()
    if out is None:
        out = np.empty((m, n), dtype=np.int32)
    rows = min(block, m) if m else 0
    xor = ws.take("gemm_xor", (rows, n), np.uint64)
    cnt = ws.take("gemm_cnt", (rows, n), np.uint8)
    # Mismatch counts fit uint16 whenever every row has < 2**16 bits;
    # fall back to int64 for (pathological) wider operands.
    acc_dtype = np.uint16 if n_words * WORD_BITS < (1 << 16) else np.int64
    acc = ws.take("gemm_acc", (rows, n), acc_dtype)
    if b_t is None:
        b_t = ws.take("gemm_bt", (n_words, n), np.uint64)
        np.copyto(b_t, packed_b.T)
    for start in range(0, m, block):
        stop = min(start + block, m)
        r = stop - start
        a_blk = acc[:r]
        a_blk[:] = 0
        for w in range(n_words):
            np.bitwise_xor(packed_a[start:stop, w, None], b_t[w, None, :],
                           out=xor[:r])
            np.bitwise_count(xor[:r], out=cnt[:r])
            a_blk += cnt[:r]
        # out = k - 2 * acc, computed as 2 * (k - acc) - k to stay in
        # int32 without a widening temporary.
        blk = out[start:stop]
        np.subtract(np.int32(k), a_blk, out=blk, casting="unsafe")
        blk <<= 1
        blk -= np.int32(k)
    return out


def _padding_correction(shape: Tuple[int, int], weight_signs: np.ndarray,
                        stride: int, padding: int) -> np.ndarray:
    """Output-plane correction for zero padding.

    The float graph pads the *binarized* activations with zeros, but a
    packed operand can only hold {-1, +1}; the packed kernel therefore
    behaves as if the border were -1.  The difference at each padded
    position is ``0 - (-1) = +1`` per weight tap, so adding the
    convolution of the padding indicator with the weight signs restores
    exact equality:

    ``out_float = out_packed + conv(pad_mask, sign(w))``

    Returns an array ``(C_out, H_out, W_out)`` (zero when ``padding == 0``).

    This depends only on the input geometry and the frozen weights, never
    on the activation values — :class:`repro.deploy.engine
    .PackedBinaryConv2d` memoizes it per input shape rather than
    reconvolving the border mask every forward.
    """
    h, w = shape
    c_out, c_in, kh, kw = weight_signs.shape
    out_h, out_w = conv2d_output_shape((h + 2 * padding, w + 2 * padding),
                                       (kh, kw), stride, 0)
    if padding == 0:
        return np.zeros((c_out, out_h, out_w), dtype=weight_signs.dtype)
    mask = np.ones((1, 1, h + 2 * padding, w + 2 * padding),
                   dtype=weight_signs.dtype)
    mask[:, :, padding:padding + h, padding:padding + w] = 0.0
    # All input channels share the padding mask: sum weight signs over C_in.
    w_taps = weight_signs.sum(axis=1).reshape(c_out, kh * kw)
    # (out_h, out_w, kh, kw) windows -> (kh*kw, out_h*out_w) columns.
    windows = _window_view(mask, kh, kw, stride, stride)[0, 0]
    cols = windows.transpose(2, 3, 0, 1).reshape(kh * kw, out_h * out_w)
    return (w_taps @ cols).reshape(c_out, out_h, out_w)


def pack_weight_conv(weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pack a conv weight ``(C_out, C_in, kh, kw)``.

    Returns ``(packed_rows, weight_signs)`` where ``packed_rows`` is
    ``(C_out, words)`` over the flattened ``(C_in, kh, kw)`` taps — the
    artifact's on-disk weight layout — and ``weight_signs`` is the
    float sign tensor the zero-padding correction is built from.
    """
    weight = np.asarray(weight)
    c_out = weight.shape[0]
    signs = np.where(weight >= 0, 1.0, -1.0)
    packed = pack_signs(signs.reshape(c_out, -1))
    return packed, signs


def pack_weight_linear(weight: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a linear weight ``(out_features, in_features)``.

    Returns ``(packed_rows, in_features)``.
    """
    weight = np.asarray(weight)
    signs = np.where(weight >= 0, 1.0, -1.0)
    return pack_signs(signs), weight.shape[1]


# ----------------------------------------------------------------------
# Bit-domain conv/linear (the packed layers' kernels)
# ----------------------------------------------------------------------

def _lane_bits(c_in: int) -> int:
    """Bits one pixel's channels occupy in the activation bitplane."""
    for lane in (8, 16, 32):
        if c_in <= lane:
            return lane
    return packed_words(c_in) * WORD_BITS


class FastConvWeight:
    """Frozen conv weights packed for :func:`packed_conv2d_bits`.

    Attributes
    ----------
    packed / packed_t:
        ``(C_out, words)`` packed rows and the contiguous ``(words,
        C_out)`` transpose handed to :func:`binary_gemm` (transposed once
        here — weight-stationary).
    c_pad:
        Lane width in bits: the channel count of the activation-bit
        image this weight expects (8, 16 or 32 for ``C_in`` up to that,
        else ``ceil(C_in/64)*64``).  Channels beyond ``C_in`` hold
        0-bits in both operands, so the GEMM identity is preserved.
    words:
        ``ceil(kh*kw*c_pad / 64)`` words per GEMM row; the bits past
        ``kh*kw*c_pad`` are 0 in both operands too.
    """

    __slots__ = ("packed", "packed_t", "k", "words",
                 "c_in", "c_out", "kh", "kw", "c_pad")

    def __init__(self, weight: np.ndarray):
        weight = np.asarray(weight)
        c_out, c_in, kh, kw = weight.shape
        self.c_out, self.c_in, self.kh, self.kw = c_out, c_in, kh, kw
        self.k = c_in * kh * kw
        self.c_pad = _lane_bits(c_in)
        self.words = packed_words(kh * kw * self.c_pad)
        staged = np.zeros((c_out, kh, kw, self.c_pad), dtype=np.uint8)
        staged[..., :c_in] = (weight >= 0).transpose(0, 2, 3, 1)
        lanes = np.packbits(staged.reshape(c_out, -1), axis=1,
                            bitorder="little")
        packed = np.zeros((c_out, self.words * 8), dtype=np.uint8)
        packed[:, :lanes.shape[1]] = lanes
        self.packed = packed.view("<u8")
        self.packed_t = np.ascontiguousarray(self.packed.T)


def packed_conv2d_bits(bits: np.ndarray, fw: FastConvWeight, stride: int = 1,
                       out: Optional[np.ndarray] = None,
                       ws: Optional[Workspace] = None) -> np.ndarray:
    """Binary conv on an NHWC activation-bit image.

    Parameters
    ----------
    bits:
        ``(B, Hp, Wp, fw.c_pad)`` ``uint8`` 0/1 image, *already padded*:
        spatial border and channels beyond ``fw.c_in`` must hold 0-bits
        (the caller adds the cached zero-padding correction — a 0-bit
        border is a -1 border to the packed kernel).  ``fw.c_pad`` is
        the lane width: the channels of each pixel pack into one 8-,
        16- or 32-bit lane, or into ``c_pad / 64`` words.
    fw:
        Packed weights from :class:`FastConvWeight`.
    out:
        Optional ``(B*H_out*W_out, C_out) int32`` destination for the
        raw dots.

    Returns
    -------
    ``(B*H_out*W_out, C_out) int32`` dot products; row ``b*(H_out*W_out)
    + y*W_out + x`` is output position (y, x) of batch item b — the
    caller scales/reshapes (see ``PackedBinaryConv2d.forward``).
    """
    if ws is None:
        ws = workspace()
    b, hp, wp, c_pad = bits.shape
    if c_pad != fw.c_pad:
        raise ValueError(f"bit image has {c_pad} channels, expected {fw.c_pad}")
    kh, kw = fw.kh, fw.kw
    out_h, out_w = conv2d_output_shape((hp, wp), (kh, kw), stride, 0)
    m = b * out_h * out_w
    # One lane is `size` bytes; a pixel spans `n` lanes (n > 1 only for
    # C_in > 64, whose lanes are whole words).
    size = min(c_pad, WORD_BITS) // 8
    n = c_pad // (8 * size)
    lane = np.dtype(f"<u{size}")
    planes = np.packbits(bits.reshape(b, hp, wp * c_pad), axis=2,
                         bitorder="little").view(lane).reshape(b, hp, wp, n)
    view = sliding_window_view(planes, (kh, kw), axis=(1, 2))
    if stride != 1:
        view = view[:, ::stride, ::stride]
    # Rows are zero-created and only their leading kh*kw*n lanes are
    # ever written, so the tail stays 0.  The tag carries the lane
    # width and the taps: two geometries with equal M and words but
    # different kh*kw*c_pad must not share a buffer (the fuller one's
    # bits would leak into the other's tail).
    rows = ws.take(f"convrows{c_pad}k{kh}x{kw}w{fw.words}", (m, fw.words),
                   "<u8", zero_on_create=True)
    row_bytes = fw.words * 8
    # Writable 6-D window onto the leading lanes of each row
    # (rows[:, :k].reshape(...) may silently copy).
    target = np.lib.stride_tricks.as_strided(
        rows.view(lane), shape=(b, out_h, out_w, kh, kw, n),
        strides=(out_h * out_w * row_bytes, out_w * row_bytes, row_bytes,
                 kw * n * size, n * size, size))
    np.copyto(target, view.transpose(0, 1, 2, 4, 5, 3))
    return binary_gemm(rows, fw.packed, fw.k, b_t=fw.packed_t,
                       out=out, ws=ws)


class FastLinearWeight:
    """Frozen linear weights packed for :func:`packed_linear_bits`."""

    __slots__ = ("packed", "packed_t", "k", "words", "out_features")

    def __init__(self, weight: np.ndarray):
        weight = np.asarray(weight)
        self.out_features, self.k = weight.shape
        self.words = packed_words(self.k)
        self.packed = pack_signs(np.where(weight >= 0, 1.0, -1.0))
        self.packed_t = np.ascontiguousarray(self.packed.T)


def packed_linear_bits(bits: np.ndarray, fw: FastLinearWeight,
                       out: Optional[np.ndarray] = None,
                       ws: Optional[Workspace] = None) -> np.ndarray:
    """Binary linear on a ``(M, words*64)`` uint8 activation-bit panel.

    ``bits`` columns beyond ``fw.k`` must be 0 (the staging buffer is
    zero-created by the arena and only the true features are written).
    Returns ``(M, out_features) int32`` raw dots.
    """
    if ws is None:
        ws = workspace()
    packed_rows = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    return binary_gemm(packed_rows, fw.packed, fw.k, b_t=fw.packed_t,
                       out=out, ws=ws)
