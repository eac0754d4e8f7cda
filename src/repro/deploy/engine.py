"""Compile trained binarized SR networks onto the packed kernels.

``compile_model`` walks a trained model and replaces every supported
binary layer with a packed twin whose heavy matmul runs on ``uint64``
words via XNOR + popcount.  Everything the paper keeps in full precision
(head/tail, the tiny spatial / channel re-scaling branches, BatchNorm,
skips, scaling factors and thresholds) is preserved exactly, so the
deployed model's outputs match the training graph's to float tolerance.

Supported source layers:

=====================================  =========================
training layer                         packed twin
=====================================  =========================
``SCALESBinaryConv2d``                 :class:`PackedBinaryConv2d`
``E2FIFBinaryConv2d``                  :class:`PackedBinaryConv2d`
``SCALESBinaryLinear``                 :class:`PackedBinaryLinear`
``BiBERTBinaryLinear``                 :class:`PackedBinaryLinear`
=====================================  =========================

Each packed layer thresholds activations straight into a padded NHWC
bit image (compare against ``beta`` — no ``(x - beta) / alpha`` float
pass, no float64 conversion), gathers/packs in the bit domain
(:func:`repro.deploy.kernels.packed_conv2d_bits`), and folds the integer
dots, scales, padding correction and bias in two fused passes.  All
staging comes from the per-thread workspace arena.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..binarize.baselines import BiBERTBinaryLinear, E2FIFBinaryConv2d
from ..binarize.scales_layers import SCALESBinaryConv2d, SCALESBinaryLinear
from ..grad import Tensor
from ..grad.conv import conv2d_output_shape
from ..grad.tensor import get_default_dtype
from ..nn import Module
from .kernels import (FastConvWeight, FastLinearWeight, _padding_correction,
                      pack_weight_conv, pack_weight_linear,
                      packed_conv2d_bits, packed_linear_bits)
from .workspace import workspace

#: Padding corrections memoized per input geometry on each packed conv.
#: SR workloads see a handful of shapes (train patch, eval tile, full
#: image); a small FIFO keeps the cache bounded even under shape churn.
_CORRECTION_CACHE_SIZE = 8

_MIN_ALPHA = 1e-3  # must match repro.binarize.ste.lsf_binarize


def _safe_alpha(alpha: np.ndarray) -> np.ndarray:
    return np.where(np.abs(alpha) < _MIN_ALPHA,
                    np.where(alpha < 0, -_MIN_ALPHA, _MIN_ALPHA), alpha)


def _weight_scale(weight: np.ndarray) -> np.ndarray:
    """Per-output-channel l1 scale, identical to ``binarize_weight``."""
    reduce_axes = tuple(range(1, weight.ndim))
    return np.abs(weight).mean(axis=reduce_axes)


def _fifo_insert(cache: Dict, key, value, limit: int = _CORRECTION_CACHE_SIZE):
    """Bounded FIFO insert, tolerant of racing evictions from worker threads."""
    if len(cache) >= limit:
        try:
            cache.pop(next(iter(cache)))
        except (KeyError, RuntimeError, StopIteration):  # pragma: no cover
            pass
    cache[key] = value


def _threshold_bits(data: np.ndarray, dest: np.ndarray,
                    alpha: Optional[np.ndarray],
                    beta: Optional[np.ndarray]) -> float:
    """Write activation sign bits of NHWC-viewed ``data`` into ``dest``.

    ``dest`` is the NHWC interior view of the padded bit image; returns
    the activation scale.  ``sign((x - beta) / alpha)`` reduces to a
    single fused compare against ``beta`` whenever ``alpha`` has one
    sign (it always does — ``alpha`` is the paper's layer-wise scalar);
    a general fallback covers mixed-sign per-element alphas.
    """
    src = np.moveaxis(data, 1, -1) if data.ndim == 4 else data
    if alpha is None:
        np.greater_equal(src, 0.0, out=dest)
        return 1.0
    act_scale = float(alpha.reshape(-1)[0])
    thr = np.asarray(beta).reshape(-1)
    if thr.size not in (1, src.shape[-1]):  # pragma: no cover - defensive
        thr = np.moveaxis(np.broadcast_to(beta, data.shape), 1, -1) \
            if data.ndim == 4 else np.broadcast_to(beta, data.shape)
    if np.all(alpha > 0):
        np.greater_equal(src, thr, out=dest)
    elif np.all(alpha < 0):
        np.less_equal(src, thr, out=dest)
    else:  # pragma: no cover - mixed-sign alpha never trained in practice
        u = (data - beta) / alpha
        np.greater_equal(np.moveaxis(u, 1, -1) if u.ndim == 4 else u,
                         0.0, out=dest)
    return act_scale


class PackedBinaryConv2d(Module):
    """Inference-only binary conv on packed weights (drop-in replacement).

    The forward math mirrors the training layer term by term:

    1. activation signs from the layer's binarizer (LSF threshold/scale or
       plain sign);
    2. XNOR-popcount convolution against packed ``sign(w)``;
    3. multiply by ``alpha`` (activation scale) and the per-channel weight
       scale; add bias;
    4. FP re-scaling branches / BatchNorm / skip exactly as trained.

    The layer is weight-stationary: ``sign(w)`` is packed once at
    construction (as the artifact's ``(C_in, kh, kw)`` rows and as the
    kernel's lane-packed rows, transposed GEMM panel included), and the
    zero-padding border correction — a pure function of (input shape,
    stride, padding) and the frozen weights — is memoized per input
    geometry as int32 dots.
    """

    binary = True

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray],
                 stride: int, padding: int,
                 alpha: Optional[np.ndarray], beta: Optional[np.ndarray],
                 spatial: Optional[Module] = None,
                 channel: Optional[Module] = None,
                 bn: Optional[Module] = None, skip: bool = False):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.alpha = None if alpha is None else _safe_alpha(np.asarray(alpha))
        self.beta = None if beta is None else np.asarray(beta)
        self.packed_weight, self.weight_signs = pack_weight_conv(weight)
        self.fast_weight = FastConvWeight(weight)
        self.weight_scale = _weight_scale(weight)
        self.conv_bias = None if bias is None else np.asarray(bias)
        if spatial is not None:
            self.spatial = spatial
        if channel is not None:
            self.channel = channel
        if bn is not None:
            self.bn = bn
        self._has_spatial = spatial is not None
        self._has_channel = channel is not None
        self._has_bn = bn is not None
        self.skip = skip
        self._correction_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._offset_cache: Dict[Tuple[int, int], Optional[np.ndarray]] = {}

    def _cached_padding_correction(self, shape: Tuple[int, int]) -> Optional[np.ndarray]:
        """Border correction for an ``(H, W)`` input, memoized per shape."""
        if not self.padding:
            return None
        correction = self._correction_cache.get(shape)
        if correction is None:
            correction = _padding_correction(shape, self.weight_signs,
                                             self.stride, self.padding)
            _fifo_insert(self._correction_cache, shape, correction)
        return correction

    def _cached_correction_int(self, shape: Tuple[int, int]) -> np.ndarray:
        """Padding correction as int32 ``(H_out*W_out, C_out)``.

        The border correction is integer-valued (a convolution of a 0/1
        mask with ±1 weight signs), so it is added to the raw int32 dots
        *before* scaling — one int pass instead of a float64 plane add,
        with the exact ``(dots + corr) * s`` association.  Stored
        position-major to match the GEMM's ``(B*H_out*W_out, C_out)``
        dot layout (contiguous adds).
        """
        cached = self._offset_cache.get(shape)
        if cached is None:
            correction = self._cached_padding_correction(shape)
            cached = np.ascontiguousarray(
                correction.reshape(correction.shape[0], -1)
                .T.astype(np.int32))
            _fifo_insert(self._offset_cache, shape, cached)
        return cached

    @classmethod
    def from_scales(cls, layer: SCALESBinaryConv2d) -> "PackedBinaryConv2d":
        alpha = layer.binarizer.alpha.data if layer.use_lsf else None
        beta = layer.binarizer.beta.data if layer.use_lsf else None
        return cls(layer.weight.data,
                   None if layer.bias is None else layer.bias.data,
                   layer.stride, layer.padding, alpha, beta,
                   spatial=layer.spatial if layer.use_spatial else None,
                   channel=layer.channel if layer.use_channel else None,
                   skip=layer.skip)

    @classmethod
    def from_e2fif(cls, layer: E2FIFBinaryConv2d) -> "PackedBinaryConv2d":
        return cls(layer.weight.data,
                   None if layer.bias is None else layer.bias.data,
                   layer.stride, layer.padding, alpha=None, beta=None,
                   bn=layer.bn, skip=layer.skip)

    def _forward_bits(self, x: Tensor) -> Tensor:
        """Bit-domain step: threshold -> pack -> GEMM -> fused fold."""
        data = np.asarray(x.data)
        b, c, h, w = data.shape
        p, fw = self.padding, self.fast_weight
        if c != fw.c_in:
            raise ValueError(
                f"input channels {c} != weight channels {fw.c_in}")
        ws = workspace()
        # The tag carries the true channel count and padding width: the
        # channels beyond c and the p-pixel border are zeroed once at
        # creation and never rewritten, so layers whose padded extents
        # coincide but whose written interiors differ (c_in 96 vs 128
        # both pad to a 128-bit lane, 20 vs 32 to a 32-bit one; equal
        # H+2p from different H, p) must not share a buffer — stale
        # 1-bits would enter the XOR-popcount.
        bits = ws.take(f"actbits{fw.c_pad}c{c}p{p}",
                       (b, h + 2 * p, w + 2 * p, fw.c_pad), np.uint8,
                       zero_on_create=True)
        interior = bits[:, p:p + h, p:p + w, :c]
        act_scale = _threshold_bits(data, interior, self.alpha, self.beta)
        out_h, out_w = conv2d_output_shape((h + 2 * p, w + 2 * p),
                                           (fw.kh, fw.kw), self.stride, 0)
        dots = ws.take("conv_dots", (b * out_h * out_w, fw.c_out), np.int32)
        packed_conv2d_bits(bits, fw, stride=self.stride, out=dots, ws=ws)
        if p:
            d3 = dots.reshape(b, out_h * out_w, fw.c_out)
            d3 += self._cached_correction_int((h, w))[None]
        dview = dots.reshape(b, out_h * out_w, fw.c_out).transpose(0, 2, 1)
        scale = act_scale * self.weight_scale
        if self.conv_bias is None:
            # Scale straight into the Tensor's dtype: the ufunc computes
            # in float64 (int32 x float64 loop) and casts on store —
            # bit-identical to scaling in float64 and casting after,
            # without materializing the float64 plane.
            out = np.empty((b, fw.c_out, out_h, out_w),
                           dtype=get_default_dtype())
            np.multiply(dview, scale[None, :, None],
                        out=out.reshape(b, fw.c_out, -1), casting="unsafe")
        else:
            # Add the bias in float64 before the single round-off (the
            # Tensor cast).
            out = np.empty((b, fw.c_out, out_h, out_w), dtype=np.float64)
            np.multiply(dview, scale[None, :, None],
                        out=out.reshape(b, fw.c_out, -1))
            out += self.conv_bias[None, :, None, None]
        return Tensor(out)

    def forward(self, x: Tensor) -> Tensor:
        # The epilogue runs in place on the fresh plane _forward_bits
        # returned (after a BatchNorm, on the BN's own output).  Every
        # operand is in the thread's default dtype, as that plane is,
        # and a ufunc with out= computes in its inputs' promoted type
        # and casts on store: the bits a Tensor op gives, without a
        # new plane per step.
        result = self._forward_bits(x)
        if self._has_spatial:
            np.multiply(result.data, self.spatial(x).data, out=result.data)
        if self._has_channel:
            np.multiply(result.data, self.channel(x).data, out=result.data)
        if self._has_bn:
            result = self.bn(result)
        if self.skip:
            np.add(result.data, x.data, out=result.data)
        return result


class PackedBinaryLinear(Module):
    """Inference-only binary linear on packed weights."""

    binary = True

    def __init__(self, weight: np.ndarray, bias: Optional[np.ndarray],
                 alpha: Optional[np.ndarray], beta: Optional[np.ndarray],
                 spatial: Optional[Module] = None, skip: bool = False):
        super().__init__()
        self.alpha = None if alpha is None else _safe_alpha(np.asarray(alpha))
        self.beta = None if beta is None else np.asarray(beta)
        self.packed_weight, self.in_features = pack_weight_linear(weight)
        self.fast_weight = FastLinearWeight(weight)
        self.out_features = weight.shape[0]
        self.weight_scale = _weight_scale(weight)
        self.lin_bias = None if bias is None else np.asarray(bias)
        if spatial is not None:
            self.spatial = spatial
        self._has_spatial = spatial is not None
        self.skip = skip

    @classmethod
    def from_scales(cls, layer: SCALESBinaryLinear) -> "PackedBinaryLinear":
        alpha = layer.binarizer.alpha.data if layer.use_lsf else None
        beta = layer.binarizer.beta.data if layer.use_lsf else None
        return cls(layer.weight.data,
                   None if layer.bias is None else layer.bias.data,
                   alpha, beta,
                   spatial=layer.spatial if layer.use_spatial else None,
                   skip=layer.skip)

    @classmethod
    def from_bibert(cls, layer: BiBERTBinaryLinear) -> "PackedBinaryLinear":
        return cls(layer.weight.data,
                   None if layer.bias is None else layer.bias.data,
                   alpha=None, beta=None)

    def _forward_bits(self, x: Tensor) -> Tensor:
        """Bit-domain step: threshold -> pack -> GEMM -> scale."""
        data = np.asarray(x.data)
        *lead, k = data.shape
        fw = self.fast_weight
        if k != self.in_features:
            raise ValueError(f"input features {k} != weight features "
                             f"{self.in_features}")
        m = int(np.prod(lead, dtype=np.int64)) if lead else 1
        ws = workspace()
        bits = ws.take(f"linbits{k}", (m, fw.words * 64), np.uint8,
                       zero_on_create=True)
        act_scale = _threshold_bits(data.reshape(m, k), bits[:, :k],
                                    self.alpha, self.beta)
        dots = ws.take("lin_dots", (m, fw.out_features), np.int32)
        packed_linear_bits(bits, fw, out=dots, ws=ws)
        out = np.empty((m, fw.out_features), dtype=np.float64)
        np.multiply(dots, (act_scale * self.weight_scale)[None, :], out=out)
        if self.lin_bias is not None:
            out += self.lin_bias
        return Tensor(out.reshape(*lead, -1))

    def forward(self, x: Tensor) -> Tensor:
        # In place, as PackedBinaryConv2d.forward.
        result = self._forward_bits(x)
        if self._has_spatial:
            np.multiply(result.data, self.spatial(x).data, out=result.data)
        if self.skip:
            np.add(result.data, x.data, out=result.data)
        return result


_COMPILERS: List[Tuple[type, Callable[[Module], Module]]] = [
    (SCALESBinaryConv2d, PackedBinaryConv2d.from_scales),
    (E2FIFBinaryConv2d, PackedBinaryConv2d.from_e2fif),
    (SCALESBinaryLinear, PackedBinaryLinear.from_scales),
    (BiBERTBinaryLinear, PackedBinaryLinear.from_bibert),
]


def deployable_layers(model: Module) -> Dict[str, Module]:
    """Name -> module map of every layer ``compile_model`` would replace."""
    found: Dict[str, Module] = {}
    for name, module in model.named_modules():
        if any(isinstance(module, src) for src, _ in _COMPILERS):
            found[name] = module
    return found


def _compile_in_place(module: Module) -> int:
    replaced = 0
    for name, child in list(module._modules.items()):
        for source_type, factory in _COMPILERS:
            if isinstance(child, source_type):
                module.register_module(name, factory(child))
                replaced += 1
                break
        else:
            replaced += _compile_in_place(child)
    return replaced


def compile_model(model: Module, *, freeze=None) -> Module:
    """Deep-copy ``model`` and swap binary layers for packed twins.

    Returns the compiled copy in eval mode; raises if nothing in the model
    is deployable (compiling an FP model is almost certainly a bug).
    Tiling is not a property of the compiled model: run large inputs
    through the tiled path with ``EngineConfig.tile`` (or
    ``InferencePipeline(tile=...)``).

    Parameters
    ----------
    freeze:
        When set, additionally export the compiled model as a packed
        deploy artifact (:func:`repro.deploy.serialize.save_artifact`):
        a path writes there; ``True`` derives the canonical file name
        from the model's build recipe.  The written path is recorded on
        the returned module as ``artifact_path``.
    """
    compiled = copy.deepcopy(model)
    replaced = _compile_in_place(compiled)
    if replaced == 0:
        raise ValueError(
            "model contains no deployable binary layers; expected at least "
            "one SCALES / E2FIF / BiBERT binary conv or linear")
    compiled.eval()
    if freeze is not None and freeze is not False:
        from .serialize import save_artifact
        path = save_artifact(compiled, None if freeze is True else freeze)
        object.__setattr__(compiled, "artifact_path", path)
    return compiled
