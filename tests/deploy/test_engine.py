"""compile_model must reproduce the training graph bit-for-bit.

The deployed model shares every FP sidecar (scales, thresholds, rescale
branches, BatchNorm, skips) with the training graph, so outputs must be
identical up to float round-off — these tests assert exact equality of
the binary-layer arithmetic and tight tolerance end-to-end.
"""

import numpy as np
import pytest

from repro import grad as G
from repro.binarize import SCALESBinaryConv2d, SCALESBinaryLinear
from repro.binarize.baselines import BiBERTBinaryLinear, E2FIFBinaryConv2d
from repro.deploy import (PackedBinaryConv2d, PackedBinaryLinear,
                          compile_model, deployable_layers, deployment_report)
from repro.grad import Tensor, no_grad
from repro.models import build_model
from repro.nn import init


@pytest.fixture(autouse=True)
def _float32():
    with G.default_dtype("float32"):
        yield


def _forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


class TestLayerEquivalence:
    def test_scales_conv(self):
        init.seed(0)
        layer = SCALESBinaryConv2d(8, 8, 3)
        # Perturb the learnables away from their init values.
        layer.binarizer.alpha.data[...] = 0.7
        layer.binarizer.beta.data[...] = np.random.default_rng(0).normal(
            size=layer.binarizer.beta.data.shape).astype(np.float32) * 0.1
        packed = PackedBinaryConv2d.from_scales(layer)
        x = np.random.default_rng(1).normal(size=(2, 8, 9, 9)).astype(np.float32)
        np.testing.assert_allclose(_forward(packed, x), _forward(layer, x),
                                   rtol=0, atol=1e-5)

    def test_scales_conv_negative_alpha(self):
        init.seed(0)
        layer = SCALESBinaryConv2d(4, 4, 3)
        layer.binarizer.alpha.data[...] = -0.5
        packed = PackedBinaryConv2d.from_scales(layer)
        x = np.random.default_rng(2).normal(size=(1, 4, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(_forward(packed, x), _forward(layer, x),
                                   rtol=0, atol=1e-5)

    def test_scales_conv_ablation_flags(self):
        init.seed(0)
        layer = SCALESBinaryConv2d(4, 4, 3, use_spatial=False, use_channel=False)
        packed = PackedBinaryConv2d.from_scales(layer)
        x = np.random.default_rng(3).normal(size=(1, 4, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(_forward(packed, x), _forward(layer, x),
                                   rtol=0, atol=1e-5)

    def test_e2fif_conv(self):
        init.seed(0)
        layer = E2FIFBinaryConv2d(6, 6, 3)
        layer.eval()
        packed = PackedBinaryConv2d.from_e2fif(layer)
        x = np.random.default_rng(4).normal(size=(2, 6, 7, 7)).astype(np.float32)
        np.testing.assert_allclose(_forward(packed, x), _forward(layer, x),
                                   rtol=0, atol=1e-5)

    def test_scales_linear(self):
        init.seed(0)
        layer = SCALESBinaryLinear(12, 12, skip=True)
        layer.binarizer.beta.data[...] = 0.05
        packed = PackedBinaryLinear.from_scales(layer)
        x = np.random.default_rng(5).normal(size=(2, 5, 12)).astype(np.float32)
        np.testing.assert_allclose(_forward(packed, x), _forward(layer, x),
                                   rtol=0, atol=1e-5)

    def test_bibert_linear(self):
        init.seed(0)
        layer = BiBERTBinaryLinear(10, 14)
        packed = PackedBinaryLinear.from_bibert(layer)
        x = np.random.default_rng(6).normal(size=(3, 10)).astype(np.float32)
        np.testing.assert_allclose(_forward(packed, x), _forward(layer, x),
                                   rtol=0, atol=1e-5)


def _tensor_epilogue(packed, x):
    """The epilogue as ``Tensor`` ops, one new plane per step."""
    result = packed._forward_bits(x)
    if packed._has_spatial:
        result = result * packed.spatial(x)
    if getattr(packed, "_has_channel", False):
        result = result * packed.channel(x)
    if getattr(packed, "_has_bn", False):
        result = packed.bn(result)
    if packed.skip:
        result = result + x
    return result


class TestInPlaceEpilogue:
    """The packed epilogue (x spatial, x channel, BN, + skip) runs in
    place on the plane the bit-domain step returns: the bits of the
    ``Tensor`` ops, and the layer's input is left as it was."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind", ["scales_conv", "e2fif_conv",
                                      "scales_linear"])
    def test_matches_tensor_ops_and_keeps_the_input(self, kind, dtype):
        init.seed(0)
        rng = np.random.default_rng(7)
        with G.default_dtype(dtype):
            if kind == "scales_conv":
                layer = SCALESBinaryConv2d(6, 6, 3, skip=True)
                packed = PackedBinaryConv2d.from_scales(layer)
                shape = (2, 6, 7, 9)
            elif kind == "e2fif_conv":
                layer = E2FIFBinaryConv2d(6, 6, 3)
                layer.bn.running_mean[...] = rng.normal(size=6) * 0.1
                packed = PackedBinaryConv2d.from_e2fif(layer)
                shape = (2, 6, 7, 9)
            else:
                layer = SCALESBinaryLinear(12, 12, skip=True)
                packed = PackedBinaryLinear.from_scales(layer)
                shape = (2, 5, 12)
            assert packed.skip
            packed.eval()
            x = Tensor(rng.normal(size=shape))
            before = x.data.copy()
            with no_grad():
                got = packed(x).data
                want = _tensor_epilogue(packed, x).data
        np.testing.assert_array_equal(x.data, before)
        assert got.dtype == want.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want)


class TestCompileModel:
    @pytest.mark.parametrize("arch,scheme", [
        ("srresnet", "scales"), ("srresnet", "e2fif"),
        ("edsr", "scales"), ("swinir", "scales"), ("swinir", "bibert"),
    ])
    def test_end_to_end_equivalence(self, arch, scheme):
        init.seed(7)
        model = build_model(arch, scale=2, scheme=scheme, preset="tiny")
        x = np.random.default_rng(8).random((1, 3, 8, 8)).astype(np.float32)
        ref = _forward(model, x)
        compiled = compile_model(model)
        out = _forward(compiled, x)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-4)

    def test_original_model_untouched(self):
        init.seed(9)
        model = build_model("srresnet", scale=2, scheme="scales", preset="tiny")
        n_before = len(deployable_layers(model))
        compile_model(model)
        assert len(deployable_layers(model)) == n_before

    def test_fp_model_rejected(self):
        init.seed(10)
        model = build_model("srresnet", scale=2, scheme="fp", preset="tiny")
        with pytest.raises(ValueError, match="no deployable"):
            compile_model(model)

    def test_replaces_every_binary_layer(self):
        init.seed(11)
        model = build_model("srresnet", scale=2, scheme="scales", preset="tiny")
        compiled = compile_model(model)
        assert not deployable_layers(compiled)
        packed = [m for m in compiled.modules()
                  if isinstance(m, (PackedBinaryConv2d, PackedBinaryLinear))]
        assert len(packed) == len(deployable_layers(model))


class TestDeploymentReport:
    def test_compression_ratios(self):
        init.seed(12)
        model = build_model("srresnet", scale=2, scheme="scales", preset="small")
        report = deployment_report(compile_model(model))
        # Weight compression approaches 32x as layers grow; "small" layers
        # (32x32x3x3 = 9216 bits = 144 words exactly) reach it.
        assert report.weight_compression > 16
        assert report.model_compression > 1.5
        assert report.n_binary_layers == len(deployable_layers(model))

    def test_totals_consistent(self):
        init.seed(13)
        model = build_model("srresnet", scale=2, scheme="e2fif", preset="tiny")
        report = deployment_report(compile_model(model))
        assert report.total_bytes == report.packed_weight_bytes + report.fp_bytes
        assert report.dense_total_bytes > report.total_bytes
        d = report.as_dict()
        assert d["n_binary_layers"] == report.n_binary_layers

    def test_paper_size_approaches_32x(self):
        init.seed(14)
        model = build_model("srresnet", scale=4, scheme="scales", preset="paper",
                            light_tail=True, head_kernel=3)
        report = deployment_report(compile_model(model))
        assert report.weight_compression > 28


class TestPaddingCorrectionCache:
    def test_correction_cached_and_reused(self):
        init.seed(20)
        layer = SCALESBinaryConv2d(4, 4, 3, use_spatial=False,
                                   use_channel=False)
        packed = PackedBinaryConv2d.from_scales(layer)
        x = np.random.default_rng(20).normal(size=(1, 4, 6, 6)).astype(np.float32)
        _forward(packed, x)
        assert (6, 6) in packed._correction_cache
        cached = packed._correction_cache[(6, 6)]
        _forward(packed, x)
        assert packed._correction_cache[(6, 6)] is cached

    def test_cache_bounded_under_shape_churn(self):
        init.seed(21)
        layer = SCALESBinaryConv2d(2, 2, 3, use_spatial=False,
                                   use_channel=False)
        packed = PackedBinaryConv2d.from_scales(layer)
        rng = np.random.default_rng(21)
        for size in range(5, 16):
            _forward(packed, rng.normal(size=(1, 2, size, size))
                     .astype(np.float32))
        assert len(packed._correction_cache) <= 8

    def test_cached_outputs_match_training_layer_across_shapes(self):
        init.seed(22)
        layer = SCALESBinaryConv2d(4, 4, 3)
        packed = PackedBinaryConv2d.from_scales(layer)
        rng = np.random.default_rng(22)
        for size in (6, 9, 6):  # revisit 6 to hit the cached entry
            x = rng.normal(size=(1, 4, size, size)).astype(np.float32)
            np.testing.assert_allclose(_forward(packed, x),
                                       _forward(layer, x), rtol=0, atol=1e-5)
