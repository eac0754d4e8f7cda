"""Bit-domain packed forward vs the seed forward (``tests.oracles``).

The packed layers must be *bit-exact* against the seed implementation
for every supported geometry — every activation lane width (8, 16, 32
and 64·n bits), strides, paddings, LSF thresholds including negative
alpha, linears — because binarized networks amplify any last-bit
difference into flipped sign bits downstream.
"""

import numpy as np
import pytest

from repro import grad as G
from repro.binarize import SCALESBinaryConv2d, SCALESBinaryLinear
from repro.binarize.baselines import BiBERTBinaryLinear, E2FIFBinaryConv2d
from repro.deploy import (FastConvWeight, binary_gemm, compile_model,
                          pack_signs)
from repro.deploy.engine import PackedBinaryConv2d, PackedBinaryLinear
from repro.grad import Tensor, no_grad
from repro.nn import Sequential, init

from ..helpers import parse_table
from ..oracles import binary_gemm_reference, reference_packed

#: One packed conv geometry per row: its input channels, output
#: channels, kernel size, stride and padding, the lane width in bits
#: each pixel's channels pack into, and the 64-bit words per GEMM row
#: (``ceil(k * k * lane / 64)``).
LANES = """
  c_in | c_out | k | stride | pad | lane | words
  -----+-------+---+--------+-----+------+------
     3 |    16 | 3 |      1 |   1 |    8 |     2
     8 |     8 | 3 |      2 |   1 |    8 |     2
    16 |    16 | 1 |      1 |   0 |   16 |     1
    16 |    12 | 3 |      1 |   1 |   16 |     3
    64 |    64 | 3 |      1 |   1 |   64 |     9
     6 |     6 | 5 |      1 |   2 |    8 |     4
    64 |    32 | 3 |      2 |   1 |   64 |     9
     1 |     4 | 3 |      1 |   1 |    8 |     2
    12 |     8 | 3 |      1 |   1 |   16 |     3
    24 |     8 | 3 |      1 |   1 |   32 |     5
    32 |     8 | 3 |      1 |   1 |   32 |     5
    33 |     8 | 3 |      1 |   1 |   64 |     9
    96 |     8 | 3 |      1 |   1 |  128 |    18
   130 |     8 | 3 |      1 |   1 |  192 |    27
"""


def _lane_cases():
    return [pytest.param(*(int(row[name]) for name in
                           ("c_in", "c_out", "k", "stride", "pad", "lane",
                            "words")),
                         id="c{c_in}-k{k}-s{stride}-p{pad}".format(**row))
            for row in parse_table(LANES)]


@pytest.fixture(autouse=True)
def _float32():
    with G.default_dtype("float32"):
        yield


def _forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _reference_and_packed(packed, x):
    """(seed forward, production forward) of ``packed`` on ``x``."""
    with reference_packed():
        ref = _forward(packed, x)
    fast = _forward(packed, x)
    return ref, fast


class TestGemmEquivalence:
    def test_optimized_gemm_matches_reference_gemm(self):
        rng = np.random.default_rng(0)
        for m, n, k in [(5, 3, 7), (130, 16, 64), (257, 33, 576), (64, 8, 1)]:
            a = pack_signs(np.where(rng.random((m, k)) > 0.5, 1.0, -1.0))
            b = pack_signs(np.where(rng.random((n, k)) > 0.5, 1.0, -1.0))
            np.testing.assert_array_equal(binary_gemm(a, b, k),
                                          binary_gemm_reference(a, b, k))

    def test_gemm_out_and_bt_params(self):
        rng = np.random.default_rng(1)
        a = pack_signs(np.where(rng.random((40, 100)) > 0.5, 1.0, -1.0))
        b = pack_signs(np.where(rng.random((6, 100)) > 0.5, 1.0, -1.0))
        expected = binary_gemm_reference(a, b, 100)
        out = np.empty((40, 6), dtype=np.int32)
        got = binary_gemm(a, b, 100, b_t=np.ascontiguousarray(b.T), out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)


class TestConvLanes:
    @pytest.mark.parametrize("c_in,c_out,k,stride,padding,lane,words",
                             _lane_cases())
    def test_fast_bit_exact_vs_reference(self, c_in, c_out, k, stride,
                                         padding, lane, words):
        init.seed(0)
        layer = E2FIFBinaryConv2d(c_in, c_out, k, stride=stride,
                                  padding=padding)
        layer.eval()
        packed = PackedBinaryConv2d.from_e2fif(layer)
        fw = FastConvWeight(layer.weight.data)
        assert (fw.c_pad, fw.words) == (lane, words)
        x = np.random.default_rng(1).normal(
            size=(2, c_in, 11, 9)).astype(np.float32)
        ref, fast = _reference_and_packed(packed, x)
        np.testing.assert_array_equal(fast, ref)

    def test_shared_cpad_layers_do_not_leak_stale_bits(self):
        # Two bitplane layers with different true channel counts (96 and
        # 128) pad to the same 128-channel bit image at the same spatial
        # size; the arena must not hand them one buffer (the 96-channel
        # layer would read the other's stale bits in channels 96:128).
        init.seed(30)
        model = Sequential(E2FIFBinaryConv2d(128, 96, 3),
                           E2FIFBinaryConv2d(96, 64, 3))
        model.eval()
        compiled = compile_model(model)
        x = np.random.default_rng(31).normal(
            size=(1, 128, 6, 6)).astype(np.float32)
        with reference_packed():
            ref = _forward(compiled, x)
        fast = _forward(compiled, x)
        np.testing.assert_array_equal(fast, ref)

    def test_lane_geometries_do_not_leak_stale_bits(self):
        # The second and third layers have equal M (8x8 outputs), an
        # 8-bit lane and 2 words per row.  The 4x4 layer fills all 16
        # lanes of its rows; the 3x3 layer writes 9 and needs the other
        # 7 to stay 0, so the two must not share one row buffer.
        init.seed(32)
        model = Sequential(E2FIFBinaryConv2d(8, 6, 4, padding=2),
                           E2FIFBinaryConv2d(6, 8, 4, padding=1),
                           E2FIFBinaryConv2d(8, 8, 3, padding=1))
        model.eval()
        compiled = compile_model(model)
        x = np.random.default_rng(33).normal(
            size=(1, 8, 8, 8)).astype(np.float32)
        with reference_packed():
            ref = _forward(compiled, x)
        for _ in range(2):
            np.testing.assert_array_equal(_forward(compiled, x), ref)


class TestInputWidth:
    def test_conv_rejects_wrong_channel_count(self):
        init.seed(34)
        compiled = compile_model(Sequential(E2FIFBinaryConv2d(32, 16, 3)))
        x = np.zeros((1, 24, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError,
                           match="input channels 24 != weight channels 32"):
            _forward(compiled, x)

    def test_linear_rejects_wrong_feature_count(self):
        init.seed(35)
        compiled = compile_model(Sequential(BiBERTBinaryLinear(40, 8)))
        x = np.zeros((2, 30), dtype=np.float32)
        with pytest.raises(ValueError, match="input features 30"):
            _forward(compiled, x)


class TestThresholds:
    def test_scales_lsf_threshold(self):
        init.seed(0)
        layer = SCALESBinaryConv2d(8, 8, 3, use_spatial=False,
                                   use_channel=False)
        layer.binarizer.alpha.data[...] = 0.7
        layer.binarizer.beta.data[...] = np.random.default_rng(0).normal(
            size=layer.binarizer.beta.data.shape).astype(np.float32) * 0.1
        packed = PackedBinaryConv2d.from_scales(layer)
        x = np.random.default_rng(3).normal(size=(1, 8, 9, 9)).astype(np.float32)
        ref, fast = _reference_and_packed(packed, x)
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_allclose(fast, _forward(layer, x), rtol=0, atol=1e-5)

    def test_negative_alpha(self):
        init.seed(0)
        layer = SCALESBinaryConv2d(4, 4, 3)
        layer.binarizer.alpha.data[...] = -0.5
        packed = PackedBinaryConv2d.from_scales(layer)
        x = np.random.default_rng(4).normal(size=(1, 4, 6, 6)).astype(np.float32)
        ref, fast = _reference_and_packed(packed, x)
        np.testing.assert_array_equal(fast, ref)

    def test_values_exactly_at_threshold(self):
        init.seed(0)
        layer = SCALESBinaryConv2d(4, 4, 3, use_spatial=False,
                                   use_channel=False)
        layer.binarizer.beta.data[...] = 0.25
        packed = PackedBinaryConv2d.from_scales(layer)
        # beta and 0.25 are exactly representable: x == beta must binarize
        # to +1 on both paths.
        x = np.full((1, 4, 6, 6), 0.25, dtype=np.float32)
        ref, fast = _reference_and_packed(packed, x)
        np.testing.assert_array_equal(fast, ref)


class TestLinear:
    def test_scales_linear_bit_exact(self):
        init.seed(0)
        layer = SCALESBinaryLinear(12, 12, skip=True)
        layer.binarizer.beta.data[...] = 0.05
        packed = PackedBinaryLinear.from_scales(layer)
        x = np.random.default_rng(5).normal(size=(2, 5, 12)).astype(np.float32)
        ref, fast = _reference_and_packed(packed, x)
        np.testing.assert_array_equal(fast, ref)

    def test_bibert_linear_bit_exact(self):
        init.seed(0)
        layer = BiBERTBinaryLinear(10, 14)
        packed = PackedBinaryLinear.from_bibert(layer)
        x = np.random.default_rng(6).normal(size=(3, 10)).astype(np.float32)
        ref, fast = _reference_and_packed(packed, x)
        np.testing.assert_array_equal(fast, ref)


class TestBatchNormTail:
    def test_eval_bn_matches_reference(self):
        init.seed(0)
        layer = E2FIFBinaryConv2d(4, 4, 3)
        layer.eval()
        layer.bn.running_mean[:] = [0.1, -0.2, 0.3, 0.0]
        layer.bn.running_var[:] = [1.5, 0.5, 2.0, 1.0]
        layer.bn.weight.data[:] = [1.1, 0.9, 1.0, 1.2]
        layer.bn.bias.data[:] = [0.05, -0.05, 0.0, 0.1]
        packed = PackedBinaryConv2d.from_e2fif(layer)
        x = np.random.default_rng(7).normal(size=(1, 4, 6, 6)).astype(np.float32)
        ref, fast = _reference_and_packed(packed, x)
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_allclose(fast, _forward(layer, x), rtol=0, atol=1e-5)


class TestCompiledModels:
    @pytest.mark.parametrize("arch,scheme", [
        ("srresnet", "scales"), ("srresnet", "e2fif"), ("swinir", "bibert"),
    ])
    def test_whole_model_bit_exact_across_backends(self, arch, scheme):
        from repro.models import build_model
        init.seed(7)
        model = build_model(arch, scale=2, scheme=scheme, preset="tiny")
        compiled = compile_model(model)
        x = np.random.default_rng(8).random((1, 3, 8, 8)).astype(np.float32)
        with reference_packed():
            ref = _forward(compiled, x)
        fast = _forward(compiled, x)
        np.testing.assert_array_equal(fast, ref)

    def test_batch_rows_match_single_rows(self):
        # Batching is the pipeline's core assumption: row i of a batched
        # forward equals the same image alone.
        init.seed(9)
        layer = E2FIFBinaryConv2d(8, 8, 3)
        layer.eval()
        packed = PackedBinaryConv2d.from_e2fif(layer)
        x = np.random.default_rng(10).normal(size=(5, 8, 7, 7)).astype(np.float32)
        batched = _forward(packed, x)
        for i in range(5):
            np.testing.assert_array_equal(batched[i], _forward(packed, x[i:i + 1])[0])
