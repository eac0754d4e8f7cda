"""XNOR-popcount kernels must agree exactly with float arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import grad as G
from repro.deploy import (binary_gemm, pack_signs, pack_weight_conv,
                          pack_weight_linear)
from repro.grad import Tensor

from ..oracles import binary_gemm_reference, packed_conv2d, packed_linear


def _random_signs(rng, shape):
    return np.where(rng.random(shape) > 0.5, 1.0, -1.0)


class TestBinaryGemm:
    def test_matches_float_matmul(self):
        rng = np.random.default_rng(0)
        a = _random_signs(rng, (7, 100))
        b = _random_signs(rng, (5, 100))
        out = binary_gemm(pack_signs(a), pack_signs(b), 100)
        np.testing.assert_array_equal(out, (a @ b.T).astype(np.int32))

    def test_blocking_boundary(self):
        # More rows than the block size exercises the blocked path.
        rng = np.random.default_rng(1)
        a = _random_signs(rng, (300, 70))
        b = _random_signs(rng, (3, 70))
        out = binary_gemm(pack_signs(a), pack_signs(b), 70, block=128)
        np.testing.assert_array_equal(out, (a @ b.T).astype(np.int32))

    def test_word_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            binary_gemm(np.zeros((2, 1), dtype=np.uint64),
                        np.zeros((2, 2), dtype=np.uint64), 64)

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            binary_gemm(np.zeros(3, dtype=np.uint64),
                        np.zeros((2, 3), dtype=np.uint64), 64)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=150), st.integers(0, 2**31))
    def test_exactness_any_k(self, k, seed):
        rng = np.random.default_rng(seed)
        a = _random_signs(rng, (4, k))
        b = _random_signs(rng, (3, k))
        out = binary_gemm(pack_signs(a), pack_signs(b), k)
        np.testing.assert_array_equal(out, (a @ b.T).astype(np.int32))


class TestPackedConv2d:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_float_conv(self, padding, stride):
        rng = np.random.default_rng(42)
        x = _random_signs(rng, (2, 5, 10, 9))
        w = rng.normal(size=(4, 5, 3, 3))
        packed, signs = pack_weight_conv(w)
        out = packed_conv2d(x, packed, signs, stride=stride, padding=padding)
        ref = G.conv2d(Tensor(x), Tensor(np.where(w >= 0, 1.0, -1.0)),
                       stride=stride, padding=padding).data
        np.testing.assert_array_equal(out, ref)

    def test_1x1_kernel(self):
        rng = np.random.default_rng(3)
        x = _random_signs(rng, (1, 8, 6, 6))
        w = rng.normal(size=(2, 8, 1, 1))
        packed, signs = pack_weight_conv(w)
        out = packed_conv2d(x, packed, signs)
        ref = G.conv2d(Tensor(x), Tensor(np.where(w >= 0, 1.0, -1.0))).data
        np.testing.assert_array_equal(out, ref)

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(4)
        x = _random_signs(rng, (1, 3, 6, 6))
        w = rng.normal(size=(2, 5, 3, 3))
        packed, signs = pack_weight_conv(w)
        with pytest.raises(ValueError):
            packed_conv2d(x, packed, signs, padding=1)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=5, max_value=12),
           st.integers(0, 2**31))
    def test_exactness_random_geometry(self, c_in, hw, seed):
        rng = np.random.default_rng(seed)
        x = _random_signs(rng, (1, c_in, hw, hw))
        w = rng.normal(size=(3, c_in, 3, 3))
        packed, signs = pack_weight_conv(w)
        out = packed_conv2d(x, packed, signs, padding=1)
        ref = G.conv2d(Tensor(x), Tensor(np.where(w >= 0, 1.0, -1.0)),
                       padding=1).data
        np.testing.assert_array_equal(out, ref)


class TestPackedLinear:
    def test_matches_float_matmul(self):
        rng = np.random.default_rng(5)
        x = _random_signs(rng, (4, 7, 33))
        w = rng.normal(size=(11, 33))
        packed, k = pack_weight_linear(w)
        out = packed_linear(x, packed, k)
        ref = x @ np.where(w >= 0, 1.0, -1.0).T
        np.testing.assert_array_equal(out, ref)

    def test_feature_mismatch_raises(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(4, 8))
        packed, k = pack_weight_linear(w)
        with pytest.raises(ValueError):
            packed_linear(_random_signs(rng, (2, 9)), packed, k)


class TestGemmFastVsReferenceSweep:
    """Seeded sweep: ``binary_gemm`` must equal ``binary_gemm_reference``
    (and the float matmul) across randomized shapes.

    Covers the fast path's distinguishing machinery — hardware popcount
    dispatch, the uint16 accumulator, workspace reuse, precomputed
    ``b_t`` panels, caller-provided ``out=`` — on non-multiple-of-64
    widths, K=1, single-row and single-column panels, and row counts
    that straddle the block boundary.
    """

    KS = (1, 63, 64, 65, 127, 129, 576)
    SHAPES = ((1, 1), (1, 7), (5, 1), (7, 5), (300, 3))

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_matches_reference_and_float(self, m, n, k):
        rng = np.random.default_rng(k * 1000 + m * 10 + n)
        a = _random_signs(rng, (m, k))
        b = _random_signs(rng, (n, k))
        pa, pb = pack_signs(a), pack_signs(b)
        fast = binary_gemm(pa, pb, k, block=128)
        ref = binary_gemm_reference(pa, pb, k, block=128)
        np.testing.assert_array_equal(fast, ref)
        np.testing.assert_array_equal(fast, (a @ b.T).astype(np.int32))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_geometry_with_bt_and_out(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = (int(rng.integers(1, 200)), int(rng.integers(1, 40)),
                   int(rng.integers(1, 260)))
        a = _random_signs(rng, (m, k))
        b = _random_signs(rng, (n, k))
        pa, pb = pack_signs(a), pack_signs(b)
        # Weight-stationary call shape: precomputed transpose + arena out.
        b_t = np.ascontiguousarray(pb.T)
        out = np.empty((m, n), dtype=np.int32)
        got = binary_gemm(pa, pb, k, b_t=b_t, out=out)
        assert got is out
        np.testing.assert_array_equal(out, binary_gemm_reference(pa, pb, k))

    def test_wide_k_int64_accumulator_fallback(self):
        # >= 2**16 bits per row forces the int64 accumulator branch.
        k = (1 << 16) + 64
        rng = np.random.default_rng(2024)
        a = _random_signs(rng, (2, k))
        b = _random_signs(rng, (3, k))
        pa, pb = pack_signs(a), pack_signs(b)
        np.testing.assert_array_equal(binary_gemm(pa, pb, k),
                                      binary_gemm_reference(pa, pb, k))


class TestPackedConv2dStridePadding:
    """Explicit stride-2 + padding coverage through the packed pipeline."""

    @pytest.mark.parametrize("stride,padding", [(2, 1), (2, 2), (3, 1)])
    def test_matches_float_conv_strided_padded(self, stride, padding):
        rng = np.random.default_rng(77)
        x = _random_signs(rng, (2, 3, 11, 10))
        w = rng.normal(size=(5, 3, 3, 3))
        packed_w, w_signs = pack_weight_conv(w)
        out = packed_conv2d(x, packed_w, w_signs, stride=stride,
                            padding=padding)
        expected = G.conv2d(Tensor(np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))),
            Tensor(w_signs), stride=stride).data
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_precomputed_padding_correction_matches(self):
        from repro.deploy.kernels import _padding_correction
        rng = np.random.default_rng(78)
        x = _random_signs(rng, (1, 4, 9, 9))
        w = rng.normal(size=(6, 4, 3, 3))
        packed_w, w_signs = pack_weight_conv(w)
        correction = _padding_correction((9, 9), w_signs, 1, 1)
        out_cached = packed_conv2d(x, packed_w, w_signs, stride=1, padding=1,
                                   padding_correction=correction)
        out_fresh = packed_conv2d(x, packed_w, w_signs, stride=1, padding=1)
        np.testing.assert_array_equal(out_cached, out_fresh)
