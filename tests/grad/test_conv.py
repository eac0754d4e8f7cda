"""Tests for convolution and pooling ops against the direct-convolution
oracle (``tests.oracles``), plus hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import grad as G
from repro.grad import Tensor, conv2d_output_shape

from ..helpers import check_gradients, rng
from ..oracles import (_gather_patches, im2col_rows, reference_conv2d,
                       reference_conv2d_backward)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_direct_convolution(self, stride, padding):
        x = rng(0).normal(size=(2, 3, 6, 7))
        w = rng(1).normal(size=(4, 3, 3, 3))
        b = rng(2).normal(size=(4,))
        out = G.conv2d(Tensor(x), Tensor(w), Tensor(b),
                       stride=stride, padding=padding)
        expected = reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_1x1_conv_is_channel_mix(self):
        x = rng(3).normal(size=(1, 3, 4, 4))
        w = rng(4).normal(size=(2, 3, 1, 1))
        out = G.conv2d(Tensor(x), Tensor(w), padding=0).data
        expected = np.einsum("oc,bchw->bohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradients(self):
        check_gradients(
            lambda ts: G.sum(G.conv2d(ts[0], ts[1], ts[2], stride=2, padding=1) ** 2),
            [rng(0).normal(size=(1, 2, 5, 5)),
             rng(1).normal(size=(3, 2, 3, 3)),
             rng(2).normal(size=(3,))],
            atol=1e-4, rtol=1e-3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            G.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            G.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_output_shape_helper(self):
        assert conv2d_output_shape((8, 10), 3, stride=2, padding=1) == (4, 5)

    @settings(max_examples=20, deadline=None)
    @given(h=st.integers(4, 9), w=st.integers(4, 9),
           k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]))
    def test_shape_property(self, h, w, k, stride):
        x = np.zeros((1, 2, h, w))
        wt = np.zeros((3, 2, k, k))
        pad = k // 2
        out = G.conv2d(Tensor(x), Tensor(wt), stride=stride, padding=pad)
        assert out.shape[2:] == conv2d_output_shape((h, w), k, stride, pad)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_linearity_property(self, seed):
        """conv(a*x) == a * conv(x) — convolution is linear."""
        r = np.random.default_rng(seed)
        x = r.normal(size=(1, 2, 5, 5))
        w = r.normal(size=(2, 2, 3, 3))
        out1 = G.conv2d(Tensor(3.0 * x), Tensor(w), padding=1).data
        out2 = 3.0 * G.conv2d(Tensor(x), Tensor(w), padding=1).data
        np.testing.assert_allclose(out1, out2, atol=1e-9)


class TestConv1d:
    def test_values_against_manual(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        out = G.conv1d(Tensor(x), Tensor(w), padding=1).data
        np.testing.assert_allclose(out[0, 0], [-2.0, -2.0, -2.0, 3.0])

    def test_gradients(self):
        check_gradients(
            lambda ts: G.sum(G.conv1d(ts[0], ts[1], ts[2], padding=2) ** 2),
            [rng(0).normal(size=(2, 1, 8)),
             rng(1).normal(size=(1, 1, 5)),
             rng(2).normal(size=(1,))],
            atol=1e-4, rtol=1e-3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            G.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 3, 3))))


class TestPooling:
    def test_global_avg_pool_values(self):
        x = rng(0).normal(size=(2, 3, 4, 5))
        out = G.global_avg_pool2d(Tensor(x)).data
        np.testing.assert_allclose(out, x.mean(axis=(2, 3), keepdims=True))

    def test_global_avg_pool_grad(self):
        check_gradients(lambda ts: G.sum(G.global_avg_pool2d(ts[0]) ** 2),
                        [rng(1).normal(size=(1, 2, 3, 3))])

    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = G.avg_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_grad(self):
        check_gradients(lambda ts: G.sum(G.avg_pool2d(ts[0], 2) ** 2),
                        [rng(2).normal(size=(1, 1, 4, 4))])


class TestConvBackendSwitch:
    """``conv2d`` / ``conv1d`` / ``avg_pool2d`` against the direct-loop
    oracle on values and gradients, for every geometry."""

    @pytest.mark.parametrize("stride,padding,k", [
        (1, 0, 3), (1, 1, 3), (2, 1, 3), (2, 0, 3), (1, 0, 1), (3, 2, 5),
        ((1, 2), (2, 1), 3),
    ])
    def test_conv2d_forward_and_grads_agree(self, stride, padding, k):
        x = rng(20).normal(size=(2, 3, 9, 8))
        w = rng(21).normal(size=(4, 3, k, k))
        b = rng(22).normal(size=(4,))
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        out = G.conv2d(xt, wt, bt, stride=stride, padding=padding)
        G.sum(out * out).backward()
        ref_out = reference_conv2d(x, w, b, stride, padding)
        ref_grads = reference_conv2d_backward(x, w, 2 * ref_out, stride,
                                              padding)
        for fast_arr, ref_arr in zip((out.data, xt.grad, wt.grad, bt.grad),
                                     (ref_out, *ref_grads)):
            np.testing.assert_allclose(fast_arr, ref_arr, rtol=1e-10,
                                       atol=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 1)])
    def test_conv1d_agrees(self, stride, padding):
        x = rng(23).normal(size=(2, 3, 11))
        w = rng(24).normal(size=(4, 3, 5))
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        out = G.conv1d(xt, wt, stride=stride, padding=padding)
        G.sum(out * out).backward()
        # conv1d is conv2d over a height-1 image.
        ref_out = reference_conv2d(x[:, :, None], w[:, :, None],
                                   stride=(1, stride), padding=(0, padding))
        ref_gx, ref_gw, _ = reference_conv2d_backward(
            x[:, :, None], w[:, :, None], 2 * ref_out, stride=(1, stride),
            padding=(0, padding))
        for fast_arr, ref_arr in zip((out.data, xt.grad, wt.grad),
                                     (ref_out, ref_gx, ref_gw)):
            np.testing.assert_allclose(fast_arr, ref_arr[:, :, 0], rtol=1e-10,
                                       atol=1e-10)

    @pytest.mark.parametrize("kernel,stride", [(2, None), (3, 1), (2, 2)])
    def test_avg_pool_agrees(self, kernel, stride):
        x = rng(25).normal(size=(2, 3, 8, 7))
        step = kernel if stride is None else stride
        oh, ow = (8 - kernel) // step + 1, (7 - kernel) // step + 1
        expected = _gather_patches(x, kernel, kernel, step, step, oh,
                                   ow).mean(axis=(2, 3))
        np.testing.assert_allclose(G.avg_pool2d(Tensor(x), kernel,
                                                stride=stride).data,
                                   expected, rtol=1e-12, atol=1e-12)


class TestIm2colRows:
    def test_rows_layout_matches_loop_gather(self):
        x = rng(28).normal(size=(2, 3, 7, 6))
        kh = kw = 3
        oh, ow = 5, 4
        rows = im2col_rows(x, kh, kw, 1, 1, oh, ow)
        patches = _gather_patches(x, kh, kw, 1, 1, oh, ow)
        expected = patches.reshape(2, 3 * kh * kw, oh * ow)
        expected = expected.transpose(0, 2, 1).reshape(-1, 3 * kh * kw)
        np.testing.assert_array_equal(rows, expected)

    def test_strided(self):
        x = rng(29).normal(size=(1, 2, 8, 8))
        rows = im2col_rows(x, 3, 3, 2, 2, 3, 3)
        assert rows.shape == (9, 18)
        np.testing.assert_array_equal(rows[0], x[0, :, 0:3, 0:3].reshape(-1))
