"""Hot-path microbenchmarks: conv im2col fast path and packed binary GEMM.

These are the two kernels every result in the repo flows through — the
float im2col convolution (training/eval of all CNN SR models and binary
baselines) and the XNOR-popcount GEMM (the deployed-latency story).
Each test asserts the library path is *bit-exact* against the seed
implementation (kept here and in ``tests.oracles``), measures the
speedup, appends it to the ``BENCH_hotpaths.json`` trajectory, and
enforces the >= 2x floor this perf PR is gated on.

Run directly with ``PYTHONPATH=src python -m pytest benchmarks/test_perf_hotpaths.py -v``.
"""

import numpy as np

from repro import grad as G
from repro.deploy.kernels import binary_gemm
from repro.deploy.packing import pack_signs
from repro.grad import Tensor
from repro.perf import bench, record_bench, speedup
from tests.oracles import (popcount_u64, popcount_u64_lut,
                           reference_conv2d_backward)

#: Gate from the PR acceptance criteria.
MIN_SPEEDUP = 2.0


def _record(benchmark: str, ref, fast, ratio: float, **extra) -> None:
    entry = {
        "benchmark": benchmark,
        "reference": ref.to_dict(),
        "optimized": fast.to_dict(),
        "speedup": ratio,
        **extra,
    }
    try:
        record_bench("hotpaths", entry)
    except OSError:  # pragma: no cover - read-only checkout
        pass


def _seed_binary_gemm(packed_a, packed_b, k, block=256):
    """The seed XNOR-GEMM: blocked 3-D XOR + 16-bit-LUT popcount + sum."""
    m, n = packed_a.shape[0], packed_b.shape[0]
    out = np.empty((m, n), dtype=np.int32)
    for start in range(0, m, block):
        stop = min(start + block, m)
        xor = packed_a[start:stop, None, :] ^ packed_b[None, :, :]
        mismatches = popcount_u64_lut(xor).sum(axis=2)
        out[start:stop] = k - 2 * mismatches.astype(np.int32)
    return out


def _seed_conv2d(x, w, padding=0):
    """The seed conv2d forward: loop patch gather + einsum contraction."""
    b, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h, out_w = h + 2 * padding - kh + 1, w_in + 2 * padding - kw + 1
    patches = np.empty((b, c_in, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patches[:, :, i, j] = x_pad[:, :, i:i + out_h, j:j + out_w]
    cols = patches.reshape(b, c_in * kh * kw, out_h * out_w)
    out = np.einsum("ok,bkl->bol", w.reshape(c_out, -1), cols, optimize=True)
    return out.reshape(b, c_out, out_h, out_w)


def _seed_pack_signs(signs):
    """Seed-style packing: one bit at a time, shifted and OR-ed in.

    The pre-vectorization idiom — a Python loop over the K bit
    positions — kept as the reference the ``pack_signs`` trajectory
    entry measures against (it used to compare ``pack_signs`` to
    itself, pinning the recorded speedup at 1.0).
    """
    from repro.deploy import packed_words

    signs = np.asarray(signs)
    *lead, k = signs.shape
    rows = signs.reshape(-1, k)
    words = np.zeros((rows.shape[0], packed_words(k)), dtype=np.uint64)
    for i in range(k):
        bit = (rows[:, i] >= 0).astype(np.uint64)
        words[:, i // 64] |= bit << np.uint64(i % 64)
    return words.reshape(*lead, -1)


class TestConvForward:
    def test_conv3x3_forward_bit_exact_and_2x(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 64, 32, 32)))
        w = Tensor(rng.standard_normal((64, 64, 3, 3)))

        expected = _seed_conv2d(x.data, w.data, padding=1)
        ref = bench(lambda: _seed_conv2d(x.data, w.data, padding=1),
                    label="conv3x3/reference")
        actual = G.conv2d(x, w, padding=1).data
        fast = bench(lambda: G.conv2d(x, w, padding=1),
                     label="conv3x3/fast")

        np.testing.assert_array_equal(actual, expected)
        ratio = speedup(ref, fast)
        _record("conv3x3_forward", ref, fast, ratio,
                shape=[4, 64, 32, 32], c_out=64, padding=1)
        assert ratio >= MIN_SPEEDUP, (
            f"conv 3x3 fast path is only {ratio:.2f}x the reference "
            f"(need >= {MIN_SPEEDUP}x)")

    def test_conv3x3_backward_matches_reference(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 8, 12, 12)), requires_grad=True)
        w = Tensor(np.arange(8 * 8 * 9, dtype=np.float64)
                   .reshape(8, 8, 3, 3) / 100.0, requires_grad=True)
        out = G.conv2d(x, w, stride=2, padding=1)
        G.sum(out ** 2).backward()
        ref_gx, ref_gw, _ = reference_conv2d_backward(
            x.data, w.data, 2 * out.data, stride=2, padding=1)
        # The oracle sums in a different order, so the last float bits
        # may differ.
        np.testing.assert_allclose(x.grad, ref_gx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(w.grad, ref_gw, rtol=1e-10, atol=1e-10)


class TestPackedGemm:
    def test_packed_gemm_bit_exact_and_2x(self):
        rng = np.random.default_rng(2)
        # Conv-like workload: M = B*H_out*W_out patch rows of C_in*kh*kw
        # bits against N = C_out weight rows.
        k = 576
        a = pack_signs(np.where(rng.random((2048, k)) > 0.5, 1.0, -1.0))
        b = pack_signs(np.where(rng.random((64, k)) > 0.5, 1.0, -1.0))

        expected = _seed_binary_gemm(a, b, k)
        actual = binary_gemm(a, b, k)
        np.testing.assert_array_equal(actual, expected)

        ref = bench(lambda: _seed_binary_gemm(a, b, k),
                    label="packed_gemm/seed_lut")
        fast = bench(lambda: binary_gemm(a, b, k),
                     label="packed_gemm/swar")
        ratio = speedup(ref, fast)
        _record("packed_binary_gemm", ref, fast, ratio,
                m=2048, n=64, k=k)
        assert ratio >= MIN_SPEEDUP, (
            f"packed GEMM is only {ratio:.2f}x the seed implementation "
            f"(need >= {MIN_SPEEDUP}x)")

    def test_swar_popcount_bit_exact(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=(512, 64), dtype=np.uint64)
        expected = popcount_u64_lut(words)
        np.testing.assert_array_equal(popcount_u64(words), expected)
        np.testing.assert_array_equal(np.bitwise_count(words), expected)

    def test_popcount_and_pack_throughput_recorded(self):
        """Informational trajectory entries for the two sub-kernels."""
        rng = np.random.default_rng(4)
        words = rng.integers(0, 2**64, size=(512, 2048), dtype=np.uint64)
        # The library popcount is np.bitwise_count, called inside
        # binary_gemm.  Earlier trajectory entries timed the SWAR
        # reduction (popcount/swar) here.
        ref = bench(lambda: popcount_u64_lut(words), label="popcount/lut")
        fast = bench(lambda: np.bitwise_count(words), label="popcount/hw")
        _record("popcount_u64", ref, fast, speedup(ref, fast),
                words=int(words.size))

        signs = np.where(rng.random((1024, 576)) > 0.5, 1.0, -1.0)
        np.testing.assert_array_equal(pack_signs(signs), _seed_pack_signs(signs))
        pack_ref = bench(lambda: _seed_pack_signs(signs),
                         label="pack_signs/seed_bit_loop", repeats=3)
        pack_fast = bench(lambda: pack_signs(signs), label="pack_signs/packbits")
        gbits = signs.size / pack_fast.best / 1e9
        _record("pack_signs", pack_ref, pack_fast, speedup(pack_ref, pack_fast),
                gigabits_per_s=gbits)
        assert speedup(pack_ref, pack_fast) > 1.0
        assert speedup(ref, fast) > 1.0
