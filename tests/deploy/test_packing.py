"""Unit and property tests for the bit-packing codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy import pack_signs, packed_words, unpack_signs
from repro.deploy.packing import WORD_BITS

from ..oracles import popcount_u64, popcount_u64_lut


class TestPackedWords:
    def test_exact_multiples(self):
        assert packed_words(0) == 0
        assert packed_words(64) == 1
        assert packed_words(128) == 2

    def test_rounding_up(self):
        assert packed_words(1) == 1
        assert packed_words(65) == 2
        assert packed_words(127) == 2

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            packed_words(-1)


class TestPackSigns:
    def test_known_pattern(self):
        # +1 at positions 0 and 2 -> bits 0b101 = 5.
        signs = np.array([1.0, -1.0, 1.0])
        packed = pack_signs(signs)
        assert packed.shape == (1,)
        assert packed[0] == np.uint64(5)

    def test_bit_position_convention(self):
        # A lone +1 at position i sets bit i of word i // 64.
        for i in (0, 5, 63, 64, 100):
            signs = -np.ones(130)
            signs[i] = 1.0
            packed = pack_signs(signs)
            word, bit = divmod(i, WORD_BITS)
            assert packed[word] == np.uint64(1) << np.uint64(bit)
            others = [w for j, w in enumerate(packed) if j != word]
            assert all(w == 0 for w in others)

    def test_zero_counts_as_positive(self):
        packed = pack_signs(np.array([0.0, -1.0]))
        assert packed[0] == np.uint64(1)

    def test_leading_axes_preserved(self):
        signs = np.where(np.random.default_rng(0).random((2, 3, 70)) > 0.5, 1.0, -1.0)
        packed = pack_signs(signs)
        assert packed.shape == (2, 3, 2)

    def test_scalar_input_raises(self):
        with pytest.raises(ValueError):
            pack_signs(np.float64(1.0))

    def test_unpack_word_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            unpack_signs(np.zeros((1, 2), dtype=np.uint64), 64)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=200), st.integers(0, 2**31))
    def test_roundtrip(self, k, seed):
        rng = np.random.default_rng(seed)
        signs = np.where(rng.random((3, k)) > 0.5, 1.0, -1.0)
        recovered = unpack_signs(pack_signs(signs), k)
        np.testing.assert_array_equal(recovered, signs)


class TestPopcount:
    def test_known_values(self):
        values = np.array([0, 1, 3, 0xFF, 2**63, 2**64 - 1], dtype=np.uint64)
        expected = [0, 1, 2, 8, 1, 64]
        np.testing.assert_array_equal(popcount_u64(values), expected)

    def test_shape_preserved(self):
        words = np.zeros((2, 3, 4), dtype=np.uint64)
        assert popcount_u64(words).shape == (2, 3, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_matches_python_bin(self, value):
        arr = np.array([value], dtype=np.uint64)
        assert popcount_u64(arr)[0] == bin(value).count("1")


class TestPackingEdgeCases:
    """Word-boundary, degenerate-shape and codec-equivalence cases."""

    def test_k_exactly_one_word(self):
        rng = np.random.default_rng(10)
        signs = np.where(rng.random((5, WORD_BITS)) > 0.5, 1.0, -1.0)
        packed = pack_signs(signs)
        assert packed.shape == (5, 1)
        np.testing.assert_array_equal(unpack_signs(packed, WORD_BITS), signs)

    @pytest.mark.parametrize("k", [1, 63, 65, 100, 127, 129])
    def test_k_not_a_word_multiple(self, k):
        rng = np.random.default_rng(k)
        signs = np.where(rng.random((4, k)) > 0.5, 1.0, -1.0)
        packed = pack_signs(signs)
        assert packed.shape == (4, packed_words(k))
        np.testing.assert_array_equal(unpack_signs(packed, k), signs)

    def test_single_row(self):
        signs = np.where(np.random.default_rng(11).random((1, 70)) > 0.5,
                         1.0, -1.0)
        packed = pack_signs(signs)
        assert packed.shape == (1, 2)
        np.testing.assert_array_equal(unpack_signs(packed, 70), signs)

    def test_empty_batch_roundtrip(self):
        signs = np.empty((0, 70))
        packed = pack_signs(signs)
        assert packed.shape == (0, 2)
        assert unpack_signs(packed, 70).shape == (0, 70)

    def test_output_dtype_and_padding_bits_zero(self):
        packed = pack_signs(np.ones((2, 65)))
        assert packed.dtype == np.uint64
        # Bits 65..127 must stay zero so both gemm operands pad equally.
        assert packed[0, 1] == np.uint64(1)

    def test_empty_batch_binary_gemm(self):
        from repro.deploy import binary_gemm
        a = pack_signs(np.empty((0, 64)))
        b = pack_signs(np.where(np.random.default_rng(12).random((3, 64)) > 0.5,
                                1.0, -1.0))
        out = binary_gemm(a, b, 64)
        assert out.shape == (0, 3)
        out = binary_gemm(b, a, 64)
        assert out.shape == (3, 0)

    @pytest.mark.parametrize("k", [64, 128])
    def test_exact_word_multiple_gemm(self, k):
        from repro.deploy import binary_gemm
        rng = np.random.default_rng(k)
        a = np.where(rng.random((5, k)) > 0.5, 1.0, -1.0)
        b = np.where(rng.random((4, k)) > 0.5, 1.0, -1.0)
        out = binary_gemm(pack_signs(a), pack_signs(b), k)
        np.testing.assert_array_equal(out, (a @ b.T).astype(np.int32))


class TestSeededRoundTripSweep:
    """Deterministic randomized sweep of the pack/unpack codec.

    Complements the hypothesis properties above with a fixed, exhaustive
    grid over the shapes that have bitten packed kernels before: K=1,
    K straddling every word boundary, single rows, and tall panels.
    """

    WIDTHS = (1, 2, 63, 64, 65, 127, 128, 129, 191, 200, 1000)
    ROWS = (1, 3, 17)

    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_roundtrip(self, rows, k):
        rng = np.random.default_rng(1000 * rows + k)
        signs = np.where(rng.random((rows, k)) > 0.5, 1.0, -1.0)
        packed = pack_signs(signs)
        assert packed.shape == (rows, packed_words(k))
        np.testing.assert_array_equal(unpack_signs(packed, k), signs)

    @pytest.mark.parametrize("k", WIDTHS)
    def test_tail_bits_are_zero(self, k):
        # All-ones rows: every bit beyond k must stay 0 so both GEMM
        # operands pad identically.
        packed = pack_signs(np.ones((2, k)))
        total = int(np.bitwise_count(packed).sum())
        assert total == 2 * k

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_3d_panels(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 300))
        signs = np.where(rng.random((2, 3, k)) > 0.5, 1.0, -1.0)
        np.testing.assert_array_equal(unpack_signs(pack_signs(signs), k),
                                      signs)


class TestSwarPopcountOracle:
    """The popcount ``binary_gemm`` runs (``np.bitwise_count``) and the
    SWAR oracle agree with the seed LUT oracle."""

    def test_matches_lut_reference(self):
        rng = np.random.default_rng(13)
        words = rng.integers(0, 2**64, size=(64, 33), dtype=np.uint64)
        expected = popcount_u64_lut(words)
        np.testing.assert_array_equal(popcount_u64(words), expected)
        np.testing.assert_array_equal(np.bitwise_count(words), expected)

    def test_extremes(self):
        words = np.array([0, 2**64 - 1, 0xAAAAAAAAAAAAAAAA,
                          0x5555555555555555], dtype=np.uint64)
        np.testing.assert_array_equal(popcount_u64(words), [0, 64, 32, 32])
        np.testing.assert_array_equal(popcount_u64_lut(words), [0, 64, 32, 32])
        np.testing.assert_array_equal(np.bitwise_count(words), [0, 64, 32, 32])
