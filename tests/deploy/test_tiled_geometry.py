"""TiledInference geometry edge cases.

A 1x1-kernel packed model is strictly local (no padding, no halo), so
overlap-and-stitch must reproduce the untiled forward **bit-identically**
for every tile geometry: averaged overlap pixels agree exactly because
``(x + x) / 2 == x`` in IEEE float, and trims only discard duplicates.
"""

import numpy as np
import pytest

from repro import grad as G
from repro.binarize import SCALESBinaryConv2d
from repro.binarize.baselines import E2FIFBinaryConv2d
from repro.deploy import TiledInference, compile_model
from repro.grad import Tensor, no_grad
from repro.infer import plan_tiles
from repro.nn import Sequential, init

from ..oracles import SequentialTiledInference


@pytest.fixture(autouse=True)
def _float32():
    with G.default_dtype("float32"):
        yield


def _forward(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _local_model():
    """Compiled packed model with zero receptive halo (1x1 convs)."""
    init.seed(50)
    return compile_model(Sequential(
        SCALESBinaryConv2d(3, 3, 1, use_spatial=False, use_channel=False),
        E2FIFBinaryConv2d(3, 3, 1)))


class TestTileCoversImage:
    """tile >= image must bypass tiling and hit the exact model output."""

    @pytest.mark.parametrize("shape", [(10, 10), (16, 16), (16, 9), (1, 1)])
    def test_bit_identical_bypass(self, shape):
        model = _local_model()
        tiled = TiledInference(model, tile=16, overlap=4)
        h, w = shape
        x = np.random.default_rng(h * 100 + w).normal(
            size=(1, 3, h, w)).astype(np.float32)
        np.testing.assert_array_equal(_forward(tiled, x), _forward(model, x))

    def test_bypass_even_with_halo_model(self):
        # 3x3 convs have a halo, but a single tile sees the whole image.
        init.seed(51)
        model = compile_model(Sequential(E2FIFBinaryConv2d(3, 3, 3)))
        tiled = TiledInference(model, tile=32, overlap=8)
        x = np.random.default_rng(9).normal(size=(1, 3, 20, 31)).astype(np.float32)
        np.testing.assert_array_equal(_forward(tiled, x), _forward(model, x))


class TestZeroOverlap:
    @pytest.mark.parametrize("shape", [(16, 16), (17, 23), (8, 40)])
    @pytest.mark.parametrize("batched", [True, False])
    def test_bit_identical_stitching(self, shape, batched):
        # batched=False runs the seed one-tile-per-forward oracle.
        model = _local_model()
        tiled = (TiledInference(model, tile=8, overlap=0, batch_size=3)
                 if batched else
                 SequentialTiledInference(model, tile=8, overlap=0))
        h, w = shape
        x = np.random.default_rng(h + w).normal(
            size=(2, 3, h, w)).astype(np.float32)
        np.testing.assert_array_equal(_forward(tiled, x), _forward(model, x))

    def test_zero_overlap_plan_has_no_trim(self):
        plan = plan_tiles(20, 20, 8, overlap=0)
        assert plan.trim == 0
        assert all(s.top == s.left == s.bottom == s.right == 0
                   for s in plan.tiles)


class TestOnePixelRemainder:
    """Inputs one pixel past a tile multiple: the flush-right final tile
    contributes a single fresh row/column."""

    @pytest.mark.parametrize("shape", [(17, 16), (16, 17), (17, 17), (9, 25)])
    def test_bit_identical_stitching(self, shape):
        model = _local_model()
        tiled = TiledInference(model, tile=8, overlap=0, batch_size=4)
        h, w = shape
        x = np.random.default_rng(h * 7 + w).normal(
            size=(1, 3, h, w)).astype(np.float32)
        np.testing.assert_array_equal(_forward(tiled, x), _forward(model, x))

    def test_remainder_tile_geometry(self):
        plan = plan_tiles(17, 17, 8, overlap=0)
        # Flush-right start at 9: the final tile re-covers 7 pixels and
        # contributes exactly one fresh one.
        ys = sorted({s.y0 for s in plan.tiles})
        assert ys == [0, 8, 9]
        covered = np.zeros(17, dtype=int)
        for y0 in ys:
            covered[y0:y0 + plan.tile_h] += 1
        assert (covered >= 1).all()

    def test_one_pixel_wide_input_axis(self):
        # W=1 clamps tile_w to 1; every tile is a 1-pixel-wide strip.
        model = _local_model()
        tiled = TiledInference(model, tile=8, overlap=0)
        x = np.random.default_rng(13).normal(size=(1, 3, 20, 1)).astype(np.float32)
        np.testing.assert_array_equal(_forward(tiled, x), _forward(model, x))


class TestOverlapAveragingIsExact:
    @pytest.mark.parametrize("overlap", [1, 2, 4, 6])
    def test_bit_identical_with_overlap(self, overlap):
        # Local model: overlapped pixels average identical values, which
        # is exact in IEEE arithmetic — stitching stays bit-identical.
        model = _local_model()
        tiled = TiledInference(model, tile=8, overlap=overlap, batch_size=2)
        x = np.random.default_rng(overlap).normal(
            size=(1, 3, 21, 19)).astype(np.float32)
        np.testing.assert_array_equal(_forward(tiled, x), _forward(model, x))

    def test_batched_matches_sequential_exactly_for_halo_model(self):
        # With a real 3x3 halo the tiled result differs from untiled at
        # seams, but batched and sequential execution must still agree
        # bit-for-bit.
        init.seed(52)
        model = compile_model(Sequential(E2FIFBinaryConv2d(3, 3, 3),
                                         E2FIFBinaryConv2d(3, 3, 3)))
        x = np.random.default_rng(14).normal(size=(1, 3, 30, 29)).astype(np.float32)
        seq = SequentialTiledInference(model, tile=12, overlap=6)
        bat = TiledInference(model, tile=12, overlap=6, batch_size=3)
        np.testing.assert_array_equal(_forward(bat, x), _forward(seq, x))
