"""Self-ensemble and tiled inference."""

import numpy as np
import pytest

from repro import grad as G
from repro.data import benchmark_suite
from repro.infer import (DIHEDRAL_TRANSFORMS, plan_tiles, self_ensemble,
                         tiled_super_resolve)
from repro.infer.tiling import _tile_starts
from repro.metrics import psnr_y
from repro.models import build_model
from repro.nn import Module, init
from repro.train import super_resolve

from ..oracles import self_ensemble_reference


class _Bilinear(Module):
    """Deterministic stand-in model: nearest-neighbour x2 upscale."""

    def forward(self, x):
        data = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
        from repro.grad import Tensor
        return Tensor(data)


class TestDihedralTransforms:
    def test_eight_distinct_transforms(self):
        rng = np.random.default_rng(0)
        img = rng.random((6, 8, 3))
        results = {DIHEDRAL_TRANSFORMS[i][0](img).tobytes()
                   for i in range(8)}
        assert len(results) == 8

    def test_inverses_cancel(self):
        rng = np.random.default_rng(1)
        img = rng.random((5, 7, 3))
        for forward_t, inverse_t in DIHEDRAL_TRANSFORMS:
            np.testing.assert_array_equal(inverse_t(forward_t(img)), img)


class TestSelfEnsemble:
    def test_equivariant_model_unchanged(self):
        # A transform-equivariant model makes the ensemble a no-op, which
        # checks the inverse bookkeeping precisely.
        model = _Bilinear()
        rng = np.random.default_rng(2)
        img = rng.random((6, 6, 3)).astype(np.float32)
        single = super_resolve(model, img)
        ensembled = self_ensemble(model, img, n_transforms=8)
        np.testing.assert_allclose(ensembled, single, atol=1e-6)

    def test_n_transforms_one_equals_plain(self):
        with G.default_dtype("float32"):
            init.seed(0)
            model = build_model("srresnet", scale=2, scheme="scales",
                                preset="tiny")
            img = np.random.default_rng(3).random((8, 8, 3)).astype(np.float32)
            np.testing.assert_allclose(self_ensemble(model, img, 1),
                                       np.clip(super_resolve(model, img), 0, 1),
                                       atol=1e-6)

    def test_bad_n_transforms(self):
        with pytest.raises(ValueError):
            self_ensemble(_Bilinear(), np.zeros((4, 4, 3)), 0)
        with pytest.raises(ValueError):
            self_ensemble(_Bilinear(), np.zeros((4, 4, 3)), 9)

    def test_ensemble_at_least_matches_single_on_average(self):
        # Averaging dihedral predictions is a variance reduction; on a
        # real (non-equivariant) model it should not hurt materially.
        with G.default_dtype("float32"):
            init.seed(1)
            model = build_model("srresnet", scale=2, scheme="fp", preset="tiny")
            pairs = benchmark_suite("urban100", 2, 3, (32, 32))
            deltas = []
            for pair in pairs:
                single = psnr_y(np.clip(super_resolve(model, pair.lr), 0, 1),
                                pair.hr, shave=2)
                plus = psnr_y(self_ensemble(model, pair.lr, 8), pair.hr, shave=2)
                deltas.append(plus - single)
            assert np.mean(deltas) > -0.1


class TestTileStarts:
    def test_small_input_single_tile(self):
        assert _tile_starts(10, 16, 8) == [0]

    def test_flush_right_coverage(self):
        starts = _tile_starts(20, 8, 6)
        assert starts[-1] == 12
        covered = set()
        for s in starts:
            covered.update(range(s, s + 8))
        assert covered == set(range(20))


class TestPlanTiles:
    """The tiling geometry of every tiled surface."""

    def test_zero_overlap_plan_has_no_trim(self):
        plan = plan_tiles(20, 20, 8, overlap=0)
        assert plan.trim == 0
        assert all(s.top == s.left == s.bottom == s.right == 0
                   for s in plan.tiles)

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

    def test_full_coverage_after_trim(self):
        for h, w, tile, overlap in [(37, 41, 16, 8), (20, 14, 8, 4),
                                    (64, 64, 16, 6), (10, 50, 12, 2)]:
            plan = plan_tiles(h, w, tile, overlap)
            covered = np.zeros((h, w), dtype=int)
            th, tw = plan.tile_h, plan.tile_w
            for s in plan.tiles:
                covered[s.y0 + s.top:s.y0 + th - s.bottom,
                        s.x0 + s.left:s.x0 + tw - s.right] += 1
            assert (covered >= 1).all(), (h, w, tile, overlap)

    def test_borders_never_trimmed(self):
        plan = plan_tiles(40, 40, 16, 8)
        th, tw = plan.tile_h, plan.tile_w
        for s in plan.tiles:
            if s.y0 == 0:
                assert s.top == 0
            if s.x0 == 0:
                assert s.left == 0
            if s.y0 + th == 40:
                assert s.bottom == 0
            if s.x0 + tw == 40:
                assert s.right == 0

    def test_interior_edges_trimmed(self):
        plan = plan_tiles(40, 40, 16, 8)
        th = plan.tile_h
        interior = [s for s in plan.tiles if 0 < s.y0 and s.y0 + th < 40]
        assert interior
        assert all(s.top == s.bottom == plan.trim == 4 for s in interior)

    def test_small_input_single_tile(self):
        plan = plan_tiles(10, 12, 48, 8)
        assert len(plan) == 1
        assert (plan.tile_h, plan.tile_w) == (10, 12)

    def test_validation(self):
        with pytest.raises(ValueError, match="tile"):
            plan_tiles(20, 20, 0, 0)
        with pytest.raises(ValueError, match="overlap"):
            plan_tiles(20, 20, 8, 8)
        with pytest.raises(ValueError, match="trim"):
            plan_tiles(20, 20, 8, 4, trim=3)


class TestBatchedSelfEnsemble:
    def test_batched_matches_sequential(self):
        with G.default_dtype("float32"):
            init.seed(3)
            model = build_model("srresnet", scale=2, scheme="scales",
                                preset="tiny")
            img = np.random.default_rng(6).random((8, 8, 3)).astype(np.float32)
            for n in (1, 4, 8):
                seq = self_ensemble_reference(model, img, n)
                bat = self_ensemble(model, img, n)
                np.testing.assert_allclose(bat, seq, atol=1e-6)

    def test_batched_with_threads(self):
        with G.default_dtype("float32"):
            init.seed(4)
            model = build_model("srresnet", scale=2, scheme="e2fif",
                                preset="tiny")
            img = np.random.default_rng(7).random((10, 8, 3)).astype(np.float32)
            seq = self_ensemble_reference(model, img, 8)
            bat = self_ensemble(model, img, 8, n_threads=4)
            np.testing.assert_allclose(bat, seq, atol=1e-6)

    def test_rectangular_image_groups_shapes(self):
        # Non-square inputs force two shape groups (H,W) and (W,H).
        model = _Bilinear()
        rng = np.random.default_rng(8)
        img = rng.random((6, 10, 3)).astype(np.float32)
        seq = self_ensemble_reference(model, img, 8)
        bat = self_ensemble(model, img, 8)
        np.testing.assert_allclose(bat, seq, atol=1e-6)


class TestTiledSuperResolve:
    def test_matches_whole_image_for_local_model(self):
        # Nearest-neighbour upscale is purely local: tiling must be exact.
        model = _Bilinear()
        rng = np.random.default_rng(4)
        img = rng.random((20, 14, 3))
        whole = np.clip(super_resolve(model, img), 0, 1)
        tiled = tiled_super_resolve(model, img, scale=2, tile=8, overlap=4)
        np.testing.assert_allclose(tiled, whole, atol=1e-6)

    def test_close_to_whole_image_for_real_model(self):
        with G.default_dtype("float32"):
            init.seed(2)
            model = build_model("srresnet", scale=2, scheme="scales",
                                preset="tiny")
            img = np.random.default_rng(5).random((24, 24, 3)).astype(np.float32)
            whole = np.clip(super_resolve(model, img), 0, 1)
            tiled = tiled_super_resolve(model, img, scale=2, tile=16, overlap=8)
            # Seam bands may differ slightly; the bulk must agree.
            assert np.abs(tiled - whole).mean() < 0.01

    def test_window_multiple_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            tiled_super_resolve(_Bilinear(), np.zeros((16, 16, 3)), 2,
                                tile=10, lr_multiple=4)

    def test_overlap_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            tiled_super_resolve(_Bilinear(), np.zeros((16, 16, 3)), 2,
                                tile=8, overlap=8)

    def test_output_geometry(self):
        out = tiled_super_resolve(_Bilinear(), np.zeros((18, 10, 3)), 2,
                                  tile=8, overlap=2)
        assert out.shape == (36, 20, 3)
