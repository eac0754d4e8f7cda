"""Tile-delta planner: content hashing, dirty/reused split, isolation."""

import numpy as np

from repro.infer import plan_tiles, tile_view
from repro.serve import ResultCache, content_key
from repro.stream import plan_frame_delta

MODEL = ("srresnet", "scales", 2)


def _frame(seed=0, h=16, w=16, c=3):
    rng = np.random.default_rng(seed)
    return rng.random((h, w, c)).astype(np.float32)


def _fill_cache(frame, plan, cache):
    """Pretend every tile of ``frame`` was computed: cache fake SR."""
    for i, spec in enumerate(plan.tiles):
        view = tile_view(frame, spec, plan.tile_h, plan.tile_w)
        key = content_key(MODEL, view)
        sr = np.full((plan.tile_h * 2, plan.tile_w * 2, 3), i / 100.0,
                     dtype=np.float64)
        cache.put(key, sr)


class TestPlanning:
    def test_cold_cache_everything_dirty(self):
        frame = _frame()
        plan = plan_tiles(16, 16, 8, overlap=0)
        cache = ResultCache(1 << 20)
        delta = plan_frame_delta(frame, plan, MODEL, cache)
        assert len(delta.keys) == len(plan.tiles) == 4
        assert delta.dirty == (0, 1, 2, 3)
        assert delta.reused == ()
        assert delta.reuse_ratio == 0.0

    def test_no_cache_everything_dirty(self):
        frame = _frame()
        plan = plan_tiles(16, 16, 8, overlap=0)
        delta = plan_frame_delta(frame, plan, MODEL, cache=None)
        assert delta.dirty == (0, 1, 2, 3)

    def test_identical_frame_fully_reused(self):
        frame = _frame()
        plan = plan_tiles(16, 16, 8, overlap=0)
        cache = ResultCache(1 << 20)
        _fill_cache(frame, plan, cache)
        delta = plan_frame_delta(frame.copy(), plan, MODEL, cache)
        assert delta.dirty == ()
        assert delta.reused == (0, 1, 2, 3)
        assert delta.reuse_ratio == 1.0
        assert sorted(delta.cached) == [0, 1, 2, 3]

    def test_single_pixel_change_dirties_only_covering_tiles(self):
        frame = _frame()
        plan = plan_tiles(16, 16, 8, overlap=0)
        cache = ResultCache(1 << 20)
        _fill_cache(frame, plan, cache)
        changed = frame.copy()
        changed[2, 3, 0] += 0.5  # inside tile 0 only (overlap 0)
        delta = plan_frame_delta(changed, plan, MODEL, cache)
        assert delta.dirty == (0,)
        assert delta.reused == (1, 2, 3)

    def test_overlap_change_dirties_every_covering_tile(self):
        # With overlap, a pixel in the shared band belongs to several
        # tiles; all of them must go dirty.
        frame = _frame(h=24, w=24)
        plan = plan_tiles(24, 24, 16, overlap=8)  # stride 8, 2x2 tiles
        cache = ResultCache(1 << 20)
        _fill_cache(frame, plan, cache)
        changed = frame.copy()
        changed[12, 12, 1] += 0.25  # inside all four tiles' footprints
        delta = plan_frame_delta(changed, plan, MODEL, cache)
        assert delta.reused == ()
        assert len(delta.dirty) == len(plan.tiles)

    def test_duplicate_content_tiles_share_keys(self):
        frame = np.zeros((16, 16, 3), dtype=np.float32)  # uniform
        plan = plan_tiles(16, 16, 8, overlap=0)
        delta = plan_frame_delta(frame, plan, MODEL, cache=None)
        assert len(set(delta.keys)) == 1
        assert len(delta.dirty) == 4  # all dirty, but one distinct key

    def test_model_key_partitions_the_cache(self):
        frame = _frame()
        plan = plan_tiles(16, 16, 8, overlap=0)
        cache = ResultCache(1 << 20)
        _fill_cache(frame, plan, cache)
        other = ("edsr", "e2fif", 2)
        delta = plan_frame_delta(frame, plan, other, cache)
        assert delta.reused == ()  # same bytes, different model

    def test_cached_tiles_are_eager_isolated_copies(self):
        # Eviction between plan and stitch must not strand the frame:
        # the delta carries private copies fetched at plan time.
        frame = _frame()
        plan = plan_tiles(16, 16, 8, overlap=0)
        cache = ResultCache(1 << 20)
        _fill_cache(frame, plan, cache)
        delta = plan_frame_delta(frame, plan, MODEL, cache)
        before = {i: sr.copy() for i, sr in delta.cached.items()}
        cache.clear()  # adversarial eviction after planning
        for i, sr in delta.cached.items():
            np.testing.assert_array_equal(sr, before[i])

    def test_planner_keys_match_server_content_keys(self):
        # The stream's tile keys are exactly the serving layer's
        # content keys over the same bytes, so a dirty tile coalesces
        # with identical in-flight work server-side.
        frame = _frame()
        plan = plan_tiles(16, 16, 8, overlap=0)
        delta = plan_frame_delta(frame, plan, MODEL, cache=None)
        for i, spec in enumerate(plan.tiles):
            view = tile_view(frame, spec, plan.tile_h, plan.tile_w)
            assert delta.keys[i] == content_key(MODEL, view)
            assert delta.keys[i] == content_key(
                MODEL, np.ascontiguousarray(view)
            )
