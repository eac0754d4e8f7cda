"""Result cache: content keys, byte-bounded LRU eviction, isolation."""

import numpy as np
import pytest

from repro.serve import ResultCache, content_key


def _arr(fill, shape=(4, 4, 3), dtype=np.float32):
    return np.full(shape, fill, dtype=dtype)


class TestContentKey:
    def test_identical_inputs_collide(self):
        a = _arr(0.25)
        b = a.copy()
        key = ("srresnet", "scales", 2)
        assert content_key(key, a) == content_key(key, b)

    def test_one_pixel_changes_key(self):
        a = _arr(0.25)
        b = a.copy()
        b[0, 0, 0] += 1e-3
        key = ("srresnet", "scales", 2)
        assert content_key(key, a) != content_key(key, b)

    def test_model_key_is_part_of_identity(self):
        a = _arr(0.25)
        assert content_key(("srresnet", "scales", 2), a) != content_key(
            ("edsr", "scales", 2), a
        )

    def test_dtype_and_shape_matter(self):
        a = _arr(0.25, dtype=np.float32)
        b = _arr(0.25, dtype=np.float64)
        key = ("srresnet", "scales", 2)
        assert content_key(key, a) != content_key(key, b)
        # Same bytes, different geometry must not collide.
        flat = np.zeros(12, dtype=np.float32)
        assert content_key(key, flat.reshape(2, 6)) != content_key(
            key, flat.reshape(6, 2)
        )

    def test_non_contiguous_input_hashes_like_its_copy(self):
        base = np.arange(48, dtype=np.float32).reshape(4, 4, 3)
        view = base[::2]
        key = ("srresnet", "scales", 2)
        assert content_key(key, view) == content_key(key, view.copy())

    def test_tile_slice_of_frame_hashes_like_its_copy(self):
        # The streaming planner hashes tile *views* of an HWC frame —
        # row-sliced, column-sliced, non-contiguous in memory.  Their
        # keys must match a packed copy or the tile cache (and the
        # server's coalescing) would never see repeats.
        frame = np.arange(16 * 20 * 3, dtype=np.float32)
        frame = frame.reshape(16, 20, 3)
        key = ("srresnet", "scales", 2)
        tile = frame[4:12, 6:14]  # interior tile: both axes strided
        assert not tile.flags["C_CONTIGUOUS"]
        assert content_key(key, tile) == content_key(
            key, np.ascontiguousarray(tile)
        )
        # And the same content at a different origin collides too.
        frame2 = np.zeros((16, 20, 3), dtype=np.float32)
        frame2[1:9, 2:10] = tile
        assert content_key(key, frame2[1:9, 2:10]) == content_key(
            key, tile.copy()
        )

    def test_fortran_order_hashes_like_c_order(self):
        a = np.arange(24, dtype=np.float32).reshape(4, 6)
        f = np.asfortranarray(a)
        assert not f.flags["C_CONTIGUOUS"]
        key = ("srresnet", "scales", 2)
        assert content_key(key, f) == content_key(key, a)

    def test_negative_stride_view_hashes_like_its_copy(self):
        a = np.arange(24, dtype=np.float32).reshape(4, 6)
        rev = a[::-1, ::-1]
        key = ("srresnet", "scales", 2)
        assert content_key(key, rev) == content_key(key, rev.copy())
        # Reversal changes content, so it must NOT collide with the
        # original orientation.
        assert content_key(key, rev) != content_key(key, a)


class TestResultCache:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(max_bytes=1 << 20)
        value = _arr(0.5)
        assert cache.get("k") is None
        assert cache.put("k", value)
        np.testing.assert_array_equal(cache.get("k"), value)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["current_bytes"] == value.nbytes

    def test_returned_array_is_isolated(self):
        cache = ResultCache(max_bytes=1 << 20)
        value = _arr(0.5)
        cache.put("k", value)
        value[:] = -1.0  # caller mutates after put
        out = cache.get("k")
        np.testing.assert_array_equal(out, _arr(0.5))
        out[:] = -2.0  # caller mutates the hit
        np.testing.assert_array_equal(cache.get("k"), _arr(0.5))

    def test_lru_eviction_by_bytes(self):
        entry_bytes = _arr(0.0).nbytes
        cache = ResultCache(max_bytes=2 * entry_bytes)
        cache.put("a", _arr(1.0))
        cache.put("b", _arr(2.0))
        cache.put("c", _arr(3.0))  # evicts "a"
        assert cache.get("a") is None
        np.testing.assert_array_equal(cache.get("b"), _arr(2.0))
        np.testing.assert_array_equal(cache.get("c"), _arr(3.0))
        assert cache.evictions == 1
        assert cache.current_bytes == 2 * entry_bytes

    def test_get_refreshes_recency(self):
        entry_bytes = _arr(0.0).nbytes
        cache = ResultCache(max_bytes=2 * entry_bytes)
        cache.put("a", _arr(1.0))
        cache.put("b", _arr(2.0))
        cache.get("a")  # "b" is now least recently used
        cache.put("c", _arr(3.0))
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_oversized_value_is_refused(self):
        cache = ResultCache(max_bytes=8)
        assert not cache.put("big", _arr(1.0))
        assert len(cache) == 0
        assert cache.get("big") is None

    def test_replacing_a_key_updates_bytes(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("k", _arr(1.0, shape=(2, 2, 3)))
        cache.put("k", _arr(2.0, shape=(8, 8, 3)))
        assert len(cache) == 1
        assert cache.current_bytes == _arr(0.0, shape=(8, 8, 3)).nbytes
        np.testing.assert_array_equal(cache.get("k"), _arr(2.0, shape=(8, 8, 3)))

    def test_zero_budget_disables(self):
        cache = ResultCache(max_bytes=0)
        assert not cache.put("k", _arr(1.0))
        assert cache.get("k") is None

    def test_clear_keeps_lifetime_counters(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("k", _arr(1.0))
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.hits == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=-1)

