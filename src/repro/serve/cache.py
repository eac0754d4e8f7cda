"""Content-addressed result cache with byte-size LRU eviction.

Serving traffic repeats itself — thumbnails regenerate, the same frame
is requested by many clients — and a super-resolved output is a pure
function of ``(model, input image)``.  :class:`ResultCache` therefore
keys finished outputs by a content hash of the input bytes (shape,
dtype and raw data) plus the model key, and serves repeats without
touching the engine at all.

Eviction is by *bytes*, not entries: SR outputs are large and uneven
(a 4x upscale of a big tile dwarfs a small one), so the bound that
matters operationally is resident memory.  Insertion walks the LRU
order, dropping least-recently-used entries until the new value fits;
a value larger than the whole budget is simply not cached.

Stored and returned arrays are **copies**: a caller mutating a served
output must never poison later cache hits, and the engine reusing an
output buffer must never mutate a stored value.

A video stream keeps one more :class:`ResultCache` as its tile store:
consecutive frames are largely static, so keying each input tile by
:func:`content_key` lets a stream serve unchanged regions from it and
pay inference only for dirty tiles.  The stream counts its reused and
computed tiles in the metrics registry, not here.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ResultCache", "content_key"]


def content_key(model_key, image: np.ndarray) -> str:
    """Content hash identifying ``image`` served by ``model_key``.

    The digest covers the model key, dtype, shape and raw bytes, so two
    byte-identical images collide (that is the point) and any single
    changed pixel, dtype or layout yields a different key.

    ``image`` is normalized with ``np.ascontiguousarray`` before
    hashing: non-contiguous views (tile slices of a frame, transposed
    or negative-stride arrays) must hash identically to their packed
    copies, otherwise logically identical inputs would miss the cache
    — or worse, ``tobytes()`` of a strided view would serialize in a
    different order than its copy and silently split the key space.
    """
    image = np.ascontiguousarray(image)
    digest = hashlib.sha256()
    digest.update(repr(model_key).encode())
    digest.update(str(image.dtype).encode())
    digest.update(str(image.shape).encode())
    digest.update(image.tobytes())
    return digest.hexdigest()


class ResultCache:
    """Byte-bounded LRU cache of finished outputs, keyed by content.

    Parameters
    ----------
    max_bytes:
        Total budget for stored array payloads; ``0`` disables the
        cache entirely (every ``get`` misses, every ``put`` is a no-op).

    All methods are thread-safe.  ``hits`` / ``misses`` / ``evictions``
    / ``current_bytes`` are exposed for telemetry mirroring and tests.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[np.ndarray]:
        """The cached output for ``key`` (a copy), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value.copy()

    def put(self, key: str, value: np.ndarray) -> bool:
        """Store ``value`` under ``key``; returns True if it was cached.

        Oversized values (``nbytes > max_bytes``) are refused rather
        than evicting the whole cache for one entry.  Re-putting an
        existing key replaces the stored value and refreshes recency.
        """
        value = np.asarray(value)
        nbytes = int(value.nbytes)
        if nbytes > self.max_bytes:
            return False
        stored = value.copy()
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= int(old.nbytes)
            budget = self.max_bytes - nbytes
            while self._entries and self.current_bytes > budget:
                _, dropped = self._entries.popitem(last=False)
                self.current_bytes -= int(dropped.nbytes)
                self.evictions += 1
            self._entries[key] = stored
            self.current_bytes += nbytes
        return True

    def clear(self) -> None:
        """Drop every entry (counters are kept: they track a lifetime)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def keys(self) -> Tuple[str, ...]:
        """Current keys in LRU order (oldest first) — for tests."""
        with self._lock:
            return tuple(self._entries)

