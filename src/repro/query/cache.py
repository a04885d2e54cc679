"""Bounded, thread-safe LRU result cache for the query engine.

Keys are ``(database fingerprint, canonical query)`` pairs: the
fingerprint is the content hash of the database snapshot an entry was
computed from, so a content change makes every old key unreachable —
stale results are *structurally* impossible to serve, no explicit
invalidation pass needed.

Hit/miss/eviction counters are kept under the same lock as the map
and surfaced through :meth:`LruCache.stats` for ``/v1/stats``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: Distinguishes "no entry" from a cached ``None`` value.
_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`LruCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``/v1/stats`` ``cache`` section)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class LruCache:
    """A classic bounded LRU map, safe for concurrent readers/writers.

    ``maxsize <= 0`` disables caching entirely (every lookup misses,
    nothing is stored) — handy for benchmarking the uncached path
    through otherwise identical code.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self._maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, counting the hit/miss; LRU-refreshes."""
        with self._lock:
            value = self._data.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def __contains__(self, key: Hashable) -> bool:
        # Pure membership probe: no counter side effects.
        with self._lock:
            return key in self._data

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite, evicting the LRU entry past capacity."""
        if self._maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self._maxsize,
            )
