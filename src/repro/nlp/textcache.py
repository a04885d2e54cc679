"""Bounded memo for the tokenize -> normalize hot path.

Every NLP consumer — the voting tagger, the ablation tagger and the
dictionary builder — needs the same ``normalize_tokens(tokenize(text))``
preprocessing.  A run tokenizes each distinct narrative while building
the dictionary and looks it up again when Stage III tags the records,
so a small memo keyed by the raw text removes the repeated stemming
work entirely.

The cache is a thread-safe LRU with a hard capacity bound, so memory
stays flat however many pipelines a process runs.  Entries are pure
functions of the text (tokenization draws no randomness and has no
config knobs), which makes sharing one process-global cache across
runs safe; each pool worker process holds its own.

Contract: callers must treat a returned token list as **read-only**;
it is shared with every other caller that asks about the same text.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .normalize import normalize_tokens
from .tokenize import tokenize

#: Default memo capacity.  The full synthetic corpus holds ~5-6k
#: distinct narratives, so this keeps a whole run resident while
#: bounding the worst case to a few MB of short token lists.
DEFAULT_CAPACITY = 8192


class TokenCache:
    """Thread-safe bounded LRU of normalized token lists."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: OrderedDict[str, list[str]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def tokens(self, text: str) -> list[str]:
        """The normalized tokens of ``text`` (cached; do not mutate)."""
        with self._lock:
            cached = self._items.get(text)
            if cached is not None:
                self.hits += 1
                self._items.move_to_end(text)
                return cached
            self.misses += 1
        # Tokenize outside the lock: the work is pure, so a racing
        # duplicate computation is wasteful but harmless.
        computed = normalize_tokens(tokenize(text))
        with self._lock:
            self._items[text] = computed
            self._items.move_to_end(text)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)
        return computed

    def tokens_batch(self, texts: list[str]) -> list[list[str]]:
        """Normalized tokens for a whole batch (cached; do not mutate).

        Equivalent to ``[self.tokens(t) for t in texts]`` — including
        the hit/miss accounting: the first occurrence of an uncached
        text counts one miss, every later duplicate in the batch
        counts a hit, exactly as N sequential calls would.  The win is
        one lock round-trip for all cached lookups plus one for all
        insertions, instead of two per text.
        """
        out: list[list[str] | None] = [None] * len(texts)
        missing: dict[str, list[int]] = {}
        with self._lock:
            for index, text in enumerate(texts):
                cached = self._items.get(text)
                if cached is not None:
                    self.hits += 1
                    self._items.move_to_end(text)
                    out[index] = cached
                    continue
                slots = missing.get(text)
                if slots is None:
                    self.misses += 1
                    missing[text] = [index]
                else:
                    self.hits += 1
                    slots.append(index)
        if missing:
            computed = {text: normalize_tokens(tokenize(text))
                        for text in missing}
            with self._lock:
                for text, tokens in computed.items():
                    held = self._items.get(text)
                    if held is None:
                        held = self._items[text] = tokens
                    self._items.move_to_end(text)
                    for index in missing[text]:
                        out[index] = held
                while len(self._items) > self.capacity:
                    self._items.popitem(last=False)
        return out

    def stats(self) -> dict[str, int]:
        """A consistent ``{hits, misses, size, capacity}`` snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._items),
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._items.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._items)


#: Process-global memo shared by all taggers and dictionary builds.
_CACHE = TokenCache()


def cached_tokens(text: str) -> list[str]:
    """Normalized tokens of ``text`` via the shared memo (read-only)."""
    return _CACHE.tokens(text)


def cached_tokens_batch(texts: list[str]) -> list[list[str]]:
    """Batch variant of :func:`cached_tokens` (read-only lists)."""
    return _CACHE.tokens_batch(texts)


def token_cache() -> TokenCache:
    """The shared :class:`TokenCache` (for stats and tests)."""
    return _CACHE
