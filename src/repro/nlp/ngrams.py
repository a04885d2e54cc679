"""N-gram extraction for the failure dictionary."""

from __future__ import annotations

from collections.abc import Sequence


def ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    """All contiguous ``n``-grams of ``tokens``, in position order."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    # ``zip`` over the n shifted slices builds each tuple in C.
    return list(zip(*[tokens[i:] for i in range(n)]))


def all_ngrams(tokens: Sequence[str],
               max_n: int = 3) -> list[tuple[str, ...]]:
    """All 1..max_n-grams of ``tokens``."""
    out: list[tuple[str, ...]] = []
    for n in range(1, max_n + 1):
        out.extend(ngrams(tokens, n))
    return out


def distinct_ngrams(tokens: Sequence[str],
                    max_n: int = 3) -> list[tuple[str, ...]]:
    """Each 1..max_n-gram of ``tokens`` once, in first-occurrence order.

    A ``set`` would do the dedupe too, but its iteration order depends
    on ``PYTHONHASHSEED``, and callers build ordered artifacts from it.
    """
    return list(dict.fromkeys(all_ngrams(tokens, max_n)))
