"""Token normalization: stopwords and light suffix stemming.

A full stemmer is overkill for this vocabulary; we strip plural and
gerund suffixes so "disengagements"/"disengagement" and
"yielding"/"yield" unify, which is what the phrase matching needs.
"""

from __future__ import annotations

from functools import lru_cache

STOPWORDS = frozenset((
    "a an the and or of to in on at for with by from as is was were are "
    "be been being it its this that these those there then than so such "
    "did do does done not no nor own other out over under up down "
    "driver drivers test vehicle vehicles car cars av "
    "safely resumed took take taken immediate manual control mode "
    "disengage disengaged disengagement disengagements result "
    "autonomous").split())

_SUFFIXES = ("ings", "ing", "edly", "ed", "es", "s")

#: Words short enough that stripping a suffix destroys them.
_MIN_STEM_LENGTH = 4


@lru_cache(maxsize=8192)
def stem(token: str) -> str:
    """Strip one common suffix from ``token`` (light stemming).

    Memoized: a corpus's vocabulary is a few hundred words, each
    stemmed thousands of times.
    """
    for suffix in _SUFFIXES:
        if token.endswith(suffix):
            candidate = token[: -len(suffix)]
            if len(candidate) >= _MIN_STEM_LENGTH - 1:
                return candidate
    return token


def normalize_tokens(tokens: list[str]) -> list[str]:
    """Drop stopwords and stem the rest.

    Stopword filtering removes the boilerplate that appears in nearly
    every report row ("driver safely disengaged and resumed manual
    control") so it cannot vote for any tag.
    """
    out = []
    for token in tokens:
        if token in STOPWORDS:
            continue
        out.append(stem(token))
    return out
