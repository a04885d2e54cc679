"""Tokenization for disengagement narratives."""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens of ``text`` (apostrophes kept in-word)."""
    return _TOKEN_RE.findall(text.lower())
