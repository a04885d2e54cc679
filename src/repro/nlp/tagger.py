"""Fault-tag assignment by keyword voting.

The paper: "This dictionary is used to design a voting scheme (which is
based on the maximum number of shared keywords) to assign a
disengagement cause to a fault tag.  In the event that this procedure
is unsuccessful ... the disengagement cause is marked with the
'Unknown-T' tag."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..taxonomy import FailureCategory, FaultTag, category_of
from .dictionary import DictionaryEntry, FailureDictionary, vote
from .textcache import cached_tokens, cached_tokens_batch


@dataclass
class TagResult:
    """Outcome of tagging one narrative."""

    tag: FaultTag
    category: FailureCategory
    #: Vote weight per candidate tag.
    scores: dict[FaultTag, float] = field(default_factory=dict)
    #: Dictionary entries that matched.
    matches: list[DictionaryEntry] = field(default_factory=list)
    #: False when the result fell back to Unknown-T or broke a tie.
    confident: bool = True


def _unknown() -> TagResult:
    return TagResult(tag=FaultTag.UNKNOWN,
                     category=category_of(FaultTag.UNKNOWN),
                     confident=False)


class VotingTagger:
    """Weighted keyword-voting tagger over a failure dictionary."""

    def __init__(self, dictionary: FailureDictionary) -> None:
        self.dictionary = dictionary

    def tag(self, text: str) -> TagResult:
        """Assign a fault tag to one narrative."""
        return self._tag_tokens(cached_tokens(text))

    def tag_batch(self, texts: list[str]) -> list[TagResult]:
        """Tag a whole batch; equals ``[self.tag(t) for t in texts]``.

        One pass through the token cache, then one match and one vote
        per distinct normalized token sequence: narratives that differ
        only in case, punctuation, stopwords or suffixes share a single
        :class:`TagResult` (at seed 2018 the 5,324 narratives are
        3,345 distinct texts and 2,370 sequences).  Results must be
        treated as read-only; equality with the per-unit loop is
        enforced by the property tests in ``tests/test_nlp.py``.
        """
        results: dict[tuple[str, ...], TagResult] = {}
        out: list[TagResult] = []
        for tokens in cached_tokens_batch(texts):
            key = tuple(tokens)
            result = results.get(key)
            if result is None:
                result = results[key] = self._tag_tokens(tokens)
            out.append(result)
        return out

    def _tag_tokens(self, tokens: list[str]) -> TagResult:
        """The voting scheme over one narrative's tokens.

        The top-voted tag wins; a tie goes to :func:`_break_tie` and
        the result is not confident.
        """
        matches = self.dictionary.match(tokens)
        votes, top = vote(matches)
        if not top:
            return _unknown()
        if len(top) == 1:
            best_tag, confident = top[0], True
        else:
            best_tag, confident = _break_tie(top, matches), False
        return TagResult(
            tag=best_tag,
            category=category_of(best_tag),
            scores=votes,
            matches=matches,
            confident=confident,
        )


def _break_tie(tied: list[FaultTag],
               matches: list[DictionaryEntry]) -> FaultTag:
    """Deterministic tie-break: phrase count, then total phrase length,
    then tag name (for stability)."""
    def key(tag: FaultTag) -> tuple:
        tag_matches = [m for m in matches if m.tag == tag]
        return (-len(tag_matches),
                -sum(len(m.phrase) for m in tag_matches),
                tag.value)
    return sorted(tied, key=key)[0]
