"""The failure dictionary: phrases that identify fault tags.

The paper: "we make several passes over the dataset to construct a
'Failure Dictionary' that contains a sequence of phrases (keywords)
extracted from the raw disengagement reports".  We reproduce that as a
two-pass construction:

1. **Seed pass** — a hand-curated seed set per tag derived from the
   Table III definitions (the authors' domain knowledge).
2. **Expansion pass** — narratives that the seed set tags univocally
   donate their frequent n-grams; phrases that co-occur almost
   exclusively (purity >= 0.8) with a single tag and are not corpus
   boilerplate are added with idf-scaled weights.

Phrases are stored normalized (stemmed, stopword-free) so they match
the same narratives regardless of inflection.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from ..taxonomy import FaultTag
from .ngrams import distinct_ngrams
from .normalize import normalize_tokens
from .textcache import cached_tokens_batch
from .tokenize import tokenize

#: Hand-curated seed phrases per tag (surface form; normalized at
#: build time).  Derived from Table III definitions and the published
#: example log lines, not from our generator's templates.
SEED_PHRASES: dict[FaultTag, tuple[str, ...]] = {
    FaultTag.ENVIRONMENT: (
        "construction zone", "emergency vehicle", "recklessly behaving",
        "reckless road user", "heavy rain", "sun glare", "debris",
        "lane closure", "weather conditions", "ran a red light",
        "accident blocking", "external factor",
    ),
    FaultTag.COMPUTER_SYSTEM: (
        "processor overload", "compute unit", "compute platform",
        "memory exhaustion", "onboard computer", "ecu",
        "thermal limits", "disk subsystem", "hardware fault",
        "rebooted",
    ),
    FaultTag.RECOGNITION_SYSTEM: (
        "didn't see", "failed to detect", "perception",
        "recognition system", "misclassified", "false obstacle",
        "failed to track", "low confidence", "traffic light",
        "lane markings",
    ),
    FaultTag.PLANNER: (
        "planner", "motion planning", "infeasible trajectory",
        "hesitated", "unwanted maneuver", "path planner",
        "incorrect lane", "anticipate the other driver",
    ),
    FaultTag.SENSOR: (
        "lidar", "radar", "gps", "camera", "sonar", "imu",
        "localize", "calibration drift", "sensor dropout",
        "signal lost", "returns degraded", "wheel-speed",
    ),
    FaultTag.NETWORK: (
        "network", "can bus", "data rate", "latency", "packets",
        "network switch", "bus saturation",
    ),
    FaultTag.DESIGN_BUG: (
        "not designed to handle", "operational design domain",
        "unforeseen situation", "feature gap", "no behavior for",
    ),
    FaultTag.SOFTWARE: (
        "software module froze", "software crash", "software bug",
        "software hang", "terminated unexpectedly",
        "unhandled exception", "stack trace",
    ),
    FaultTag.AV_CONTROLLER_UNRESPONSIVE: (
        "did not respond to commands", "command timeout",
        "not executed by the controller", "stopped acknowledging",
    ),
    FaultTag.AV_CONTROLLER_DECISION: (
        "wrong deceleration decision", "incorrect throttle",
        "wrong control decision", "incorrect gap",
    ),
    FaultTag.HANG_CRASH: (
        "watchdog",
    ),
    FaultTag.INCORRECT_BEHAVIOR_PREDICTION: (
        "behavior prediction", "incorrect prediction",
        "predicted cut-in", "prediction missed",
    ),
}


@dataclass(frozen=True)
class DictionaryEntry:
    """One phrase known to indicate one fault tag."""

    phrase: tuple[str, ...]
    tag: FaultTag
    weight: float
    source: str  # "seed" or "learned"


#: One inverted-index slot: the phrase as a list (so a candidate test
#: is a plain list-slice comparison, no per-probe tuple allocation),
#: its length, and the entry it belongs to.
_Candidate = tuple[list[str], int, DictionaryEntry]


@dataclass
class FailureDictionary:
    """Phrase -> tag dictionary with match weights.

    Matching runs through an inverted index built once per dictionary
    (first phrase token -> candidate entries), so :meth:`match` costs
    O(tokens) plus the handful of candidates that share a first token,
    instead of an O(tokens x entries) scan of every entry.
    """

    entries: list[DictionaryEntry] = field(default_factory=list)
    #: Inverted index: first phrase token -> candidates.
    _index: dict[str, list[_Candidate]] = field(
        default_factory=dict, repr=False, compare=False)
    #: O(1) ``add`` dedupe on (phrase, tag).
    _seen: set[tuple[tuple[str, ...], FaultTag]] = field(
        default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._reindex()

    def _reindex(self) -> None:
        self._index = {}
        self._seen = {(e.phrase, e.tag) for e in self.entries}
        for entry in self.entries:
            self._index.setdefault(entry.phrase[0], []).append(
                (list(entry.phrase), len(entry.phrase), entry))

    def add(self, entry: DictionaryEntry) -> None:
        """Add one entry (idempotent on (phrase, tag))."""
        key = (entry.phrase, entry.tag)
        if key in self._seen:
            return
        self._seen.add(key)
        self.entries.append(entry)
        self._index.setdefault(entry.phrase[0], []).append(
            (list(entry.phrase), len(entry.phrase), entry))

    def __len__(self) -> int:
        return len(self.entries)

    def match(self, tokens: list[str]) -> list[DictionaryEntry]:
        """All entries whose phrase occurs in ``tokens``.

        One list element per occurrence, ordered by occurrence
        position then entry insertion order — identical to a full
        scan of every entry at every position (the voting weights
        depend on it).
        """
        matches: list[DictionaryEntry] = []
        index = self._index
        for position, token in enumerate(tokens):
            candidates = index.get(token)
            if candidates is None:
                continue
            for phrase, n, entry in candidates:
                if n == 1 or tokens[position:position + n] == phrase:
                    matches.append(entry)
        return matches

    def match_batch(self, token_lists: list[list[str]],
                    ) -> list[list[DictionaryEntry]]:
        """``[self.match(tokens) for tokens in token_lists]`` in bulk.

        Token lists that are the *same object* — which is what the
        shared token cache hands every consumer of a duplicate
        narrative — are matched once and share one result list, so
        the returned lists must be treated as read-only.
        """
        out: list[list[DictionaryEntry]] = []
        memo: dict[int, list[DictionaryEntry]] = {}
        match = self.match
        for tokens in token_lists:
            key = id(tokens)
            found = memo.get(key)
            if found is None:
                found = memo[key] = match(tokens)
            out.append(found)
        return out

    def match_at(self, tokens: list[str],
                 position: int) -> list[DictionaryEntry]:
        """Entries whose phrase starts exactly at ``position``."""
        candidates = self._index.get(tokens[position])
        if candidates is None:
            return []
        return [entry for phrase, n, entry in candidates
                if n == 1 or tokens[position:position + n] == phrase]

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the dictionary to JSON."""
        import json

        return json.dumps([
            {"phrase": list(entry.phrase), "tag": entry.tag.value,
             "weight": entry.weight, "source": entry.source}
            for entry in self.entries])

    @classmethod
    def from_json(cls, text: str) -> "FailureDictionary":
        """Inverse of :meth:`to_json`."""
        import json

        dictionary = cls()
        for item in json.loads(text):
            dictionary.add(DictionaryEntry(
                phrase=tuple(item["phrase"]),
                tag=FaultTag(item["tag"]),
                weight=float(item["weight"]),
                source=item["source"]))
        return dictionary

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_phrase(phrase: str) -> tuple[str, ...]:
        return tuple(normalize_tokens(tokenize(phrase)))

    @classmethod
    def from_seeds(cls, seeds: dict[FaultTag, tuple[str, ...]] | None = None,
                   ) -> "FailureDictionary":
        """Dictionary containing only the hand-curated seed phrases."""
        seeds = seeds if seeds is not None else SEED_PHRASES
        dictionary = cls()
        for tag, phrases in seeds.items():
            for phrase in phrases:
                normalized = cls._normalize_phrase(phrase)
                if not normalized:
                    continue
                dictionary.add(DictionaryEntry(
                    phrase=normalized, tag=tag,
                    weight=float(len(normalized) * 2.0), source="seed"))
        return dictionary

    @classmethod
    def build(cls, texts: list[str],
              seeds: dict[FaultTag, tuple[str, ...]] | None = None,
              max_n: int = 3, min_count: int = 5, purity: float = 0.8,
              boilerplate_df: float = 0.2) -> "FailureDictionary":
        """Two-pass construction: seed tagging, then phrase expansion.

        ``boilerplate_df`` drops phrases occurring in more than that
        fraction of all narratives (shared boilerplate like "took
        immediate manual control" carries no causal signal).

        Both passes run once per *distinct* narrative, weighted by its
        multiplicity, so every count equals a per-narrative loop's.
        Narratives are visited in first-occurrence order and each
        one's n-grams in first-occurrence order too, so the learned
        entries come out in one canonical order in every process
        (``set`` iteration order would depend on ``PYTHONHASHSEED``).
        """
        dictionary = cls.from_seeds(seeds)
        multiplicity = Counter(texts)  # in first-occurrence order
        total = max(len(texts), 1)

        # Pass 1 tags each distinct narrative with the seed dictionary
        # alone; pass 2 adds its multiplicity to the document frequency
        # of each of its n-grams and to their counts for that tag.
        # Tags are counted by value: hashing a FaultTag member runs
        # Python code on every lookup.
        phrase_tag_counts: dict[tuple[str, ...], dict[str, int]] = {}
        phrase_df: dict[tuple[str, ...], int] = {}
        distinct = list(multiplicity)
        for text, tokens in zip(distinct, cached_tokens_batch(distinct)):
            count = multiplicity[text]
            tag = _seed_vote(dictionary.match(tokens))
            value = None if tag is None else tag.value
            for phrase in distinct_ngrams(tokens, max_n):
                phrase_df[phrase] = phrase_df.get(phrase, 0) + count
                if value is not None:
                    tag_counts = phrase_tag_counts.setdefault(phrase, {})
                    tag_counts[value] = tag_counts.get(value, 0) + count

        for phrase, tag_counts in phrase_tag_counts.items():
            df = phrase_df[phrase]
            count = sum(tag_counts.values())
            if count < min_count or df / total > boilerplate_df:
                continue
            # ``max`` keeps the first of equal counts, as
            # ``Counter.most_common(1)`` does.
            value, tag_count = max(tag_counts.items(), key=itemgetter(1))
            if tag_count / count < purity:
                continue
            idf = math.log(total / df)
            dictionary.add(DictionaryEntry(
                phrase=phrase, tag=FaultTag(value),
                weight=float(len(phrase)) * idf / 3.0,
                source="learned"))
        return dictionary


def _seed_vote(matches: list[DictionaryEntry]) -> FaultTag | None:
    """Pass-1 tag of one narrative: the top-voted tag, None on a tie."""
    if not matches:
        return None
    votes: Counter = Counter()
    for entry in matches:
        votes[entry.tag] += entry.weight
    best, second = _top_two(votes)
    return best if best != second else None


def _top_two(votes: Counter) -> tuple[FaultTag, FaultTag | None]:
    """Best and runner-up tags by weight (runner-up None if absent).

    Returns ``(best, best)`` on an exact tie so callers can detect it.
    """
    ranked = votes.most_common()
    best_tag, best_weight = ranked[0]
    if len(ranked) > 1 and ranked[1][1] == best_weight:
        return best_tag, best_tag  # signal: tie
    return best_tag, ranked[1][0] if len(ranked) > 1 else None
