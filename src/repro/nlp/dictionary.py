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
from collections.abc import Sequence
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


#: One phrase-trie node: the entries whose phrase is the node's token
#: path or a prefix of it (so every one of them matches wherever the
#: path occurs), in insertion order, and the child node per next token.
_Node = tuple[list[DictionaryEntry], dict[str, "_Node"]]


#: Learned phrases are n-grams of at most this many tokens.
MAX_N = 3
#: A phrase is learned once this many seed-tagged narratives carry it.
MIN_COUNT = 5
#: ... and at least this fraction of them carry its top tag.
PURITY = 0.8
#: Phrases in more than this fraction of all narratives are shared
#: boilerplate (like "took immediate manual control"): no causal
#: signal.
BOILERPLATE_DF = 0.2


@dataclass
class FailureDictionary:
    """Phrase -> tag dictionary with match weights.

    Matching runs through a phrase trie built once per dictionary.
    From each position :meth:`match` follows the narrative's tokens down
    to the deepest node they reach and takes that node's entry list
    whole: one dict lookup per token that starts no phrase, one per
    token walked, and no candidate that fails to match.
    """

    entries: list[DictionaryEntry] = field(default_factory=list)
    #: The phrase trie's top level: first phrase token -> node.
    _trie: dict[str, _Node] = field(
        default_factory=dict, repr=False, compare=False)
    #: O(1) ``add`` dedupe on (phrase, tag).
    _seen: set[tuple[tuple[str, ...], FaultTag]] = field(
        default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._trie = {}
        self._seen = set()
        for entry in self.entries:
            self._insert(entry)
            self._seen.add((entry.phrase, entry.tag))

    def _insert(self, entry: DictionaryEntry) -> None:
        """File ``entry`` under its phrase's node and every node below."""
        if not entry.phrase:
            raise ValueError("a dictionary phrase needs at least one token")
        found: list[DictionaryEntry] = []
        children = self._trie
        for token in entry.phrase:
            node = children.get(token)
            if node is None:
                # A new node starts with its parent's entries: their
                # phrases are prefixes of its path too.
                node = children[token] = (list(found), {})
            found, children = node
        below = [node]
        while below:
            found, children = below.pop()
            found.append(entry)
            below.extend(children.values())

    def add(self, entry: DictionaryEntry) -> None:
        """Add one entry (idempotent on (phrase, tag))."""
        key = (entry.phrase, entry.tag)
        if key in self._seen:
            return
        self._insert(entry)
        self._seen.add(key)
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def match(self, tokens: Sequence[str]) -> list[DictionaryEntry]:
        """All entries whose phrase occurs in ``tokens`` (a list or tuple).

        One list element per occurrence, ordered by occurrence
        position then entry insertion order — identical to a full
        scan of every entry at every position (the voting weights
        depend on it).  Each position's entries are the list of the
        deepest trie node its tokens reach.
        """
        matches: list[DictionaryEntry] = []
        trie = self._trie
        end = len(tokens)
        for position, token in enumerate(tokens):
            node = trie.get(token)
            if node is None:
                continue
            # The trie walk is inlined: a call per position would cost
            # a sixth of the loop.
            found, children = node
            following = position + 1
            while children and following < end:
                node = children.get(tokens[following])
                if node is None:
                    break
                found, children = node
                following += 1
            matches.extend(found)
        return matches

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
    def from_seeds(cls) -> "FailureDictionary":
        """Dictionary containing only the hand-curated seed phrases."""
        dictionary = cls()
        for tag, phrases in SEED_PHRASES.items():
            for phrase in phrases:
                normalized = cls._normalize_phrase(phrase)
                if not normalized:
                    continue
                dictionary.add(DictionaryEntry(
                    phrase=normalized, tag=tag,
                    weight=float(len(normalized) * 2.0), source="seed"))
        return dictionary

    @classmethod
    def build(cls, texts: list[str]) -> "FailureDictionary":
        """Two-pass construction: seed tagging, then phrase expansion
        (:data:`MAX_N`, :data:`MIN_COUNT`, :data:`PURITY` and
        :data:`BOILERPLATE_DF` set which phrases are learned).

        Both passes run once per distinct normalized token sequence,
        weighted by the narratives that have it, so every count equals
        a per-narrative loop's.  Sequences are visited in
        first-occurrence order and each one's n-grams in
        first-occurrence order too, so the learned entries come out in
        one canonical order in every process (``set`` iteration order
        would depend on ``PYTHONHASHSEED``).
        """
        dictionary = cls.from_seeds()
        total = max(len(texts), 1)

        # Narratives that differ only in case, punctuation, stopwords
        # or suffixes share one sequence.  The token cache sees each
        # distinct narrative once.
        multiplicity = Counter(texts)  # in first-occurrence order
        distinct = list(multiplicity)
        weights: dict[tuple[str, ...], int] = {}
        for text, tokens in zip(distinct, cached_tokens_batch(distinct)):
            key = tuple(tokens)
            weights[key] = weights.get(key, 0) + multiplicity[text]

        # Pass 1 tags each sequence with the seed dictionary alone;
        # pass 2 adds its weight to the document frequency of each of
        # its n-grams and to their counts for that tag.
        phrase_tag_counts: dict[tuple[str, ...], dict[FaultTag, int]] = {}
        phrase_df: dict[tuple[str, ...], int] = {}
        for tokens, count in weights.items():
            tag = _seed_vote(dictionary.match(tokens))
            for phrase in distinct_ngrams(tokens, MAX_N):
                phrase_df[phrase] = phrase_df.get(phrase, 0) + count
                if tag is not None:
                    tag_counts = phrase_tag_counts.setdefault(phrase, {})
                    tag_counts[tag] = tag_counts.get(tag, 0) + count

        for phrase, tag_counts in phrase_tag_counts.items():
            df = phrase_df[phrase]
            count = sum(tag_counts.values())
            if count < MIN_COUNT or df / total > BOILERPLATE_DF:
                continue
            # ``max`` keeps the first of equal counts, as
            # ``Counter.most_common(1)`` does.
            tag, tag_count = max(tag_counts.items(), key=itemgetter(1))
            if tag_count / count < PURITY:
                continue
            idf = math.log(total / df)
            dictionary.add(DictionaryEntry(
                phrase=phrase, tag=tag,
                weight=float(len(phrase)) * idf / 3.0,
                source="learned"))
        return dictionary


def vote(matches: list[DictionaryEntry],
         ) -> tuple[dict[FaultTag, float], list[FaultTag]]:
    """The keyword vote over one narrative's matches.

    Returns the summed match weight per tag and the tags that share
    the top weight, both in first-match order (both empty without
    matches).
    """
    votes: dict[FaultTag, float] = {}
    for entry in matches:
        tag = entry.tag
        votes[tag] = votes.get(tag, 0.0) + entry.weight
    if not votes:
        return votes, []
    best = max(votes.values())
    return votes, [tag for tag, weight in votes.items() if weight == best]


def _seed_vote(matches: list[DictionaryEntry]) -> FaultTag | None:
    """Pass-1 tag of one narrative: the top-voted tag, None on a tie."""
    top = vote(matches)[1]
    return top[0] if len(top) == 1 else None
