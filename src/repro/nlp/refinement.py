"""Dictionary refinement from low-confidence records.

The paper's authors manually verified the failure dictionary over
several passes.  This module mechanizes one pass: find the records the
tagger is least confident about, obtain labels for them (from an
oracle — ground truth in our corpus, a human in a real deployment),
and distill new discriminative phrases from the labeled examples into
the dictionary.  Repeating until the label budget is spent converges
the dictionary the way the authors' manual passes did.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

from ..parsing.records import DisengagementRecord
from ..taxonomy import FaultTag
from .dictionary import DictionaryEntry, FailureDictionary
from .ngrams import distinct_ngrams
from .normalize import normalize_tokens
from .tagger import VotingTagger
from .tokenize import tokenize

#: An oracle maps a record to its true tag (or None to decline).
LabelOracle = Callable[[DisengagementRecord], FaultTag | None]


def truth_oracle(record: DisengagementRecord) -> FaultTag | None:
    """Oracle backed by the synthetic corpus ground truth."""
    return record.truth_tag


@dataclass
class RefinementRound:
    """Bookkeeping for one refinement pass."""

    labeled: int = 0
    phrases_added: int = 0
    accuracy_before: float = 0.0
    accuracy_after: float = 0.0

    @property
    def improved(self) -> bool:
        """Whether the pass improved accuracy."""
        return self.accuracy_after > self.accuracy_before


@dataclass
class RefinementResult:
    """Outcome of a full refinement run."""

    dictionary: FailureDictionary
    rounds: list[RefinementRound] = field(default_factory=list)

    @property
    def total_labeled(self) -> int:
        """Labels consumed across all rounds."""
        return sum(r.labeled for r in self.rounds)


def _uncertain_records(tagger: VotingTagger,
                       records: list[DisengagementRecord],
                       budget: int) -> list[DisengagementRecord]:
    """The ``budget`` records the tagger is least confident about."""
    scored = []
    for record in records:
        result = tagger.tag(record.description)
        if not result.confident:
            margin = 0.0
        else:
            ranked = sorted(result.scores.values(), reverse=True)
            margin = (ranked[0] - ranked[1]
                      if len(ranked) > 1 else ranked[0])
        scored.append((margin, record))
    scored.sort(key=lambda item: item[0])
    return [record for _, record in scored[:budget]]


def _distill_phrases(labeled: list[tuple[DisengagementRecord, FaultTag]],
                     dictionary: FailureDictionary,
                     min_count: int = 2,
                     purity: float = 0.9) -> list[DictionaryEntry]:
    """Extract discriminative phrases from labeled examples."""
    phrase_tags: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    for record, tag in labeled:
        tokens = normalize_tokens(tokenize(record.description))
        for phrase in distinct_ngrams(tokens):
            phrase_tags[phrase][tag] += 1
    known = {entry.phrase for entry in dictionary.entries}
    entries = []
    total = max(len(labeled), 1)
    for phrase, tags in phrase_tags.items():
        if phrase in known:
            continue
        count = sum(tags.values())
        if count < min_count:
            continue
        tag, tag_count = tags.most_common(1)[0]
        if tag is FaultTag.UNKNOWN or tag_count / count < purity:
            continue
        weight = float(len(phrase)) * math.log(1 + total / count)
        entries.append(DictionaryEntry(
            phrase=phrase, tag=tag, weight=weight, source="refined"))
    return entries


def refine_dictionary(dictionary: FailureDictionary,
                      records: list[DisengagementRecord],
                      oracle: LabelOracle = truth_oracle,
                      rounds: int = 3,
                      budget_per_round: int = 50,
                      ) -> RefinementResult:
    """Run ``rounds`` of uncertainty-driven dictionary refinement.

    Accuracy before/after is measured over the records the oracle can
    label (in a real deployment: a held-out manually-labeled set).
    """
    from .evaluation import evaluate_tagger

    result = RefinementResult(dictionary=dictionary)
    labelable = [r for r in records if oracle(r) is not None]
    for _ in range(rounds):
        tagger = VotingTagger(dictionary)
        round_stats = RefinementRound(
            accuracy_before=evaluate_tagger(
                tagger, labelable).tag_accuracy)
        uncertain = _uncertain_records(
            tagger, labelable, budget_per_round)
        labeled = []
        for record in uncertain:
            tag = oracle(record)
            if tag is not None:
                labeled.append((record, tag))
        round_stats.labeled = len(labeled)
        for entry in _distill_phrases(labeled, dictionary):
            dictionary.add(entry)
            round_stats.phrases_added += 1
        round_stats.accuracy_after = evaluate_tagger(
            VotingTagger(dictionary), labelable).tag_accuracy
        result.rounds.append(round_stats)
        if round_stats.phrases_added == 0:
            break
    return result
