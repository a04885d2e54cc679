"""Evaluation of the tagger against ground-truth labels.

The paper's authors validated their dictionary manually; with the
synthetic corpus we can score the tagger mechanically against the
generator's ground-truth tags, at both tag and category granularity.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from ..parsing.records import DisengagementRecord
from ..taxonomy import category_of


@dataclass
class TaggingReport:
    """Accuracy summary of a tagging run."""

    total: int = 0
    correct_tag: int = 0
    correct_category: int = 0
    #: (truth, predicted) -> count.
    confusion: Counter = field(default_factory=Counter)
    per_tag_truth: Counter = field(default_factory=Counter)
    per_tag_hits: Counter = field(default_factory=Counter)
    per_tag_predicted: Counter = field(default_factory=Counter)

    @property
    def tag_accuracy(self) -> float:
        """Fraction of records whose fine tag was recovered."""
        return self.correct_tag / self.total if self.total else 0.0

    @property
    def category_accuracy(self) -> float:
        """Fraction of records whose coarse category was recovered."""
        return self.correct_category / self.total if self.total else 0.0

    def top_confusions(self, k: int = 5) -> list[tuple[tuple, int]]:
        """The ``k`` most frequent (truth, predicted) mistakes."""
        mistakes = Counter({pair: count
                            for pair, count in self.confusion.items()
                            if pair[0] != pair[1]})
        return mistakes.most_common(k)


def evaluate_tagger(tagger, records: list[DisengagementRecord],
                    ) -> TaggingReport:
    """Score tags against records carrying ground-truth tags.

    With ``tagger=None`` the tags already stored on the records
    (``record.tag``, what Stage III wrote) are scored, so a pipeline
    run reports exactly what its database holds, fallbacks included.
    Otherwise ``tagger`` is anything with a ``tag(text) -> TagResult``
    method and the records' narratives are tagged afresh; a
    batch-native ``tag_batch`` (see :class:`~repro.nlp.tagger.
    VotingTagger`) is used when present.  Records without ground truth
    are skipped.
    """
    report = TaggingReport()
    scored = [r for r in records if r.truth_tag is not None]
    if tagger is None:
        predicted = [r.tag for r in scored]
    else:
        tag_batch = getattr(tagger, "tag_batch", None)
        if tag_batch is not None:
            results = tag_batch([r.description for r in scored])
        else:
            results = [tagger.tag(r.description) for r in scored]
        predicted = [result.tag for result in results]
    # Count each (truth, predicted) pair, then read every other tally
    # off the few distinct pairs.  Pairs keep first-occurrence order,
    # so each Counter lists its tags in the order a loop over the
    # records would first meet them.
    report.confusion.update(zip([r.truth_tag for r in scored], predicted))
    for (truth, tag), count in report.confusion.items():
        report.total += count
        report.per_tag_truth[truth] += count
        report.per_tag_predicted[tag] += count
        if tag == truth:
            report.correct_tag += count
            report.per_tag_hits[truth] += count
        if category_of(tag) is category_of(truth):
            report.correct_category += count
    return report


def per_manufacturer_accuracy(tagger,
                              records: list[DisengagementRecord],
                              ) -> dict[str, float]:
    """Tag accuracy split by manufacturer."""
    grouped: dict[str, list[DisengagementRecord]] = defaultdict(list)
    for record in records:
        grouped[record.manufacturer].append(record)
    return {name: evaluate_tagger(tagger, group).tag_accuracy
            for name, group in sorted(grouped.items())}
