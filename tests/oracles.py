"""Reference implementations the optimized code is checked against.

Each function here is the straightforward form of something ``src/``
now does faster; tests compare the two on real corpora and on drawn
inputs.  None of them is used outside ``tests/``.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from datetime import date, datetime
from pathlib import Path
from typing import Any

import numpy as np

from repro import units
from repro.analysis.stats import BoxplotStats
from repro.analysis.temporal import TrendTest
from repro.errors import FieldCoercionError, InsufficientDataError
from repro.nlp.dictionary import DictionaryEntry, FailureDictionary
from repro.nlp.evaluation import TaggingReport
from repro.nlp.ngrams import all_ngrams
from repro.nlp.tagger import TagResult, _break_tie
from repro.nlp.textcache import cached_tokens
from repro.ocr import correction
from repro.ocr.correction import OcrCorrector
from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from repro.pipeline.checkpoint import canonical_bytes
from repro.pipeline.store import FailureDatabase
from repro.synth.reports import RawDocument
from repro.taxonomy import FailureCategory, FaultTag, Modality, category_of


def match_linear(dictionary: FailureDictionary,
                 tokens: list[str]) -> list[DictionaryEntry]:
    """Full-scan matcher: every entry tried at every position, in
    insertion order.

    The pre-index form of :meth:`FailureDictionary.match`; its output
    must equal ``match``'s element for element.
    """
    return [entry for position in range(len(tokens))
            for entry in dictionary.entries
            if tuple(tokens[position:position + len(entry.phrase)])
            == entry.phrase]


def _top_two(votes: Counter) -> tuple[FaultTag, FaultTag | None]:
    """Best and runner-up tags by weight (runner-up None if absent).

    Returns ``(best, best)`` on an exact tie so callers can detect it.
    """
    ranked = votes.most_common()
    best_tag, best_weight = ranked[0]
    if len(ranked) > 1 and ranked[1][1] == best_weight:
        return best_tag, best_tag  # signal: tie
    return best_tag, ranked[1][0] if len(ranked) > 1 else None


def pass1_tag(seeds: FailureDictionary,
              tokens: list[str]) -> FaultTag | None:
    """The seed dictionary's vote on one narrative (None: none or tied)."""
    votes: Counter = Counter()
    for entry in seeds.match(tokens):
        votes[entry.tag] += entry.weight
    if not votes:
        return None
    best, second = _top_two(votes)
    return best if best != second else None


def vote_reference(matches: list[DictionaryEntry]) -> TagResult:
    """``VotingTagger``'s vote as a ``Counter`` ranked by
    ``most_common``, ties broken among the tags sharing the top
    weight."""
    if not matches:
        return TagResult(tag=FaultTag.UNKNOWN,
                         category=category_of(FaultTag.UNKNOWN),
                         confident=False)
    votes: Counter = Counter()
    for entry in matches:
        votes[entry.tag] += entry.weight
    ranked = votes.most_common()
    best_tag, best_weight = ranked[0]
    confident = True
    if len(ranked) > 1 and ranked[1][1] == best_weight:
        tied = [tag for tag, weight in ranked if weight == best_weight]
        best_tag = _break_tie(tied, matches)
        confident = False
    return TagResult(tag=best_tag, category=category_of(best_tag),
                     scores=dict(votes), matches=matches,
                     confident=confident)


def evaluate_per_record(records: list[DisengagementRecord]) -> TaggingReport:
    """``evaluate_tagger(None, records)`` as one loop over the records,
    each one counted into every tally."""
    report = TaggingReport()
    for record in records:
        truth, tag = record.truth_tag, record.tag
        if truth is None:
            continue
        report.total += 1
        report.per_tag_truth[truth] += 1
        report.per_tag_predicted[tag] += 1
        report.confusion[(truth, tag)] += 1
        if tag == truth:
            report.correct_tag += 1
            report.per_tag_hits[truth] += 1
        if category_of(tag) is category_of(truth):
            report.correct_category += 1
    return report


def build_per_narrative(texts: list[str], max_n: int = 3,
                        min_count: int = 5, purity: float = 0.8,
                        boilerplate_df: float = 0.2) -> FailureDictionary:
    """:meth:`FailureDictionary.build` as one loop per narrative.

    Both passes visit every narrative, duplicates included, and each
    narrative's n-grams in ``set`` order — so the learned entries come
    out in an order that depends on ``PYTHONHASHSEED``, while their
    set, weights and tags do not.
    """
    dictionary = FailureDictionary.from_seeds()
    token_lists = [cached_tokens(t) for t in texts]
    total = max(len(token_lists), 1)

    pass1_tags = [pass1_tag(dictionary, tokens) for tokens in token_lists]

    phrase_tag_counts: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    phrase_df: Counter = Counter()
    for tokens, tag in zip(token_lists, pass1_tags):
        for phrase in set(all_ngrams(tokens, max_n)):
            phrase_df[phrase] += 1
            if tag is not None:
                phrase_tag_counts[phrase][tag] += 1

    for phrase, tag_counts in phrase_tag_counts.items():
        df = phrase_df[phrase]
        count = sum(tag_counts.values())
        if count < min_count or df / total > boilerplate_df:
            continue
        tag, tag_count = tag_counts.most_common(1)[0]
        if tag_count / count < purity:
            continue
        dictionary.add(DictionaryEntry(
            phrase=phrase, tag=tag,
            weight=float(len(phrase)) * math.log(total / df) / 3.0,
            source="learned"))
    return dictionary


def correct_line_reference(corrector: OcrCorrector, line: str) -> str:
    """``OcrCorrector.correct_line`` as three regex passes over the
    whole line, calling the unmemoized repairs."""
    line = correction._NUMERIC_SPAN_RE.sub(
        lambda m: m.group().translate(correction._DIGIT_FIX), line)
    line = correction._DIGIT_IN_WORD_RE.sub(
        lambda m: corrector.repair_digit_word(m.group()), line)
    return correction._WORD_RE.sub(
        lambda m: corrector.repair_word(m.group()), line)


def parse_date_reference(text: str) -> date:
    """``units.parse_date`` without its memo or its shape filter: every
    format tried with ``strptime`` in turn."""
    cleaned = text.strip()
    for fmt in units._DATE_FORMATS:
        try:
            return datetime.strptime(cleaned, fmt).date()
        except ValueError:
            continue
    raise FieldCoercionError(f"unrecognized date {text!r}", line=text)


def parse_time_of_day_reference(text: str) -> tuple[int, int, int]:
    """``units.parse_time_of_day`` without its memo or its shape
    filter."""
    cleaned = " ".join(text.strip().upper().split())
    for fmt in units._TIME_FORMATS:
        try:
            parsed = datetime.strptime(cleaned, fmt)
        except ValueError:
            continue
        return parsed.hour, parsed.minute, parsed.second
    raise FieldCoercionError(f"unrecognized time {text!r}", line=text)


def split_csv_reference(line: str) -> list[str]:
    """``repro.parsing.fields.split_csv`` one character at a time: a
    quote toggles quoting and is dropped, and an unquoted comma ends a
    field."""
    fields: list[str] = []
    current: list[str] = []
    in_quotes = False
    for char in line:
        if char == '"':
            in_quotes = not in_quotes
        elif char == "," and not in_quotes:
            fields.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    fields.append("".join(current).strip())
    return fields


def plain_reference(value: Any) -> Any:
    """The digest payload scrub: numpy scalars to the numbers they
    equal, tuples to lists, everything else as it is."""
    if isinstance(value, dict):
        return {key: plain_reference(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_reference(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return value.item()
    return value


def document_digest_reference(document: RawDocument) -> str:
    """A document's content digest as ``to_dict()`` records, scrubbed
    by :func:`plain_reference`, in canonical JSON."""
    payload = {
        "kind": document.kind,
        "manufacturer": document.manufacturer,
        "lines": document.lines,
        "truth_disengagements": [
            r.to_dict() for r in document.truth_disengagements],
        "truth_mileage": [m.to_dict() for m in document.truth_mileage],
        "truth_accidents": [
            r.to_dict() for r in document.truth_accidents],
    }
    return hashlib.sha256(
        canonical_bytes(plain_reference(payload))).hexdigest()


def read_journal_reference(
        path: str | Path) -> tuple[dict[str, dict[str, Any]], int]:
    """A journal's entries and corrupt-line count, read whole.

    Returns ``(entries, corrupt)``: a unit-id -> body mapping (a
    re-journaled unit's latest line wins) and the number of lines
    dropped for failing integrity.  Lines split as a text-mode file
    splits them; each is parsed with the stdlib ``json`` and its
    sha256 checked against the canonical re-encode of its unit id and
    body, laid out as the writer lays them out.  A line that is not
    UTF-8 counts as corrupt.
    """
    path = Path(path)
    entries: dict[str, dict[str, Any]] = {}
    corrupt = 0
    if not path.exists():
        return entries, corrupt
    for raw in path.read_bytes().splitlines():
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            corrupt += 1
            continue
        if not line:
            continue
        try:
            record = json.loads(line)
            unit = record["unit"]
            body = record["body"]
            ok = (isinstance(unit, str) and isinstance(body, dict)
                  and record["sha256"] == hashlib.sha256(
                      b'{"unit":' + canonical_bytes(unit)
                      + b',"body":' + canonical_bytes(body)).hexdigest())
        except (json.JSONDecodeError, KeyError, TypeError):
            ok = False
        if not ok:
            corrupt += 1
            continue
        entries[unit] = body
    return entries, corrupt


def database_payload(db: FailureDatabase) -> dict[str, Any]:
    """The database as one dict of ``to_dict()`` records.

    Its canonical JSON is what ``FailureDatabase.to_json`` returns,
    ``save`` writes and ``fingerprint`` hashes.
    """
    payload = {
        "disengagements": [r.to_dict() for r in db.disengagements],
        "accidents": [r.to_dict() for r in db.accidents],
        "mileage": [m.to_dict() for m in db.mileage],
    }
    if db.quarantine:
        payload["quarantine"] = [e.to_dict() for e in db.quarantine]
    return payload


def record_loop_fingerprint(db: FailureDatabase) -> str:
    """``FailureDatabase.fingerprint`` as one hash update per record.

    Each record goes ``to_dict`` -> ``canonical_bytes`` -> ``update``,
    between the same section openers the chunked encoder writes.
    """
    sections = [(b'{"accidents":[', db.accidents),
                (b'],"disengagements":[', db.disengagements),
                (b'],"mileage":[', db.mileage)]
    if db.quarantine:
        sections.append((b'],"quarantine":[', db.quarantine))
    digest = hashlib.sha256()
    for opener, records in sections:
        digest.update(opener)
        separator = b""
        for record in records:
            digest.update(separator)
            digest.update(canonical_bytes(record.to_dict()))
            separator = b","
    digest.update(b"]}")
    return digest.hexdigest()


#: ``(field, value -> member map, enum)`` for each enum-valued field of
#: a disengagement record.
_ENUM_FIELDS = tuple(
    (key, {member.value: member for member in enum_cls}, enum_cls)
    for key, enum_cls in (("modality", Modality), ("tag", FaultTag),
                          ("category", FailureCategory),
                          ("truth_tag", FaultTag)))


def disengagement_from_dict_reference(
        data: dict[str, Any]) -> DisengagementRecord:
    """``DisengagementRecord.from_dict`` from keyword arguments: each
    truthy date, time and enum field converted, then ``cls(**kwargs)``.
    """
    kwargs = dict(data)
    if kwargs.get("event_date"):
        kwargs["event_date"] = date.fromisoformat(kwargs["event_date"])
    if kwargs.get("time_of_day"):
        kwargs["time_of_day"] = tuple(kwargs["time_of_day"])
    for key, members, enum_cls in _ENUM_FIELDS:
        value = kwargs.get(key)
        if value:
            # An unknown value falls through to ``Enum(value)`` for
            # the usual ValueError.
            kwargs[key] = members.get(value) or enum_cls(value)
    return DisengagementRecord(**kwargs)


def accident_from_dict_reference(data: dict[str, Any]) -> AccidentRecord:
    """``AccidentRecord.from_dict`` from keyword arguments."""
    kwargs = dict(data)
    if kwargs.get("event_date"):
        kwargs["event_date"] = date.fromisoformat(kwargs["event_date"])
    return AccidentRecord(**kwargs)


def mileage_from_dict_reference(data: dict[str, Any]) -> MonthlyMileage:
    """``MonthlyMileage.from_dict`` from keyword arguments."""
    return MonthlyMileage(**data)


def boxplot_reference(values: Any) -> BoxplotStats:
    """``boxplot_stats`` through numpy: ``np.percentile``'s linear
    quartiles and ``ndarray.mean``, each clamped to [min, max]."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InsufficientDataError("no values to summarize")
    minimum = float(array.min())
    maximum = float(array.max())
    q1, median, q3 = (
        float(min(max(q, minimum), maximum))
        for q in np.percentile(array, [25, 50, 75]))
    return BoxplotStats(
        n=int(array.size),
        minimum=minimum,
        q1=q1,
        median=median,
        q3=q3,
        maximum=maximum,
        mean=float(min(max(array.mean(), minimum), maximum)),
    )


def median_reference(values: Any) -> float:
    """``stats.median`` as ``np.median``."""
    return float(np.median(np.asarray(values, dtype=float)))


def mean_reference(values: Any) -> float:
    """``stats.mean`` as ``np.mean``."""
    return float(np.mean(np.asarray(values, dtype=float)))


def mann_kendall_reference(values: Any) -> TrendTest:
    """``temporal.mann_kendall`` through numpy: one ``np.sign`` sum
    per observation and ``np.unique`` counts for the tie term."""
    array = np.asarray(values, dtype=float)
    n = array.size
    if n < 4:
        raise InsufficientDataError(
            f"need at least 4 observations, got {n}")
    s = 0
    for i in range(n - 1):
        s += int(np.sum(np.sign(array[i + 1:] - array[i])))
    _, counts = np.unique(array, return_counts=True)
    tie_term = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    variance = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if variance <= 0:
        return TrendTest(s_statistic=s, z_score=0.0, p_value=1.0, n=n)
    if s > 0:
        z = (s - 1) / math.sqrt(variance)
    elif s < 0:
        z = (s + 1) / math.sqrt(variance)
    else:
        z = 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return TrendTest(s_statistic=s, z_score=z, p_value=p, n=n)
