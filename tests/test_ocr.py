"""Tests for the OCR substrate: confusion channel, scanner, engine,
correction, and manual fallback."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OcrError
from repro.ocr.confusion import PROTECTED_CHARACTERS, ConfusionModel
from repro.ocr.correction import OcrCorrector
from repro.ocr.document import (
    LINES_PER_PAGE,
    ScannedPage,
    page_count,
    paginate,
)
from repro.ocr.engine import OcrEngine
from repro.ocr.fallback import ManualTranscriptionQueue, apply_fallback
from repro.ocr.scanner import BAD_HIGH, BAD_PAGE_RATE, Scanner


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def reference_corrupt_line(model: ConfusionModel, line: str, quality: float,
                           rng: np.random.Generator) -> tuple[str, int]:
    """The channel one character and one draw at a time: the
    specification ``ConfusionModel.corrupt_line`` must reproduce,
    generator state included."""
    by_source: dict[str, list[tuple[str, float]]] = {}
    for source, replacement, weight in model.confusions:
        by_source.setdefault(source, []).append((replacement, weight))

    def pick(source: str) -> str:
        options = by_source[source]
        if len(options) == 1:
            return options[0][0]
        weights = np.array([w for _, w in options])
        weights = weights / weights.sum()
        return options[int(rng.choice(len(options), p=weights))][0]

    severity = max(0.0, 1.0 - quality)
    sub_p = model.base_rate * severity
    drop_p = model.drop_rate * severity
    if severity <= 0.0:
        return line, 0
    out: list[str] = []
    corruptions = 0
    i = 0
    while i < len(line):
        # Digraph confusions get first shot.
        digraph = line[i:i + 2]
        if (len(digraph) == 2 and digraph in by_source
                and rng.random() < sub_p):
            out.append(pick(digraph))
            corruptions += 1
            i += 2
            continue
        char = line[i]
        if char in PROTECTED_CHARACTERS:
            out.append(char)
        elif char in by_source and rng.random() < sub_p:
            out.append(pick(char))
            corruptions += 1
        elif char.isalpha() and rng.random() < drop_p:
            corruptions += 1  # dropped
        else:
            out.append(char)
        i += 1
    return "".join(out), corruptions


def _single_edits(word: str) -> set[str]:
    """All strings within one edit of ``word`` (lowercase letters): the
    specification of ``OcrCorrector.neighbours``."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = {left + right[1:] for left, right in splits if right}
    replaces = {left + c + right[1:]
                for left, right in splits if right for c in letters}
    inserts = {left + c + right for left, right in splits for c in letters}
    return deletes | replaces | inserts


#: Pieces of channel input dense in confusion sources, digraphs
#: (overlapping ones too), protected characters, and characters beyond
#: Latin-1 (the corpus's dash, the channel's dotless i, a euro sign).
_CHANNEL_PIECES = tuple("O0l1IiS5B8Z2g9mdecaotfhu") + (
    "rn", "rnrn", "rnm", "cl", "clcl", "cld", "lll", "r", "n", "c", "x",
    "é", "—", "ı", "€", "|", ";", "\t", "\n", " ", ".", ":", "/",
    "Software", "vehicle", "—ı", "ı1", "|;")

#: A channel with weighted multi-option sources (letters, digits and a
#: digraph), a digraph that overlaps itself, and digraphs that touch a
#: protected or a non-Latin-1 character.
_MULTI_OPTION_CONFUSIONS = (
    ("a", "o", 0.3), ("a", "e", 0.5), ("a", "4", 0.2),
    ("1", "l", 0.6), ("1", "7", 0.4), ("0", "O", 1.0),
    ("rn", "m", 0.8), ("rn", "nn", 0.2), ("m", "rn", 0.5),
    ("cl", "d", 1.0), ("ll", "U", 1.0), ("ı1", "h", 0.5),
    ("ı1", "il", 0.5), ("|;", ":", 1.0), ("é", "e", 1.0),
)

_channels = st.one_of(
    st.just(ConfusionModel()),
    st.builds(ConfusionModel, confusions=st.just(_MULTI_OPTION_CONFUSIONS),
              base_rate=st.floats(0.0, 1.0),
              drop_rate=st.floats(0.0, 1.0)))


class TestConfusionModel:
    def test_perfect_quality_is_lossless(self, rng):
        model = ConfusionModel()
        line = "Software module froze. 1/4/16 — 1:25 PM"
        text, corruptions = model.corrupt_line(line, 1.0, rng)
        assert text == line
        assert corruptions == 0

    def test_low_quality_corrupts(self, rng):
        model = ConfusionModel()
        line = "Software module froze and the driver disengaged" * 3
        text, corruptions = model.corrupt_line(line, 0.1, rng)
        assert corruptions > 0
        assert text != line

    def test_protected_separators_survive(self, rng):
        model = ConfusionModel()
        line = "a — b | c; d"
        for _ in range(50):
            text, _ = model.corrupt_line(line, 0.05, rng)
            assert text.count("—") == 1
            assert text.count("|") == 1
            assert text.count(";") == 1

    def test_digits_and_punctuation_never_dropped(self, rng):
        model = ConfusionModel()
        line = "12:34:56 0.75"
        for _ in range(100):
            text, _ = model.corrupt_line(line, 0.05, rng)
            # Substitutions may change glyphs but length is preserved
            # because only letters can be dropped.
            assert len(text) == len(line)

    def test_corruption_count_matches_reported(self, rng):
        model = ConfusionModel(drop_rate=0.0)
        line = "O0O0O0O0O0" * 4
        text, corruptions = model.corrupt_line(line, 0.2, rng)
        differing = sum(1 for a, b in zip(line, text) if a != b)
        assert differing == corruptions

    def test_invalid_weights_rejected(self):
        with pytest.raises(OcrError):
            ConfusionModel(confusions=(("a", "o", 1.0), ("a", "e", -2.0)))
        with pytest.raises(OcrError):
            ConfusionModel(confusions=(("a", "o", 0.0), ("a", "e", 0.0)))

    @given(channel=_channels,
           lines=st.lists(st.lists(st.sampled_from(_CHANNEL_PIECES),
                                   max_size=40).map("".join),
                          min_size=1, max_size=4),
           quality=st.one_of(st.just(1.0), st.just(0.05),
                             st.floats(0.0, 1.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(channel=ConfusionModel(), lines=["", "a", "rnrn", "clcl"],
             quality=0.05, seed=0)
    @example(channel=ConfusionModel(_MULTI_OPTION_CONFUSIONS, 1.0, 1.0),
             lines=["rnrnaa11clcl—ı1|;", "a"], quality=0.0, seed=3)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_channel(self, channel, lines, quality, seed):
        batched = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for line in lines:
            assert channel.corrupt_line(line, quality, batched) == (
                reference_corrupt_line(channel, line, quality, reference))
            assert (batched.bit_generator.state
                    == reference.bit_generator.state)


class TestScanner:
    def test_page_qualities_in_range(self, rng):
        scanner = Scanner()
        document = scanner.scan("doc", ["line"] * 500, rng)
        for page in document.pages:
            assert 0.0 < page.quality <= 1.0

    def test_bad_pages_appear_at_configured_rate(self, rng):
        # 5,000 pages: the share's standard error is 0.0028.
        document = Scanner().scan(
            "doc", ["line"] * (LINES_PER_PAGE * 5000), rng)
        bad = sum(1 for p in document.pages if p.quality <= BAD_HIGH)
        assert abs(bad / len(document.pages) - BAD_PAGE_RATE) < 0.01


class TestDocumentModel:
    def test_page_count(self):
        assert page_count(0) == 1
        assert page_count(1) == 1
        assert page_count(LINES_PER_PAGE) == 1
        assert page_count(LINES_PER_PAGE + 1) == 2

    def test_paginate_partitions_lines(self):
        lines = [f"line {i}" for i in range(95)]
        qualities = [0.9] * page_count(len(lines))
        document = paginate("doc", lines, qualities)
        assert sum(len(page.true_lines) for page in document.pages) == 95
        assert document.true_lines() == lines

    def test_paginate_rejects_missing_qualities(self):
        with pytest.raises(OcrError):
            paginate("doc", ["x"] * 100, [0.9])

    def test_page_rejects_bad_quality(self):
        with pytest.raises(OcrError):
            ScannedPage(page_number=0, true_lines=["x"], quality=0.0)


class TestEngine:
    def test_recognize_preserves_line_count(self, rng):
        scanner = Scanner()
        lines = [f"event number {i} happened" for i in range(100)]
        document = scanner.scan("doc", lines, rng)
        result = OcrEngine().recognize(document, rng)
        assert len(result.lines) == len(lines)

    def test_confidence_tracks_quality(self, rng):
        engine = OcrEngine()
        line = "The AV did not see the lead vehicle ahead" * 2
        good = paginate("good", [line] * 40, [0.98])
        bad = paginate("bad", [line] * 40, [0.15])
        good_conf = engine.recognize(good, rng).mean_confidence
        bad_conf = engine.recognize(bad, rng).mean_confidence
        assert good_conf > bad_conf + 0.2

    def test_empty_document(self, rng):
        result = OcrEngine().recognize(
            paginate("doc", [], []), rng)
        assert result.lines == []
        assert result.mean_confidence == 1.0


class TestCorrector:
    @pytest.fixture(scope="class")
    def corrector(self):
        return OcrCorrector()

    def test_numeric_span_repair(self, corrector):
        assert corrector.correct_line("O3/l4/2O15") == "03/14/2015"

    def test_word_repair_unique_candidate(self, corrector):
        assert "disengaged" in corrector.correct_line(
            "driver disengagcd safely")

    def test_known_words_untouched(self, corrector):
        line = "Software module froze"
        assert corrector.correct_line(line) == line

    def test_month_abbreviations_protected(self, corrector):
        # "Sep" must not be "repaired" into "See".
        assert corrector.correct_line("Sep-14") == "Sep-14"

    def test_digit_in_word_repair(self, corrector):
        assert corrector.correct_line("p1anned test") == "planned test"
        assert corrector.correct_line("SECTI0N 2") == "SECTION 2"

    def test_digraph_repair(self, corrector):
        assert corrector.correct_line(
            "Autonornous miles") == "Autonomous miles"

    def test_vehicle_ids_not_mangled(self, corrector):
        line = "Autonomous miles May-16 car AV-001: 28342.1"
        assert corrector.correct_line(line) == line

    def test_ambiguous_words_left_alone(self, corrector):
        # "cor" could be car/for/nor...: too ambiguous to repair.
        assert corrector.correct_line("cor") == "cor"


_EXTRA_LEXICON = {"didn't", "o'clock", "AV-001", "I-80", "Route66", "4WD",
                  "Waymo's", "x"}
_EDIT_CHARACTERS = "abcdefghijklmnopqrstuvwxyzAZ'-019"


@st.composite
def _mutated_words(draw, lexicon: list[str]) -> str:
    """A lexicon word after 0-2 random deletions, insertions or
    substitutions (of letters, upper case, digits and punctuation)."""
    word = draw(st.sampled_from(lexicon))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(word)))
        char = draw(st.sampled_from(_EDIT_CHARACTERS))
        edit = draw(st.sampled_from(("delete", "insert", "replace")))
        if edit == "insert":
            word = word[:i] + char + word[i:]
        elif edit == "delete":
            word = word[:i] + word[i + 1:]
        else:
            word = word[:i] + char + word[i + 1:]
    return word


class TestCorrectorNeighbours:
    CORRECTOR = OcrCorrector(extra_lexicon=_EXTRA_LEXICON)

    @given(word=_mutated_words(sorted(CORRECTOR._lexicon)))
    @example(word="")
    @example(word="didnt")
    @example(word="cor")
    @settings(max_examples=400, deadline=None)
    def test_matches_single_edit_oracle(self, word):
        corrector = self.CORRECTOR
        assert corrector.neighbours(word) == {
            c for c in _single_edits(word) if c in corrector._lexicon}


class TestFallback:
    def test_low_confidence_pages_get_transcribed(self, rng):
        lines = ["The perception system failed to detect a cyclist"] * 80
        document = paginate("doc", lines, [0.05, 0.1])
        result = OcrEngine().recognize(document, rng)
        queue = ManualTranscriptionQueue()
        merged = apply_fallback(document, result, queue)
        assert merged == lines  # human transcription restores truth
        assert queue.pages_transcribed == len(document.pages)

    def test_high_confidence_pages_keep_ocr_text(self, rng):
        lines = ["clean text line"] * 40
        document = paginate("doc", lines, [1.0])
        result = OcrEngine().recognize(document, rng)
        queue = ManualTranscriptionQueue()
        merged = apply_fallback(document, result, queue)
        assert queue.pages_transcribed == 0
        assert len(merged) == 40

    def test_queue_accounts_effort(self, rng):
        lines = ["text"] * 80
        document = paginate("doc", lines, [0.1, 0.95])
        result = OcrEngine().recognize(document, rng)
        queue = ManualTranscriptionQueue()
        apply_fallback(document, result, queue)
        assert queue.pages_transcribed == 1
        assert queue.lines_transcribed == 40
        assert queue.documents_touched == {"doc"}
