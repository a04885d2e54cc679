"""The per-string memos of Stages II and III change no result.

Each memoized function must return what its undecorated body returns,
on every call, and an input that raises must raise on every call.  An
OCR corrector, which repairs one memoized token at a time, must return
what three regex passes over the whole line return, and its output must
not depend on the lines it corrected before.  A document's one-pass
content digest must equal the ``to_dict()``-and-scrub digest kept in
:mod:`tests.oracles`, so checkpoint directories keep resuming.  Date
and time parsing, which skips the formats a text cannot have, must
return (or raise) what trying every format with ``strptime`` does.
"""

from __future__ import annotations

import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.nlp import normalize
from repro.ocr import correction
from repro.ocr.correction import OcrCorrector
from repro.ocr.engine import OcrEngine
from repro.ocr.fallback import ManualTranscriptionQueue, apply_fallback
from repro.ocr.scanner import Scanner
from repro.parsing.formats import benz
from repro.pipeline.ingest import document_digest
from repro.rng import child_generator
from repro.synth.dataset import generate_corpus
from repro.synth.reports import RawDocument

from .conftest import FULL_SEED
from .oracles import (
    correct_line_reference,
    document_digest_reference,
    parse_date_reference,
    parse_time_of_day_reference,
)


def _outcome(fn, text):
    """``("ok", value)`` or ``("raises", exception type, message)``."""
    try:
        return "ok", fn(text)
    except Exception as error:  # noqa: BLE001 - compared by type
        return "raises", type(error), str(error)


def _assert_memo_matches_body(memoized, text):
    expected = _outcome(memoized.__wrapped__, text)
    for _ in range(3):  # cold, then warm (or re-raised)
        assert _outcome(memoized, text) == expected


_DATE_FORMATS = ("%m/%d/%y", "%m/%d/%Y", "%Y-%m-%d", "%b-%y",
                 "%B %d, %Y", "%d %b %Y", "%m-%d-%Y", "%d.%m.%Y")
_dates = st.builds(lambda day, fmt: day.strftime(fmt),
                   st.dates(), st.sampled_from(_DATE_FORMATS))
_TIME_FORMATS = ("%H:%M:%S", "%H:%M", "%I:%M %p", "%I:%M:%S %p",
                 "%I%p", "%H.%M")
_times = st.builds(lambda moment, fmt: moment.strftime(fmt),
                   st.times(), st.sampled_from(_TIME_FORMATS))
_noise = st.text(alphabet="0123456789/:-. APMapmOlI", max_size=12)


class TestParseMemos:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(_dates, _noise, st.text(max_size=12)))
    def test_parse_date_equals_body(self, text):
        _assert_memo_matches_body(units.parse_date, text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(_times, _noise, st.text(max_size=12)))
    def test_parse_time_of_day_equals_body(self, text):
        _assert_memo_matches_body(units.parse_time_of_day, text)

    def test_bad_input_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(units.FieldCoercionError):
                units.parse_date("14th of March")
            with pytest.raises(units.FieldCoercionError):
                units.parse_time_of_day("around noon")

    @settings(max_examples=300, deadline=None)
    @given(token=st.one_of(
        st.text(alphabet="abcdegins'", max_size=10), st.text(max_size=8)))
    def test_stem_equals_body(self, token):
        _assert_memo_matches_body(normalize.stem, token)

    @settings(max_examples=300, deadline=None)
    @given(key=st.one_of(
        st.sampled_from(benz._KNOWN_KEYS),
        st.text(alphabet="adefiklmnorstuv ", max_size=14)))
    def test_snap_key_equals_body(self, key):
        _assert_memo_matches_body(benz._snap_key, key)

    @settings(max_examples=300, deadline=None)
    @given(line=st.lists(st.one_of(
        st.builds("{}: {}".format, st.sampled_from(benz._KNOWN_KEYS),
                  st.text(max_size=8)),
        st.text(alphabet="DatemC: ;", max_size=12)),
        max_size=5).map("; ".join))
    def test_key_values_equal_body(self, line):
        _assert_memo_matches_body(benz._parse_key_values, line)

    def test_key_values_memo_is_read_only(self):
        line = "Date: 03/14/2015; Cause: sensor fault"
        with pytest.raises(TypeError):
            benz._parse_key_values(line)["date"] = "tampered"
        assert benz._parse_key_values(line)["date"] == "03/14/2015"


#: OCR confusions, separators, other whitespace and non-ASCII digits.
_DAMAGE = "0123456789OolISBZg|/:-., \t\u00a0\u0663APMapmJanDec"


@st.composite
def _damaged(draw, rendered) -> str:
    """A rendered value with up to three characters swapped in, added
    or dropped, and drawn letter case."""
    text = draw(rendered)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("swap", "add", "drop")))
        char = draw(st.sampled_from(_DAMAGE))
        if edit == "add":
            text = text[:at] + char + text[at:]
        elif edit == "swap":
            text = text[:at] + char + text[at + 1:]
        else:
            text = text[:at] + text[at + 1:]
    return draw(st.sampled_from((text, text.lower(), text.upper())))


#: A numeric field's leading zero kept, dropped or made a space
#: (``strptime`` reads " 5" as a day).
_PADDING = st.sampled_from(("0", "", " "))


def _rendered(value, fmt: str, padding: str) -> str:
    return re.sub(r"(?<!\d)0(?=\d)", padding, value.strftime(fmt))


_all_dates = st.builds(
    _rendered, st.dates(),
    st.sampled_from(units._DATE_FORMATS + _DATE_FORMATS), _PADDING)
_all_times = st.builds(
    _rendered, st.times(),
    st.sampled_from(units._TIME_FORMATS + _TIME_FORMATS), _PADDING)


class TestStrptimeShapes:
    """``strptime`` runs only for the formats whose shape a text has."""

    @settings(max_examples=600, deadline=None)
    @given(text=st.one_of(_all_dates, _damaged(_all_dates), _noise,
                          st.text(max_size=16)))
    def test_parse_date_equals_every_format_loop(self, text):
        assert (_outcome(units.parse_date.__wrapped__, text)
                == _outcome(parse_date_reference, text))

    @settings(max_examples=600, deadline=None)
    @given(text=st.one_of(_all_times, _damaged(_all_times), _noise,
                          st.text(max_size=16)))
    def test_parse_time_equals_every_format_loop(self, text):
        assert (_outcome(units.parse_time_of_day.__wrapped__, text)
                == _outcome(parse_time_of_day_reference, text))

    def test_every_rendering_passes_its_own_shape(self):
        moment = datetime(2016, 9, 5, 7, 4, 3)
        for fmt, shape in units._DATE_SHAPES + units._TIME_SHAPES:
            assert shape.fullmatch(moment.strftime(fmt)), fmt
            assert shape.fullmatch(moment.strftime(fmt).lower()), fmt


#: A corrector that grows warm across examples, and one whose memo
#: stays empty because only the unmemoized repairs are called on it.
_CORRECTOR = OcrCorrector()
_REFERENCE = OcrCorrector()
_LEXICON = sorted(_CORRECTOR.lexicon)


@st.composite
def _ocr_words(draw) -> str:
    """A lexicon word, maybe cased, with 0-2 OCR-style edits."""
    word = draw(st.sampled_from(_LEXICON))
    word = draw(st.sampled_from((word, word.upper(), word.capitalize())))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(word)))
        char = draw(st.sampled_from("abcdlmnrsO0l1|5I"))
        edit = draw(st.sampled_from(("delete", "insert", "replace")))
        if edit == "insert":
            word = word[:i] + char + word[i:]
        elif edit == "delete":
            word = word[:i] + word[i + 1:]
        else:
            word = word[:i] + char + word[i + 1:]
    return word


_lines = st.lists(
    st.one_of(_ocr_words(), st.text(alphabet="O0l1/:-.|SB ", max_size=8)),
    max_size=8).map(" ".join)

#: What an OCR line is made of: damaged words, digit runs, runs of
#: separators and digit look-alikes, and any text at all.
_pieces = st.one_of(
    _ocr_words(), st.text(alphabet="0123456789", min_size=1, max_size=6),
    st.text(alphabet="O0olI1|SBZg5/:.-_'", max_size=10), st.text())
#: Joints between pieces: spaces and runs of them, and the whitespace
#: and punctuation that a token may hold inside.
_joints = st.sampled_from(
    (" ", "  ", "\t", "\xa0", "—", " | ", "\n", ""))


@st.composite
def _joined_lines(draw) -> str:
    """Pieces joined by drawn joints, with leading and trailing spaces."""
    line = draw(st.sampled_from(("", " ", "  ")))
    for index, piece in enumerate(draw(st.lists(_pieces, max_size=10))):
        if index:
            line += draw(_joints)
        line += piece
    return line + draw(st.sampled_from(("", " ", "  ")))


def _ocr_output(corpus, seed: int) -> list[str]:
    """Every line the OCR channel hands the corrector for ``corpus``,
    drawn as the pipeline draws it."""
    scanner, engine = Scanner(), OcrEngine()
    queue = ManualTranscriptionQueue()
    lines: list[str] = []
    for document in corpus.documents:
        rng = child_generator(seed, f"ocr:{document.document_id}")
        scanned = scanner.scan(document.document_id, document.lines, rng)
        lines.extend(apply_fallback(
            scanned, engine.recognize(scanned, rng), queue))
    return lines


class TestOcrMemos:
    @settings(max_examples=500, deadline=None)
    @given(line=_joined_lines())
    def test_correct_line_equals_reference(self, line):
        expected = correct_line_reference(_REFERENCE, line)
        for _ in range(2):  # cold, then from the memo
            assert _CORRECTOR.correct_line(line) == expected

    def test_every_seed2018_ocr_line_equals_reference(self, corpus):
        lines = _ocr_output(corpus, FULL_SEED)
        assert len(lines) == 8081
        corrected = OcrCorrector().correct_lines(lines)
        for line, repaired in zip(lines, corrected):
            assert repaired == correct_line_reference(_REFERENCE, line), line

    @settings(max_examples=100, deadline=None)
    @given(before=st.lists(_lines, max_size=4), line=_lines)
    def test_warm_corrector_equals_fresh(self, before, line):
        _CORRECTOR.correct_lines(before)
        assert _CORRECTOR.correct_line(line) == OcrCorrector().correct_line(
            line)

    @settings(max_examples=50, deadline=None)
    @given(before=st.lists(_lines, max_size=4), line=_lines)
    def test_evicting_corrector_equals_fresh(self, before, line):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correction, "_MEMO_SIZE", 2)
            corrector = OcrCorrector()
            corrector.correct_lines(before)
            assert corrector.correct_line(line) == (
                OcrCorrector().correct_line(line))
            assert len(corrector._memo) <= 2


_scalars = st.one_of(
    st.text(max_size=6), st.booleans(), st.none(), st.integers(),
    st.floats(), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=24)


class TestDigestScrub:
    @settings(max_examples=300, deadline=None)
    @given(payload=_payloads)
    def test_digest_equals_reference(self, payload):
        # Both encoders raise on what JSON cannot hold (ints beyond
        # 64 bits); everything else must hash to the same bytes.
        document = RawDocument("d", "Nissan", "accident", lines=[payload])
        assert _outcome(document_digest, document) == _outcome(
            document_digest_reference, document)

    def test_every_seed2018_document_equals_reference(self, corpus):
        for document in corpus.documents:
            assert document_digest(document) == document_digest_reference(
                document), document.document_id
        # Every reaction time the synthesizer reports is a float, also
        # the drifted ones that numpy once rounded.
        times = [r.reaction_time_s for r in corpus.truth_disengagements()
                 if r.reaction_time_s is not None]
        assert times and all(type(t) is float for t in times)

    def test_small_document_digests_pinned(self):
        # Taken when the digest still scrubbed ``to_dict()`` records
        # value by value: a checkpoint directory written then must
        # still resume without re-ingesting every document.
        documents = {d.document_id: d for d in
                     generate_corpus(5, ["Nissan"]).documents}
        assert document_digest(
            documents["Nissan-2015-2016-disengagements"]) == (
            "0aade29071a2b6283052a2d828c170d3"
            "5e3c79c67830b8e3fef6af7f5dd5235f")
        assert document_digest(documents["Nissan-accident-000"]) == (
            "6260cb3e00b58b86188b0fa1907fd031"
            "69508788bf504526c9e0a215af3fd805")
