"""Post-OCR text correction.

Two repair strategies, both conservative (never fire on text that is
already a known word or a plausible number):

* **Lexicon repair** — single-edit lookup of unknown words against a
  domain lexicon (vehicle/driving/failure vocabulary harvested from
  the narrative templates plus common English glue words).
* **Pattern repair** — digit de-confusion inside date-like, time-like,
  and number-like spans (``O3/l4/2O15`` -> ``03/14/2015``).
"""

from __future__ import annotations

import re

from ..synth.narratives import TEMPLATES

_DIGIT_FIX = str.maketrans({
    "O": "0", "o": "0", "l": "1", "I": "1", "|": "1",
    "S": "5", "B": "8", "Z": "2", "g": "9",
})

#: Spans that should be purely numeric (with their separators).
_NUMERIC_SPAN_RE = re.compile(
    r"\b[\dOolI|SBZg]{1,4}([/:.\-][\dOolI|SBZg]{1,4}){1,3}\b")

_WORD_RE = re.compile(r"[A-Za-z]{3,}")

_GLUE_WORDS = (
    "the and for with from that this was were not did didn't your are "
    "has had its all one two out due too own other after before during "
    "into over under behind ahead near while when where which vehicle "
    "driver control manual mode test safely resumed took immediate "
    "disengaged disengagement disengage autonomous report section "
    "miles reaction time car road weather highway freeway interstate "
    "street suburban rural parking city sunny cloudy overcast raining "
    "clear night takeover request planned injection precautionary "
    "initiated date month end state california traffic accident "
    "manufacturer reporting period unknown none description location "
    "collision speed injuries operation safe auto events "
    # Month abbreviations and fleet vocabulary: without these the
    # single-edit repair "fixes" Sep -> See and Leaf -> Lead.
    "jan feb mar apr may jun jul aug sep oct nov dec "
    "january february march april june july august september october "
    "november december "
    "leaf alfa bravo charlie delta echo foxtrot golf hotel india "
    "juliett kilo lima mike oscar papa quebec romeo sierra tango "
    "uniform victor whiskey xray yankee zulu "
    "initiator cause mercedes benz bosch delphi nissan tesla "
    "volkswagen waymo cruise gmcruise ford honda uber atc bmw").split()


def _harvest_lexicon() -> frozenset[str]:
    words: set[str] = set(_GLUE_WORDS)
    for templates in TEMPLATES.values():
        for template in templates:
            for word in _WORD_RE.findall(template.text):
                words.add(word.lower())
            for choice in template.choices:
                for word in _WORD_RE.findall(choice):
                    words.add(word.lower())
    return frozenset(words)


#: Alphabetic token that swallowed digit look-alikes (``p1anned``,
#: ``SECTI0N``): mostly letters, no hyphen, at least one confusable.
_DIGIT_IN_WORD_RE = re.compile(
    r"\b[A-Za-z]+[0l1|5I][A-Za-z0l1|5I]*[A-Za-z]\b")

_WORD_DIGIT_FIX = str.maketrans({"0": "o", "1": "l", "|": "l", "5": "s"})

#: Digraph confusions the channel applies that a single-edit repair
#: cannot undo (they change word length by one in a correlated way).
_DIGRAPH_SWAPS = (("rn", "m"), ("m", "rn"), ("cl", "d"), ("d", "cl"))


#: The characters a single-edit repair may insert or substitute.
_EDIT_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")

#: Tokens a corrector's memo keeps.  The seed-2018 corpus's 143,307
#: space-separated OCR tokens hold 10,085 distinct ones, so a full
#: corpus fits and the memo never evicts on it.
_MEMO_SIZE = 16384


class OcrCorrector:
    """Conservative post-OCR repair pass, one space-separated token at
    a time.

    Each line is split on single spaces and each token is repaired
    alone, through a bounded memo keyed by the token: most tokens of a
    corpus are repeats (93% at seed 2018).  That equals repairing the
    whole line, because none of the three repair patterns can match a
    space, a ``\\b`` at a token's edge sees a non-word character either
    way (a space in the line, the end of the string in the token), and
    no repair inserts or removes a space: digit fixes map characters to
    digits, and a word repair returns its input or a lexicon word of
    ASCII letters, cased like the input.  Runs of spaces give empty
    tokens, which stay empty.
    """

    def __init__(self, extra_lexicon: set[str] | None = None) -> None:
        lexicon = set(_harvest_lexicon())
        if extra_lexicon:
            lexicon.update(w.lower() for w in extra_lexicon)
        self._lexicon = frozenset(lexicon)
        #: Every delete-one variant of a lexicon word -> the (deleted
        #: position, word) pairs it comes from.
        self._deletions: dict[str, list[tuple[int, str]]] = {}
        for word in self._lexicon:
            for i in range(len(word)):
                self._deletions.setdefault(
                    word[:i] + word[i + 1:], []).append((i, word))
        #: Repaired tokens, by input token: a repair is a pure function
        #: of the token and the lexicon.
        self._memo: dict[str, str] = {}

    def neighbours(self, word: str) -> set[str]:
        """Lexicon words one edit from ``word``: a deletion, or an
        insertion or substitution of a letter ``a``-``z``."""
        found = set()
        for i in range(len(word)):
            variant = word[:i] + word[i + 1:]
            if variant in self._lexicon:
                found.add(variant)
            # Same deleted position: a substitution (or word itself).
            for position, candidate in self._deletions.get(variant, ()):
                if position == i and candidate[i] in _EDIT_LETTERS:
                    found.add(candidate)
        for position, candidate in self._deletions.get(word, ()):
            if candidate[position] in _EDIT_LETTERS:
                found.add(candidate)
        return found

    def correct_line(self, line: str) -> str:
        """Repair one OCR-output line, token by token."""
        memo = self._memo
        return " ".join([memo[token] if token in memo
                         else self._correct_token(token)
                         for token in line.split(" ")])

    def correct_lines(self, lines: list[str]) -> list[str]:
        """Repair a whole document."""
        return [self.correct_line(line) for line in lines]

    def _correct_token(self, token: str) -> str:
        """Repair one token the memo does not hold, and remember it."""
        repaired = _NUMERIC_SPAN_RE.sub(_fix_digits, token)
        repaired = _DIGIT_IN_WORD_RE.sub(
            lambda m: self.repair_digit_word(m.group()), repaired)
        repaired = _WORD_RE.sub(
            lambda m: self.repair_word(m.group()), repaired)
        _remember(self._memo, token, repaired)
        return repaired

    def repair_digit_word(self, token: str) -> str:
        """Repair digits that crept inside an alphabetic word."""
        letters = sum(c.isalpha() for c in token)
        if letters < 0.6 * len(token):
            return token
        candidate = token.translate(_WORD_DIGIT_FIX)
        if candidate.lower() in self._lexicon:
            return _match_case(token, candidate.lower())
        return token

    def repair_word(self, word: str) -> str:
        """Lexicon repair of one word."""
        lowered = word.lower()
        if lowered in self._lexicon:
            return word
        for source, target in _DIGRAPH_SWAPS:
            if source in lowered:
                candidate = lowered.replace(source, target, 1)
                if candidate in self._lexicon:
                    return _match_case(word, candidate)
        candidates = self.neighbours(lowered)
        if len(candidates) == 1:
            return _match_case(word, candidates.pop())
        return word


def _fix_digits(match: re.Match[str]) -> str:
    """Digit de-confusion of one numeric span."""
    return match.group().translate(_DIGIT_FIX)


def _remember(memo: dict[str, str], key: str, value: str) -> None:
    """Store one repair, evicting the oldest entry once the memo is full."""
    if len(memo) >= _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value


def _match_case(original: str, repaired: str) -> str:
    """Transfer the original word's casing onto the repaired word."""
    if original.isupper():
        return repaired.upper()
    if original[:1].isupper():
        return repaired.capitalize()
    return repaired
