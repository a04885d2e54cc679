"""Character-confusion model for the OCR noise channel.

Models the classic Tesseract failure modes on low-quality scans:
visually similar glyph substitutions (``O``/``0``, ``l``/``1``,
``rn``/``m``), occasional character drops, and spurious specks read as
punctuation.  Confusions are weighted: a degraded page substitutes
more aggressively.

The channel reads a line left to right.  At each position a digraph
confusion gets the first test, then the character gets a substitution
test (if it is a confusion source) and a drop test (if it is a letter);
protected characters are never tested.  The first test that fires ends
the position (a digraph: the next one too).  Every test is one uniform
draw, and so is the choice between a source's replacements when it has
several.  :meth:`ConfusionModel.corrupt_line` makes those draws in one
block per line instead of one call each, and leaves the generator
exactly where drawing them one at a time would.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import OcrError

#: (source, replacement, relative weight).  Multi-character sources
#: model digraph confusions.
DEFAULT_CONFUSIONS: tuple[tuple[str, str, float], ...] = (
    ("O", "0", 1.0), ("0", "O", 1.0),
    ("l", "1", 1.0), ("1", "l", 0.6),
    ("I", "1", 0.8), ("i", "ı", 0.1),
    ("S", "5", 0.6), ("5", "S", 0.5),
    ("B", "8", 0.5), ("8", "B", 0.4),
    ("Z", "2", 0.5), ("2", "Z", 0.3),
    ("g", "9", 0.3), ("9", "g", 0.2),
    ("rn", "m", 0.8), ("m", "rn", 0.5),
    ("cl", "d", 0.4), ("d", "cl", 0.2),
    ("e", "c", 0.4), ("c", "e", 0.3),
    ("a", "o", 0.3), ("o", "a", 0.2),
    ("t", "f", 0.3), ("f", "t", 0.2),
    ("h", "b", 0.2), ("u", "v", 0.3),
)

#: Characters the channel never touches, to keep table structure
#: recoverable the way the authors' manual normalization did: field
#: separators survive scanning far better than glyph interiors.
PROTECTED_CHARACTERS = frozenset("—|;—\n\t")

#: The tests a position can get, as bits, in the order it gets them.
_DIGRAPH, _SUBSTITUTE, _DROP = 1, 2, 4
_TEST_ORDER = (_DIGRAPH, _SUBSTITUTE, _DROP)


@dataclass
class ConfusionModel:
    """Samplable character-confusion table."""

    confusions: tuple[tuple[str, str, float], ...] = DEFAULT_CONFUSIONS
    #: Probability scale of a confusion firing at quality 0.
    base_rate: float = 0.25
    #: Probability of dropping a character entirely at quality 0.
    drop_rate: float = 0.01

    def __post_init__(self) -> None:
        by_source: dict[str, list[tuple[str, float]]] = {}
        for source, replacement, weight in self.confusions:
            by_source.setdefault(source, []).append((replacement, weight))
        #: source -> (replacements, cumulative weights or None).  The
        #: weights are normalised the way ``Generator.choice(p=...)``
        #: normalises them, so one uniform picks the same replacement.
        self._options: dict[str, tuple[tuple[str, ...],
                                       np.ndarray | None]] = {}
        for source, options in by_source.items():
            cdf = None
            if len(options) > 1:
                weights = np.array([w for _, w in options])
                if (weights < 0).any() or not weights.sum() > 0:
                    raise OcrError(f"confusion weights of {source!r} must "
                                   "be non-negative with a positive sum")
                cdf = (weights / weights.sum()).cumsum()
                cdf /= cdf[-1]
            self._options[source] = (tuple(r for r, _ in options), cdf)
        self._digraphs = tuple(s for s in by_source if len(s) == 2)
        #: The tests of each Latin-1 character (``_SUBSTITUTE``,
        #: ``_DROP`` bits); wider characters are classified one by one.
        self._tests = bytes(self._tests_of(chr(c)) for c in range(256))
        #: The number of tests each set of test bits stands for.
        self._counts = bytes(bin(bits).count("1") for bits in range(256))

    def _tests_of(self, char: str) -> int:
        if char in PROTECTED_CHARACTERS:
            return 0
        # Real engines substitute glyphs far more often than they
        # delete them, and deletions concentrate in letter strokes;
        # digits and punctuation survive.
        return (_SUBSTITUTE * (char in self._options)
                | _DROP * char.isalpha())

    def corrupt_line(self, line: str, quality: float,
                     rng: np.random.Generator) -> tuple[str, int]:
        """Pass ``line`` through the channel at the given ``quality``.

        Returns the corrupted line and the number of corruptions
        applied (used by the engine to compute confidence).  ``rng`` is
        left in the state one uniform draw per test and per weighted
        pick, in line order, would leave it.
        """
        severity = max(0.0, 1.0 - quality)
        if severity <= 0.0 or not line:
            return line, 0
        sub_p = self.base_rate * severity
        drop_p = self.drop_rate * severity
        # Draw once for every test the line makes when nothing fires.
        # A test that fires ends its position (a digraph: the next one
        # too), so the line may use fewer draws than that: keep the
        # state to redraw exactly the number used.
        tests = self._tests_by_position(line)
        planned = int.from_bytes(tests, "little").bit_count()
        state = rng.bit_generator.state
        draws = rng.random(planned)
        # Only a draw below the larger threshold can fire, whichever
        # test ends up reading it.
        limit = max(sub_p, drop_p)
        low = (draws < limit).nonzero()[0].tolist()
        if not low:
            return line, 0
        # ends[i] is the number of tests at positions up to i; test t
        # reads draw t + shift.
        ends = list(itertools.accumulate(tests.translate(self._counts)))
        out: list[str] = []
        done = 0          # line[:done] is already in out
        corruptions = 0
        shift = 0
        following = 0     # the next test to be made
        k = 0
        while k < len(low):
            drawn = low[k]
            k += 1
            test = drawn - shift
            if test < following:
                continue  # already read by a pick
            if test >= planned:
                break
            i = bisect.bisect_right(ends, test)
            bits = tests[i]
            rank = test - (ends[i - 1] if i else 0)
            kind = [bit for bit in _TEST_ORDER if bits & bit][rank]
            if draws[drawn] >= (drop_p if kind == _DROP else sub_p):
                continue
            out.append(line[done:i])
            corruptions += 1
            done = i + (2 if kind == _DIGRAPH else 1)
            if kind != _DROP:
                replacements, cdf = self._options[line[i:done]]
                if cdf is None:
                    out.append(replacements[0])
                else:
                    shift += 1
                    if planned + shift > draws.size:
                        more = rng.random(planned + shift - draws.size)
                        low += (draws.size
                                + (more < limit).nonzero()[0]).tolist()
                        draws = np.concatenate((draws, more))
                    pick = cdf.searchsorted(draws[drawn + 1], side="right")
                    out.append(replacements[int(pick)])
            following = ends[done - 1]
            shift -= following - test - 1
        out.append(line[done:])
        if planned + shift < draws.size:
            rng.bit_generator.state = state
            rng.random(planned + shift)
        return "".join(out), corruptions

    def _tests_by_position(self, line: str) -> bytearray:
        """The test bits of each position of ``line``."""
        tests = bytearray(
            line.encode("latin-1", "replace").translate(self._tests))
        if not line.isascii():
            # "?" stands in for each character beyond Latin-1.
            for i, char in enumerate(line):
                if char > "\xff":
                    tests[i] = self._tests_of(char)
        for digraph in self._digraphs:
            i = line.find(digraph)
            while i >= 0:
                tests[i] |= _DIGRAPH
                i = line.find(digraph, i + 1)
        return tests
