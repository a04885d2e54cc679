"""Property-based tests (hypothesis) on core data structures and
invariants."""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fitting import fit_exponential
from repro.analysis import significance
from repro.analysis.regression import fit_linear
from repro.analysis.significance import (
    miles_to_demonstrate,
    rate_upper_bound,
)
from repro.analysis.stats import boxplot_stats
from repro.nlp.normalize import normalize_tokens, stem
from repro.nlp.ngrams import all_ngrams, ngrams
from repro.nlp.tokenize import tokenize
from repro.ocr.confusion import ConfusionModel
from repro.parsing.fields import repair_numeric_text
from repro.parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from repro.reporting.tables import Table
from repro.taxonomy import FaultTag, Modality

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-6, max_value=1e9,
                            allow_nan=False, allow_infinity=False)


class TestStatsProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_boxplot_ordering_invariant(self, values):
        box = boxplot_stats(values)
        assert box.minimum <= box.q1 <= box.median <= box.q3 \
            <= box.maximum
        assert box.minimum <= box.mean <= box.maximum
        assert box.n == len(values)

    @given(st.lists(finite_floats, min_size=1, max_size=100),
           finite_floats)
    def test_boxplot_translation_equivariance(self, values, shift):
        base = boxplot_stats(values)
        shifted = boxplot_stats([v + shift for v in values])
        assert shifted.median == base.median + shift or \
            math.isclose(shifted.median, base.median + shift,
                         rel_tol=1e-9, abs_tol=1e-6)

    @given(st.lists(st.tuples(finite_floats, finite_floats),
                    min_size=3, max_size=100))
    def test_linear_fit_residual_orthogonality(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if np.allclose(xs, xs[0]):
            return
        if max(map(abs, xs)) > 1e6 or max(map(abs, ys)) > 1e6:
            return  # avoid float blowup in the invariant check
        fit = fit_linear(xs, ys)
        residuals = [y - (fit.slope * x + fit.intercept)
                     for x, y in zip(xs, ys)]
        assert abs(sum(residuals)) < 1e-3 * (1 + max(map(abs, ys)))

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4),
                    min_size=3, max_size=300))
    def test_exponential_fit_scale_is_mean(self, values):
        fit = fit_exponential(values)
        assert math.isclose(fit.scale, sum(values) / len(values),
                            rel_tol=1e-9)


class TestSignificanceProperties:
    @given(st.floats(min_value=1e-9, max_value=1.0),
           st.floats(min_value=0.01, max_value=0.999))
    def test_miles_to_demonstrate_monotone_in_confidence(self, rate,
                                                         confidence):
        with patch.object(significance, "CONFIDENCE", confidence * 0.5):
            lower = miles_to_demonstrate(rate)
        with patch.object(significance, "CONFIDENCE", confidence):
            higher = miles_to_demonstrate(rate)
        assert higher >= lower

    @given(st.floats(min_value=1e3, max_value=1e8),
           st.integers(min_value=0, max_value=100))
    def test_bounds_bracket(self, miles, failures):
        assert failures / miles <= rate_upper_bound(miles, failures)


class TestNlpProperties:
    @given(st.text(max_size=300))
    def test_tokenize_never_raises_and_is_lowercase(self, text):
        tokens = tokenize(text)
        assert all(t == t.lower() for t in tokens)

    @given(st.text(max_size=200))
    def test_normalize_is_idempotent_modulo_stemming(self, text):
        once = normalize_tokens(tokenize(text))
        twice = normalize_tokens(once)
        # Stemming is not idempotent in general, but it must never
        # lengthen tokens and never produce empty tokens.
        assert all(len(b) <= len(a) for a, b in zip(once, twice))
        assert all(t for t in once)

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=5),
                    max_size=20),
           st.integers(min_value=1, max_value=4))
    def test_ngram_count(self, tokens, n):
        grams = ngrams(tokens, n)
        assert len(grams) == max(0, len(tokens) - n + 1)
        assert all(len(g) == n for g in grams)

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=4),
                    max_size=15))
    def test_all_ngrams_superset_of_unigrams(self, tokens):
        grams = set(all_ngrams(tokens, max_n=3))
        for token in tokens:
            assert (token,) in grams

    @given(st.text(max_size=100))
    def test_stem_never_empties_words(self, text):
        for token in tokenize(text):
            assert stem(token)


class TestOcrProperties:
    @given(st.text(alphabet=st.characters(min_codepoint=32,
                                          max_codepoint=126),
                   max_size=200),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_perfect_quality_identity(self, line, seed):
        model = ConfusionModel()
        rng = np.random.default_rng(seed)
        text, corruptions = model.corrupt_line(line, 1.0, rng)
        assert text == line and corruptions == 0

    @given(st.text(alphabet=st.characters(min_codepoint=32,
                                          max_codepoint=126),
                   max_size=200),
           st.floats(min_value=0.01, max_value=1.0),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50)
    def test_corruption_never_lengthens_line(self, line, quality, seed):
        model = ConfusionModel()
        rng = np.random.default_rng(seed)
        text, _ = model.corrupt_line(line, quality, rng)
        # Substitutions are 1:1 except the expanding digraph targets
        # (m -> rn, d -> cl); drops shorten.
        expanding = line.count("m") + line.count("d")
        assert len(text) <= len(line) + expanding

    @given(st.text(alphabet="0OolI|15SZB8g2.9/:-", max_size=40))
    def test_repair_numeric_text_outputs_digits(self, text):
        repaired = repair_numeric_text(text)
        assert len(repaired) == len(text)
        for char in repaired:
            assert char not in "OolI|SBZg"


class TestRecordProperties:
    @given(st.sampled_from(list(FaultTag)),
           st.sampled_from(list(Modality)),
           st.floats(min_value=0.01, max_value=1e4),
           st.text(min_size=1, max_size=80))
    def test_disengagement_json_roundtrip(self, tag, modality,
                                          reaction, description):
        record = DisengagementRecord(
            manufacturer="X", month="2015-06",
            modality=modality, reaction_time_s=reaction,
            description=description, truth_tag=tag)
        clone = DisengagementRecord.from_dict(record.to_dict())
        assert clone == record

    @given(st.floats(min_value=0, max_value=50),
           st.floats(min_value=0, max_value=50))
    def test_accident_relative_speed(self, a, b):
        record = AccidentRecord(manufacturer="X", av_speed_mph=a,
                                other_speed_mph=b)
        assert record.relative_speed_mph == abs(a - b)
        clone = AccidentRecord.from_dict(record.to_dict())
        assert clone == record

    @given(st.floats(min_value=0, max_value=1e6))
    def test_mileage_roundtrip(self, miles):
        cell = MonthlyMileage("X", "2016-01", miles, "car-1")
        assert MonthlyMileage.from_dict(cell.to_dict()) == cell


class TestTableProperties:
    @given(st.lists(
        st.lists(st.one_of(st.integers(min_value=-10**6,
                                       max_value=10**6),
                           st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False),
                           st.text(max_size=10), st.none()),
                 min_size=2, max_size=2),
        max_size=10))
    def test_render_never_raises(self, rows):
        table = Table("T", ["a", "b"], rows)
        text = table.render()
        assert text.startswith("T")
        assert len(text.splitlines()) >= 4
