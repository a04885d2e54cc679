"""Statistical validation of the synthesizer against its calibration.

Goodness-of-fit checks that the realized corpus actually follows the
configured distributions — the guarantee everything downstream
depends on.
"""

import numpy as np
import pytest
from scipy import stats as sstats

from repro.calibration.accidents import SPEED_MODEL
from repro.calibration.fault_model import fault_mixture
from repro.calibration.modality import modality_mixture
from repro.calibration.reaction_times import reaction_time_model
from repro.calibration.roads import ROAD_TYPE_SHARES


def _records_for(corpus, manufacturer):
    return [r for r in corpus.truth_disengagements()
            if r.manufacturer == manufacturer]


class TestTagMixtures:
    @pytest.mark.parametrize("manufacturer", [
        "Waymo", "Mercedes-Benz", "Bosch", "Delphi"])
    def test_realized_tags_match_mixture(self, corpus, manufacturer):
        records = _records_for(corpus, manufacturer)
        mixture = fault_mixture(manufacturer)
        observed = {}
        for record in records:
            observed[record.truth_tag] = observed.get(
                record.truth_tag, 0) + 1
        total = len(records)
        # Chi-square over tags with expected count >= 5.
        chi2 = 0.0
        dof = 0
        for tag, weight in mixture.weights.items():
            expected = weight * total
            if expected < 5:
                continue
            chi2 += (observed.get(tag, 0) - expected) ** 2 / expected
            dof += 1
        assert dof > 3
        p = 1 - sstats.chi2.cdf(chi2, dof - 1)
        assert p > 1e-4, f"{manufacturer}: chi2={chi2:.1f} dof={dof}"


class TestModalities:
    @pytest.mark.parametrize("manufacturer", [
        "Mercedes-Benz", "Nissan", "Waymo"])
    def test_realized_modalities(self, corpus, manufacturer):
        records = _records_for(corpus, manufacturer)
        mixture = modality_mixture(manufacturer)
        total = len(records)
        for modality, weight in mixture.weights.items():
            observed = sum(1 for r in records
                           if r.modality is modality) / total
            assert observed == pytest.approx(weight, abs=0.05), \
                f"{manufacturer}/{modality}"


class TestReactionTimes:
    def test_waymo_reaction_distribution(self, corpus):
        model = reaction_time_model("Waymo")
        times = np.array([r.reaction_time_s
                          for r in _records_for(corpus, "Waymo")])
        # The drift tilts the distribution slightly; a loose KS bound
        # still catches wrong shapes or scales outright.
        ks = sstats.kstest(
            times, "exponweib",
            args=(model.a, model.c, 0.0, model.scale)).statistic
        assert ks < 0.15

    def test_reaction_times_rounded_and_positive(self, corpus):
        for manufacturer in ("Nissan", "Delphi", "Tesla"):
            times = [r.reaction_time_s
                     for r in _records_for(corpus, manufacturer)]
            assert all(t > 0 for t in times)
            assert all(round(t, 2) == t for t in times)


class TestRoadTypes:
    def test_road_exposure_followed(self, corpus):
        records = [r for r in corpus.truth_disengagements()
                   if r.road_type is not None]
        total = len(records)
        assert total > 3000
        for road, share in ROAD_TYPE_SHARES.items():
            observed = sum(1 for r in records
                           if r.road_type == str(road)) / total
            assert observed == pytest.approx(share, abs=0.03), road


class TestAccidentSpeeds:
    def test_speeds_follow_truncated_exponentials(self, corpus):
        accidents = corpus.truth_accidents()
        av = np.array([a.av_speed_mph for a in accidents])
        assert av.max() <= SPEED_MODEL.max_av_speed
        # With 42 samples, compare means loosely against the
        # (truncated) exponential scale.
        assert av.mean() == pytest.approx(SPEED_MODEL.av_scale,
                                          rel=0.6)

    def test_relative_speed_headline(self, corpus):
        accidents = corpus.truth_accidents()
        relative = [a.relative_speed_mph for a in accidents
                    if a.relative_speed_mph is not None]
        below = sum(1 for s in relative if s < 10.0) / len(relative)
        assert below > 0.7  # paper: >80%, small-sample slack


class TestSeedIndependence:
    def test_manufacturer_streams_are_independent(self):
        # Adding a manufacturer must not change another's draws.
        from repro.synth.dataset import generate_corpus

        solo = generate_corpus(seed=77, manufacturers=["Nissan"])
        pair = generate_corpus(seed=77,
                               manufacturers=["Nissan", "Tesla"])
        solo_texts = [r.description
                      for r in solo.truth_disengagements()]
        pair_texts = [r.description
                      for r in pair.truth_disengagements()
                      if r.manufacturer == "Nissan"]
        assert solo_texts == pair_texts
