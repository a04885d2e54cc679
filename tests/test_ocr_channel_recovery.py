"""Statistical recovery tests through the full OCR channel.

Render batches of records, corrupt them at controlled quality levels,
run the corrector, and assert recovery-rate floors per format.  This
pins down the end-to-end robustness budget the pipeline relies on.
"""

from datetime import date

import numpy as np
import pytest

from repro.ocr.confusion import ConfusionModel
from repro.ocr.correction import OcrCorrector
from repro.parsing.formats.benz import BenzParser
from repro.parsing.formats.delphi import DelphiParser
from repro.parsing.formats.nissan import NissanParser
from repro.parsing.formats.volkswagen import VolkswagenParser
from repro.parsing.formats.waymo import WaymoParser
from repro.parsing.records import DisengagementRecord
from repro.synth.reports import _ROW_RENDERERS
from repro.taxonomy import Modality

BATCH = 120


def _records(manufacturer: str, rng: np.random.Generator):
    descriptions = [
        "Software module froze",
        "The AV didn't see the lead vehicle",
        "Planner failed to anticipate the other driver's behavior",
        "Disengage for a construction zone",
        "LIDAR failed to localize in time",
        "Takeover-Request — watchdog error",
    ]
    for i in range(BATCH):
        day = int(rng.integers(1, 28))
        yield DisengagementRecord(
            manufacturer=manufacturer,
            month="2015-06",
            event_date=date(2015, 6, day),
            time_of_day=(int(rng.integers(0, 24)),
                         int(rng.integers(0, 60)),
                         int(rng.integers(0, 60))),
            vehicle_id=("Leaf #1 (Alfa)" if manufacturer == "Nissan"
                        else "AV-007" if manufacturer == "Waymo"
                        else "...XK42P"),
            modality=Modality.MANUAL,
            road_type="highway",
            weather="Sunny/Dry",
            reaction_time_s=round(float(rng.uniform(0.2, 3.0)), 2),
            description=descriptions[i % len(descriptions)],
        )


def _recovery_rate(manufacturer: str, parser, quality: float,
                   seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    channel = ConfusionModel()
    corrector = OcrCorrector()
    renderer = _ROW_RENDERERS[manufacturer]
    recovered = 0
    total = 0
    for record in _records(manufacturer, rng):
        line = renderer(record)
        noisy, _ = channel.corrupt_line(line, quality, rng)
        repaired = corrector.correct_line(noisy)
        total += 1
        if parser.parse_row(repaired) is not None:
            recovered += 1
    return recovered / total


CASES = [
    ("Nissan", NissanParser()),
    ("Waymo", WaymoParser()),
    ("Volkswagen", VolkswagenParser()),
    ("Mercedes-Benz", BenzParser()),
    ("Delphi", DelphiParser()),
]


@pytest.mark.parametrize("manufacturer,parser", CASES,
                         ids=[c[0] for c in CASES])
def test_high_quality_recovery_near_total(manufacturer, parser):
    rate = _recovery_rate(manufacturer, parser, quality=0.97)
    assert rate >= 0.97, f"{manufacturer}: {rate:.2%}"


@pytest.mark.parametrize("manufacturer,parser", CASES,
                         ids=[c[0] for c in CASES])
def test_moderate_quality_recovery(manufacturer, parser):
    rate = _recovery_rate(manufacturer, parser, quality=0.85)
    assert rate >= 0.80, f"{manufacturer}: {rate:.2%}"


@pytest.mark.parametrize("manufacturer,parser", CASES,
                         ids=[c[0] for c in CASES])
def test_recovery_degrades_monotonically(manufacturer, parser):
    good = _recovery_rate(manufacturer, parser, quality=0.97)
    bad = _recovery_rate(manufacturer, parser, quality=0.45)
    assert good >= bad


def test_terrible_quality_is_why_fallback_exists():
    # Row *structure* survives even terrible scans (separators and
    # digits are robust), but the narrative text does not: tagging the
    # recovered descriptions collapses, which is why low-confidence
    # pages go to manual transcription instead of the parser.
    from repro.nlp.dictionary import FailureDictionary
    from repro.nlp.tagger import VotingTagger

    rng = np.random.default_rng(1)
    channel = ConfusionModel()
    corrector = OcrCorrector()
    tagger = VotingTagger(FailureDictionary.from_seeds())
    parser = NissanParser()
    renderer = _ROW_RENDERERS["Nissan"]

    agree = 0
    total = 0
    for record in _records("Nissan", rng):
        clean_tag = tagger.tag(record.description).tag
        noisy, _ = channel.corrupt_line(renderer(record), 0.2, rng)
        parsed = parser.parse_row(corrector.correct_line(noisy))
        if parsed is None:
            continue
        total += 1
        if tagger.tag(parsed.description).tag is clean_tag:
            agree += 1
    assert total > 0.8 * BATCH        # structure mostly survives...
    assert agree / total < 0.85       # ...but tags no longer do
