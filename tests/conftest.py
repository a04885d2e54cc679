"""Shared fixtures.

The full corpus + pipeline run is expensive (~6 s), so it is built
once per session; module tests that only need a handful of records use
the small two-manufacturer corpus instead.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

import pytest

from repro.pipeline import PipelineConfig, process_corpus
from repro.reporting.fidelity import PANEL_SEEDS, evaluate
from repro.synth import generate_corpus

FULL_SEED = 2018
SMALL_SEED = 7


@pytest.fixture(scope="session")
def corpus():
    """The full calibrated corpus (all twelve manufacturers)."""
    return generate_corpus(seed=FULL_SEED)


@pytest.fixture(scope="session")
def pipeline_result(corpus):
    """The full end-to-end pipeline run over the session corpus."""
    return process_corpus(corpus, PipelineConfig(seed=FULL_SEED))


@pytest.fixture(scope="session")
def db(pipeline_result):
    """The consolidated failure database of the session run."""
    return pipeline_result.database


class PaperRows:
    """The paper-fidelity rows measured once against one database."""

    def __init__(self, db):
        self.outcomes = {outcome.row.id: outcome
                         for outcome in evaluate(db)}

    def check(self, *patterns: str) -> None:
        """Assert every row whose id matches one of ``patterns``."""
        for pattern in patterns:
            ids = [i for i in self.outcomes if fnmatchcase(i, pattern)]
            assert ids, f"no fidelity row matches {pattern!r}"
            failures = {i: self.outcomes[i].problems() for i in ids
                        if self.outcomes[i].problems()}
            assert not failures, failures


@pytest.fixture(scope="session")
def paper_rows(db):
    """Every paper-fidelity row measured against the session database."""
    return PaperRows(db)


@pytest.fixture(scope="session")
def panel(paper_rows):
    """Every paper-fidelity row measured at each seed of the panel
    (seed 2018's from the session database)."""
    return {seed: (list(paper_rows.outcomes.values()) if seed == FULL_SEED
                   else evaluate(process_corpus(
                       generate_corpus(seed=seed),
                       PipelineConfig(seed=seed)).database))
            for seed in PANEL_SEEDS}


@pytest.fixture(scope="session")
def small_corpus():
    """A fast two-manufacturer corpus for unit tests."""
    return generate_corpus(
        seed=SMALL_SEED, manufacturers=["Nissan", "Volkswagen"])


@pytest.fixture(scope="session")
def small_db(small_corpus):
    """Pipeline output over the small corpus (OCR disabled: fast and
    deterministic for parser-level assertions)."""
    config = PipelineConfig(seed=SMALL_SEED, ocr_enabled=False,
                            dictionary_mode="seed")
    return process_corpus(small_corpus, config).database
