"""Benchmark fixtures.

The full pipeline runs once per benchmark session; each ablation or
extension bench times its subject, asserts a design choice, and writes
its report to ``benchmarks/output/``.  Paper numbers are checked by
``tests/test_fidelity.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipeline import PipelineConfig, run_pipeline
from repro.rng import DEFAULT_SEED

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def pipeline_result():
    """The canonical seed-2018 pipeline run."""
    return run_pipeline(PipelineConfig(seed=DEFAULT_SEED))


@pytest.fixture(scope="session")
def db(pipeline_result):
    """The consolidated failure database."""
    return pipeline_result.database


@pytest.fixture(scope="session")
def exhibit_dir():
    """Directory collecting the rendered exhibits."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def write_exhibit(exhibit_dir: Path, name: str, text: str) -> None:
    """Persist one rendered exhibit."""
    (exhibit_dir / f"{name}.txt").write_text(text + "\n",
                                             encoding="utf-8")
