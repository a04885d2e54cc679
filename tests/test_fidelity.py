"""The paper-fidelity gate.

Every row of ``repro.reporting.fidelity`` is checked against the
seed-2018 session database, no row may hold at fewer seeds of the
panel than ``tests/fidelity_panel.json`` records, the checker itself
is checked against rows that must fail, and the committed
EXPERIMENTS.md must equal a fresh render of the same rows.
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.reporting.fidelity import (
    PANEL_SEEDS,
    ROWS,
    Abs,
    Outcome,
    Poisson,
    panel_holds,
    render_markdown,
)

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
#: Per row, the panel seeds it held at when the panel landed; a fix
#: raises a count here, nothing may lower one.
PANEL_BASELINE = Path(__file__).with_name("fidelity_panel.json")


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(paper_rows, row):
    outcome = paper_rows.outcomes[row.id]
    assert not outcome.problems(), outcome.problems()


def test_panel_holds_no_row_at_fewer_seeds(panel):
    baseline = json.loads(PANEL_BASELINE.read_text(encoding="utf-8"))
    assert baseline["seeds"] == list(PANEL_SEEDS)
    holds = panel_holds(panel)
    assert set(holds) == set(baseline["holds"]), (
        "every row needs a panel baseline")
    fallen = {row: f"{holds[row]} < {floor}"
              for row, floor in baseline["holds"].items()
              if holds[row] < floor}
    assert not fallen, fallen


def test_row_ids_are_unique():
    ids = [row.id for row in ROWS]
    assert len(set(ids)) == len(ids)


class TestChecker:
    def test_row_outside_its_tolerance_fails(self, paper_rows):
        outcome = paper_rows.outcomes["fig8-pooled-r"]
        moved = Outcome(outcome.row, outcome.measured + 0.1)
        assert moved.verdict == "FAIL"
        assert "outside" in moved.problems()[0]

    def test_scaled_waymo_median_dpm_fails(self, paper_rows):
        outcome = paper_rows.outcomes["table7-waymo-median-dpm"]
        assert Outcome(outcome.row, outcome.measured * 0.3).verdict == \
            "FAIL"

    def test_rate_gap_without_a_reason_fails(self, paper_rows):
        outcome = paper_rows.outcomes["table7-waymo-median-dpm"]
        assert outcome.gap and outcome.verdict == "gap"
        blank = Outcome(replace(outcome.row, reason=""), outcome.measured)
        assert blank.verdict == "FAIL"

    def test_gap_bound_inside_the_interval_fails(self, paper_rows):
        outcome = paper_rows.outcomes["table7-mercedes-benz-median-dpm"]
        assert not outcome.gap
        loose = replace(outcome.row, tolerance=Poisson(
            outcome.row.tolerance.events, gap=Abs(1.0)))
        assert Outcome(loose, outcome.measured).verdict == "FAIL"

    def test_poisson_half_width(self):
        assert Poisson(464).half_width == pytest.approx(0.091, abs=5e-4)
        assert Poisson(25).inside(1.39, 1.0)
        assert not Poisson(25).inside(1.40, 1.0)


_FITTED = {f"`{row.id}`" for row in ROWS if row.fitted}


def _mask_fits(markdown: str) -> str:
    """Blank what ``scipy.stats.exponweib.fit`` computes: its last
    digits may move with the scipy version."""
    lines = []
    for line in markdown.splitlines():
        cells = line.split(" | ")
        if cells[0].lstrip("| ") in _FITTED:
            cells[3] = "<fit>"
        lines.append(re.sub(r"exponweib\([^)]*\)", "exponweib(<fit>)",
                            " | ".join(cells)))
    return "\n".join(lines)


def test_experiments_md_is_current(pipeline_result, panel):
    committed = EXPERIMENTS_MD.read_text(encoding="utf-8")
    rendered = render_markdown(pipeline_result, 2018, panel)
    assert _mask_fits(rendered) == _mask_fits(committed), (
        "EXPERIMENTS.md is stale: run "
        "`python scripts/generate_experiments_md.py 2018`")
