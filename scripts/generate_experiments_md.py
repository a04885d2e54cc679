"""Regenerate EXPERIMENTS.md from the paper-fidelity rows, measured at
the given seed and at every seed of the panel.

Usage::

    python scripts/generate_experiments_md.py [seed]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import PipelineConfig, run_pipeline
from repro.reporting.fidelity import PANEL_SEEDS, evaluate, render_markdown


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2018
    result = run_pipeline(PipelineConfig(seed=seed))
    panel = {other: evaluate(
        result.database if other == seed
        else run_pipeline(PipelineConfig(seed=other)).database)
        for other in PANEL_SEEDS}
    Path("EXPERIMENTS.md").write_text(
        render_markdown(result, seed, panel), encoding="utf-8")
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
