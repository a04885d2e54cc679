"""Regenerate EXPERIMENTS.md from the paper-fidelity rows.

Usage::

    python scripts/generate_experiments_md.py [seed]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import PipelineConfig, run_pipeline
from repro.reporting.fidelity import render_markdown


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2018
    result = run_pipeline(PipelineConfig(seed=seed))
    Path("EXPERIMENTS.md").write_text(render_markdown(result, seed),
                                      encoding="utf-8")
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
