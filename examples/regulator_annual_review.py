"""A regulator's annual review: what a DMV analyst would run when the
year's disengagement and accident reports arrive.

Combines the reporting census (who reports what), the DPM trend
tests, and the full Markdown study report.

Usage::

    python examples/regulator_annual_review.py [output.md]
"""

import sys

from repro import PipelineConfig, run_pipeline
from repro.analysis.temporal import dpm_trend_test
from repro.errors import InsufficientDataError
from repro.reporting import run_experiment
from repro.reporting.summary import render_study_report

ANALYSIS = ["Mercedes-Benz", "Volkswagen", "Waymo", "Delphi", "Nissan",
            "Bosch", "GMCruise", "Tesla"]


def main() -> None:
    print("Processing the year's filings...")
    result = run_pipeline(PipelineConfig(seed=2018))
    db = result.database
    diagnostics = result.diagnostics

    print(f"\nIngest health: {len(db.disengagements)} disengagements, "
          f"{len(db.accidents)} accidents; "
          f"{diagnostics.parse.unparsed_lines} unparsed lines; "
          f"{diagnostics.ocr.fallback_pages} pages needed manual "
          "transcription.")

    print("\nWho reports what (share of records with each field):")
    print(run_experiment("ext-census", db).render())

    print("\nDPM trend tests (Mann-Kendall over monthly DPM):")
    for name in ANALYSIS:
        try:
            trend = dpm_trend_test(db, name).direction
        except InsufficientDataError:
            trend = "?"
        print(f"  {name:15s} {trend}")

    if len(sys.argv) > 1:
        path = sys.argv[1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_study_report(db))
        print(f"\nFull Markdown report written to {path}")


if __name__ == "__main__":
    main()
