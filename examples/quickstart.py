"""Quickstart: run the full pipeline and print the headline results.

Usage::

    python examples/quickstart.py [seed]
"""

import sys

from repro.analysis.alertness import overall_mean_reaction_time
from repro.analysis.apm import disengagements_per_accident_overall
from repro.analysis.categories import overall_category_shares
from repro.analysis.maturity import pooled_dpm_correlation
from repro.api import PipelineConfig, run_pipeline
from repro.reporting.experiments import run_experiment


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2018
    print(f"Running the end-to-end pipeline (seed={seed})...")
    result = run_pipeline(PipelineConfig(seed=seed))
    db = result.database
    diagnostics = result.diagnostics

    print()
    print(f"Corpus processed: {len(db.disengagements)} disengagements, "
          f"{len(db.accidents)} accidents, "
          f"{db.total_miles:,.0f} autonomous miles")
    print(f"OCR: mean confidence {diagnostics.ocr.mean_confidence:.3f}, "
          f"{diagnostics.ocr.fallback_pages} pages manually transcribed")
    print(f"NLP: {diagnostics.dictionary_entries} dictionary entries, "
          f"tag accuracy {diagnostics.tagging.tag_accuracy:.2%} vs "
          "ground truth")

    print()
    print("Headline findings (paper values in brackets):")
    shares = overall_category_shares(db)
    print(f"  ML/Design share of disengagements: "
          f"{shares['ml_design']:.0%}  [64%]")
    print(f"  ... perception side: {shares['perception']:.0%}  [~44%]")
    print(f"  ... planner side:    {shares['planner']:.0%}  [~20%]")
    correlation = pooled_dpm_correlation(db)
    print(f"  Pearson r, log(DPM) vs log(cum. miles): "
          f"{correlation.r:.2f}  [-0.87]")
    print(f"  Mean driver reaction time: "
          f"{overall_mean_reaction_time(db):.2f} s  [0.85 s]")
    print(f"  Disengagements per accident: "
          f"{disengagements_per_accident_overall(db):.0f}  [~127]")

    print()
    print(run_experiment("table7", db).render())


if __name__ == "__main__":
    main()
