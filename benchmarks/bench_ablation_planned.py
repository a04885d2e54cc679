"""Ablation: planned-test disengagements kept vs. dropped.

The paper keeps Bosch's and GM Cruise's planned-test disengagements
(footnote 3 argues they occurred naturally).  This bench quantifies
the alternative: dropping them removes ~44% of all disengagements and
shifts the pooled category shares, but leaves the headline
conclusions (ML/Design dominance, negative DPM-vs-miles correlation)
standing.
"""

from repro.analysis.categories import overall_category_shares
from repro.analysis.maturity import pooled_dpm_correlation
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import run_pipeline

from conftest import write_exhibit

ANALYSIS = ["Mercedes-Benz", "Volkswagen", "Waymo", "Delphi", "Nissan",
            "Bosch", "GMCruise", "Tesla"]


def _run(drop_planned: bool):
    result = run_pipeline(PipelineConfig(
        seed=2018, drop_planned=drop_planned))
    db = result.database
    present = [n for n in ANALYSIS if n in db.manufacturers()
               and db.monthly_disengagements(n)]
    return {
        "records": len(db.disengagements),
        "shares": overall_category_shares(db),
        "pooled_r": pooled_dpm_correlation(db, present).r,
    }


def test_ablation_planned(benchmark, exhibit_dir):
    kept = _run(False)
    dropped = benchmark.pedantic(
        _run, args=(True,), rounds=1, iterations=1)

    lines = ["Ablation: planned-test disengagements", ""]
    for label, stats in (("kept (paper default)", kept),
                         ("dropped", dropped)):
        shares = stats["shares"]
        lines.append(
            f"{label:22s} records={stats['records']:5d}  "
            f"ML/Design={shares['ml_design']:.2%}  "
            f"perception={shares['perception']:.2%}  "
            f"pooled r={stats['pooled_r']:.3f}")
    write_exhibit(exhibit_dir, "ablation_planned", "\n".join(lines))

    # Dropping the planned campaigns removes Bosch + GMCruise
    # (~2,350 records)...
    assert kept["records"] - dropped["records"] > 2000
    # ...but the headline conclusions survive.
    assert dropped["shares"]["ml_design"] > 0.5
    assert dropped["pooled_r"] < -0.7
