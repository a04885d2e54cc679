"""Fleet reliability deep-dive: the analysis a manufacturer's
reliability team would run on its own DMV filing.

For each manufacturer: DPM distribution, burn-in trend (is DPM falling
with miles?), projected miles to the human accident rate via the
Kalra-Paddock model, and the per-mission comparison.

Usage::

    python examples/fleet_reliability_report.py [manufacturer]
"""

import sys

from repro.analysis.apm import apm_summary, first_principles_apm
from repro.analysis.dpm import manufacturer_dpm_summary
from repro.analysis.maturity import all_assessments
from repro.analysis.missions import mission_comparison
from repro.analysis.significance import (
    miles_to_demonstrate,
    rate_upper_bound,
)
from repro.api import PipelineConfig, run_pipeline
from repro.calibration.baselines import HUMAN_ACCIDENTS_PER_MILE

ANALYSIS = ["Mercedes-Benz", "Volkswagen", "Waymo", "Delphi", "Nissan",
            "Bosch", "GMCruise", "Tesla"]


def main() -> None:
    wanted = sys.argv[1:] or ANALYSIS
    result = run_pipeline(PipelineConfig(seed=2018))
    db = result.database

    summaries = manufacturer_dpm_summary(db, ANALYSIS)
    assessments = all_assessments(db, ANALYSIS)
    apm = apm_summary(db, ANALYSIS)
    missions = mission_comparison(db, ANALYSIS)
    direct_apm = first_principles_apm(db)

    print("The Kalra-Paddock bar: demonstrating the human accident "
          f"rate ({HUMAN_ACCIDENTS_PER_MILE:g}/mile) at 95% confidence "
          f"takes {miles_to_demonstrate(HUMAN_ACCIDENTS_PER_MILE):,.0f} "
          "failure-free miles.")
    print()

    for name in wanted:
        if name not in summaries:
            print(f"{name}: not in the analysis set")
            continue
        summary = summaries[name]
        print(f"=== {name} ===")
        print(f"  miles driven: "
              f"{db.miles_by_manufacturer().get(name, 0):,.0f}")
        print(f"  DPM per {summary.unit}: median "
              f"{summary.median_dpm:.4g}, aggregate "
              f"{summary.aggregate_dpm:.4g}")
        assessment = assessments.get(name)
        if assessment is not None and assessment.dpm_fit is not None:
            trend = ("improving" if assessment.improving
                     else "NOT improving")
            print(f"  burn-in: log-log DPM slope "
                  f"{assessment.dpm_fit.slope:+.3f} ({trend}; "
                  f"mature={assessment.mature})")
        row = apm.get(name)
        if row is not None and row.apm is not None:
            print(f"  APM (median DPM / DPA): {row.apm:.3g} "
                  f"= {row.relative_to_human:.0f}x the human rate")
        if name in direct_apm:
            miles = db.miles_by_manufacturer()[name]
            accidents = len(
                db.accidents_by_manufacturer().get(name, []))
            upper = rate_upper_bound(miles, accidents)
            print(f"  first-principles APM: {direct_apm[name]:.3g} "
                  f"(95% upper bound {upper:.3g})")
        mission = missions.get(name)
        if mission is not None:
            print(f"  per mission: {mission.vs_airline:.2f}x airlines, "
                  f"{mission.vs_surgical_robot:.3f}x surgical robots")
        print()


if __name__ == "__main__":
    main()
