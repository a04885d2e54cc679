"""Driver alertness and the action window (paper Question 4).

Analyzes reaction-time distributions, fits the exponentiated Weibull
of Fig. 11, checks the correlation between alertness and miles driven,
and computes end-to-end action windows against stopping-distance
style scenarios.

Usage::

    python examples/reaction_time_safety.py
"""

from repro.analysis.alertness import (
    action_window,
    alertness_summary,
    fit_reaction_times,
    human_baseline,
    overall_mean_reaction_time,
    reaction_time_mileage_correlation,
)
from repro.api import PipelineConfig, run_pipeline

#: Illustrative fault-detection latencies (seconds) for the action
#: window discussion in Sec. V-A4.
DETECTION_SCENARIOS = {
    "sensor dropout alarm": 0.2,
    "perception miss discovered via driver scan": 1.5,
    "planner hesitation noticed by driver": 0.8,
}


def main() -> None:
    result = run_pipeline(PipelineConfig(seed=2018))
    db = result.database

    mean = overall_mean_reaction_time(db)
    baseline = human_baseline()
    print(f"Mean AV test-driver reaction time: {mean:.2f} s")
    print(f"Non-AV braking reaction time [35]:  "
          f"{baseline['non_av_braking_s']:.2f} s")
    print(f"Assumed ordinary-driver response:   "
          f"{baseline['assumed_human_s']:.2f} s")
    print("=> AV safety drivers must stay as alert as ordinary "
          "drivers.\n")

    print("Per-manufacturer reaction-time distributions:")
    for name, summary in alertness_summary(db).items():
        box = summary.box
        outliers = (f", {summary.outliers} outlier(s)"
                    if summary.outliers else "")
        print(f"  {name:15s} median {box.median:5.2f} s  "
              f"q3 {box.q3:5.2f} s  max {box.maximum:8.1f} s"
              f"{outliers}")

    print("\nExponentiated-Weibull fits (Fig. 11):")
    for name in ("Mercedes-Benz", "Waymo"):
        fit = fit_reaction_times(db, name)
        print(f"  {name:15s} a={fit.a:.2f} c={fit.c:.2f} "
              f"scale={fit.scale:.2f} s  mean={fit.mean:.2f} s  "
              f"KS={fit.ks_statistic:.3f}")

    print("\nDoes alertness decay as the system improves?")
    for name in ("Waymo", "Mercedes-Benz"):
        correlation = reaction_time_mileage_correlation(db, name)
        verdict = ("significant" if correlation.significant(0.01)
                   else "not significant")
        print(f"  {name:15s} r={correlation.r:+.2f} "
              f"(p={correlation.p_value:.3g}, {verdict})")

    print("\nAction windows (detection + reaction) per scenario:")
    for scenario, detection in DETECTION_SCENARIOS.items():
        window = action_window(detection, mean)
        at_25mph = window * 25 * 1.467  # feet travelled at 25 mph
        print(f"  {scenario:45s} {window:4.2f} s "
              f"(~{at_25mph:.0f} ft at 25 mph)")


if __name__ == "__main__":
    main()
