"""Full study report: every exhibit plus headline claims, as Markdown.

``render_study_report(db)`` produces the whole Section V narrative
from a failure database — the artifact a downstream user would attach
to their own DMV filing analysis.
"""

from __future__ import annotations

from ..analysis.alertness import (
    alertness_summary,
    overall_mean_reaction_time,
)
from ..analysis.apm import (
    collision_speed_distributions,
    disengagements_per_accident_overall,
    miles_per_disengagement,
)
from ..analysis.categories import automatic_share, overall_category_shares
from ..analysis.dpm import manufacturer_dpm_summary
from ..analysis.maturity import all_assessments, pooled_dpm_correlation
from ..analysis.missions import mission_comparison
from ..analysis.stats import left_sum
from ..pipeline.resilience import Quarantine, RunHealth
from ..pipeline.store import FailureDatabase
from . import figures_paper, tables_paper
from .ascii_charts import bar_chart, box_panel, scatter
from .tables_paper import ANALYSIS_ORDER


def render_study_report(db: FailureDatabase,
                        include_charts: bool = True) -> str:
    """Render the full study as Markdown."""
    names = [n for n in ANALYSIS_ORDER if n in db.manufacturers()]
    out: list[str] = []
    w = out.append

    w("# AV Failure Study Report")
    w("")
    w(f"Database: {len(db.disengagements):,} disengagements, "
      f"{len(db.accidents)} accidents, "
      f"{db.total_miles:,.0f} autonomous miles across "
      f"{len(db.manufacturers())} manufacturers.")
    w("")

    w("## Headlines")
    w("")
    shares = overall_category_shares(db)
    if shares:
        w(f"- **{shares['ml_design']:.0%} of disengagements** trace to "
          "the machine-learning system "
          f"({shares['perception']:.0%} perception, "
          f"{shares['planner']:.0%} planning/control); "
          f"{shares['system']:.0%} to the computing system.")
    try:
        correlation = pooled_dpm_correlation(db, names)
        w(f"- DPM falls with cumulative miles: pooled Pearson "
          f"r = {correlation.r:.2f} (p = {correlation.p_value:.1e}).")
    except Exception:
        pass
    try:
        w(f"- Mean driver reaction time "
          f"{overall_mean_reaction_time(db):.2f} s — drivers must stay "
          "as alert as in conventional vehicles.")
    except Exception:
        pass
    try:
        w(f"- One accident per "
          f"{disengagements_per_accident_overall(db):.0f} "
          "disengagements; "
          f"{miles_per_disengagement(db):.0f} miles per disengagement "
          "on average.")
    except Exception:
        pass
    w(f"- {automatic_share(db):.0%} of disengagements (average across "
      "manufacturers) are machine-initiated.")
    w("")

    w("## Disengagements per mile")
    w("")
    summaries = manufacturer_dpm_summary(db, names)
    if include_charts and summaries:
        w("```")
        w(box_panel({name: s.box for name, s in summaries.items()},
                    log=True))
        w("```")
        w("")
    w("| manufacturer | unit | median DPM | aggregate DPM |")
    w("|---|---|---|---|")
    for name, summary in summaries.items():
        w(f"| {name} | {summary.unit} | {summary.median_dpm:.3e} | "
          f"{summary.aggregate_dpm:.3e} |")
    w("")

    w("## Burn-in (maturity)")
    w("")
    w("| manufacturer | DPM trend slope | improving | mature |")
    w("|---|---|---|---|")
    for name, assessment in all_assessments(db, names).items():
        slope = (f"{assessment.dpm_fit.slope:+.3f}"
                 if assessment.dpm_fit else "-")
        w(f"| {name} | {slope} | {assessment.improving} | "
          f"{assessment.mature} |")
    w("")
    if include_charts:
        points_x, points_y = [], []
        for name in names:
            from ..analysis.dpm import monthly_series
            for point in monthly_series(db, name):
                if point.miles > 0 and point.dpm > 0:
                    points_x.append(point.cumulative_miles)
                    points_y.append(point.dpm)
        if len(points_x) >= 2:
            w("log(DPM) vs log(cumulative miles):")
            w("")
            w("```")
            w(scatter(points_x, points_y, loglog=True))
            w("```")
            w("")

    w("## Accidents")
    w("")
    w("```")
    w(tables_paper.table6(db).render())
    w("```")
    w("")
    try:
        speeds = collision_speed_distributions(db)
        w(f"{speeds.fraction_relative_below(10.0):.0%} of accidents "
          "occurred below 10 mph relative speed (exponential scales: "
          f"AV {speeds.av_fit.scale:.1f} mph, other vehicle "
          f"{speeds.other_fit.scale:.1f} mph).")
        w("")
    except Exception:
        pass

    missions = mission_comparison(db, names)
    if missions:
        w("## Per-mission comparison")
        w("")
        if include_charts:
            w("```")
            w(bar_chart({name: m.vs_airline
                         for name, m in missions.items()},
                        value_format="{:.1f}x airline"))
            w("```")
            w("")

    alertness = alertness_summary(db)
    if alertness:
        w("## Driver alertness")
        w("")
        w("| manufacturer | median RT (s) | trimmed mean (s) | "
          "outliers |")
        w("|---|---|---|---|")
        for name, summary in alertness.items():
            w(f"| {name} | {summary.box.median:.2f} | "
              f"{summary.trimmed_mean:.2f} | {summary.outliers} |")
        w("")

    w("## Exhibits")
    w("")
    for experiment_id, generator in (
            ("Table VII", tables_paper.table7),
            ("Figure 8", figures_paper.figure8)):
        try:
            w("```")
            w(generator(db).render())
            w("```")
            w("")
        except Exception:
            continue
    return "\n".join(out)


def render_run_health(health: RunHealth,
                      quarantine: Quarantine | None = None) -> str:
    """Render the resilience layer's view of one run as text.

    Used by the CLI's ``health`` section after ``run``/``process``; a
    clean run renders a single reassuring line.
    """
    out: list[str] = []
    w = out.append
    if health.clean and not (quarantine and len(quarantine)):
        w("health:         clean (no errors, no degradations)")
        _render_checkpoint_health(health.checkpoint, w)
        return "\n".join(out)
    w(f"health:         {health.total_errors} error(s), "
      f"{health.total_degradations} degraded, "
      f"{health.total_quarantined} quarantined")
    for name, stage in sorted(health.stages.items()):
        if stage.errors == 0:
            continue
        w(f"  {name:12s} {stage.errors}/{stage.attempts} failed "
          f"({stage.error_rate:.1%}), "
          f"{stage.degradations} degraded, "
          f"{stage.quarantined} quarantined")
    if quarantine and len(quarantine):
        worst = quarantine.entries[:3]
        w(f"  quarantine:  {len(quarantine)} unit(s): "
          + ", ".join(f"{e.unit_id} [{e.error_type}]" for e in worst)
          + (" ..." if len(quarantine) > 3 else ""))
    for event in health.degradation_events[:5]:
        w(f"  degraded:    {event}")
    _render_checkpoint_health(health.checkpoint, w)
    return "\n".join(out)


def render_query_stats(stats: dict) -> str:
    """Render a query engine's statistics as text.

    ``stats`` is :meth:`repro.query.engine.QueryEngine.stats` output;
    the CLI prints this when ``repro serve`` shuts down.
    """
    index = stats.get("index", {})
    cache = stats.get("cache", {})
    out: list[str] = []
    w = out.append
    w(f"query engine:   db {stats.get('fingerprint', '')[:12]} — "
      f"{index.get('disengagements', 0):,} disengagements, "
      f"{index.get('accidents', 0):,} accidents, "
      f"{index.get('mileage_cells', 0):,} mileage cells across "
      f"{index.get('manufacturers', 0)} manufacturers")
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    w(f"  cache:       {lookups} lookup(s), "
      f"{cache.get('hits', 0)} hit(s) "
      f"({cache.get('hit_rate', 0.0):.1%}), "
      f"{cache.get('evictions', 0)} evicted, "
      f"{cache.get('size', 0)}/{cache.get('maxsize', 0)} resident")
    return "\n".join(out)


def _render_checkpoint_health(checkpoint, w) -> None:
    """Append the durability layer's view (silent when disabled)."""
    if not checkpoint.enabled:
        return
    line = (f"checkpoint:     {checkpoint.restored_units} unit(s) "
            f"restored, {checkpoint.recomputed_units} recomputed, "
            f"{checkpoint.artifacts_restored} artifact(s) restored")
    if checkpoint.corrupt_entries:
        line += (f", {checkpoint.corrupt_entries} corrupt "
                 "entr(y/ies) discarded")
    w(line)
    if checkpoint.stale:
        w(f"  stale:       checkpoint discarded "
          f"({checkpoint.stale_reason})")
    for note in checkpoint.notes[:5]:
        w(f"  durability:  {note}")


def render_trace_summary(rows: list[dict]) -> str:
    """Render a self-time table from aggregated trace rows.

    ``rows`` is :func:`repro.obs.trace.self_times` output (already sorted
    hottest-first); this is the body of the ``repro trace`` verb.
    """
    out: list[str] = []
    w = out.append
    w(f"{'name':<24s} {'kind':<6s} {'count':>6s} "
      f"{'total_s':>9s} {'self_s':>9s} {'errors':>6s}")
    for row in rows:
        w(f"{row['name']:<24s} {row['kind']:<6s} "
          f"{row['count']:>6d} {row['total_s']:>9.3f} "
          f"{row['self_s']:>9.3f} {row['errors']:>6d}")
    total_self = left_sum(row["self_s"] for row in rows)
    w(f"{'total':<24s} {'':<6s} {'':>6s} {'':>9s} "
      f"{total_self:>9.3f} {'':>6s}")
    return "\n".join(out)


def render_metrics_summary(metrics: dict) -> str:
    """Render a metrics snapshot as a compact text digest.

    ``metrics`` is :meth:`repro.obs.metrics.MetricsRegistry.to_dict` output
    (as stored on ``PipelineDiagnostics.metrics``); counters and
    gauges print their per-label values, histograms their count and
    mean.
    """
    out: list[str] = []
    w = out.append
    for name, data in sorted(metrics.items()):
        for series in data.get("series", []):
            labels = series.get("labels") or {}
            suffix = ("{" + ",".join(f"{k}={v}"
                                     for k, v in sorted(labels.items()))
                      + "}") if labels else ""
            if data.get("type") == "histogram":
                count = series.get("count", 0)
                mean = (series.get("sum", 0.0) / count) if count else 0.0
                w(f"  {name}{suffix}: {count} obs, "
                  f"mean {mean * 1000.0:.3f}ms")
            else:
                value = series.get("value", 0.0)
                rendered = (f"{int(value)}" if float(value).is_integer()
                            else f"{value:.3f}")
                w(f"  {name}{suffix}: {rendered}")
    if not out:
        return "metrics:        (no series recorded)"
    return "metrics:\n" + "\n".join(out)
