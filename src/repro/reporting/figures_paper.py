"""Generators for Figures 4-12, computed from the failure database."""

from __future__ import annotations

from ..analysis.alertness import (
    OUTLIER_THRESHOLD_S,
    alertness_summary,
    fit_reaction_times,
    overall_mean_reaction_time,
)
from ..analysis.apm import collision_speed_distributions
from ..analysis.categories import tag_fractions
from ..analysis.dpm import (
    manufacturer_dpm_summary,
    monthly_series,
    yearly_dpm_distributions,
)
from ..analysis.fitting import histogram_density
from ..analysis.maturity import (
    all_assessments,
    cumulative_curve,
    pooled_dpm_correlation,
)
from ..analysis.stats import boxplot_stats
from ..errors import InsufficientDataError
from ..pipeline.store import FailureDatabase
from .figures import BoxSeries, FigureData, Series
from .tables_paper import ANALYSIS_ORDER

#: Fig. 4/7 manufacturer order (top to bottom in the paper).
FIG4_ORDER = ("Mercedes-Benz", "Volkswagen", "Waymo", "Delphi",
              "Nissan", "Bosch", "GMCruise", "Tesla")


def _analysis_names(db: FailureDatabase) -> list[str]:
    present = set(db.manufacturers())
    return [name for name in ANALYSIS_ORDER if name in present]


def figure2(db: FailureDatabase | None = None) -> FigureData:
    """Fig. 2: the two accident scenarios as event chains.

    Static case-study content; ``db`` accepted for registry
    uniformity.
    """
    del db
    from ..casestudies import CASE_STUDIES

    figure = FigureData(
        figure_id="Figure 2",
        title="Accident scenarios (Section II case studies)",
        xlabel="time (s)", ylabel="actor")
    for case in CASE_STUDIES:
        figure.annotations.append(f"{case.name} — {case.location}")
        for event in case.events:
            figure.annotations.append(
                f"  t={event.at_seconds:4.1f}s  {event.actor:20s} "
                f"{event.action}")
        figure.notes.append(
            f"{case.name}: tags={', '.join(t.display_name for t in case.tags)}; "
            f"loop={case.control_loop}; legally at fault: "
            f"{case.at_fault_legally}")
    return figure


def figure3(db: FailureDatabase | None = None) -> FigureData:
    """Fig. 3: the hierarchical control structure.

    Rendered as a text outline plus the DOT form; ``db``, when given,
    highlights components by observed failure counts.
    """
    from ..stpa.mapping import overlay_failures
    from ..stpa.render import to_dot, to_outline
    from ..stpa.structure import build_control_structure

    structure = build_control_structure()
    figure = FigureData(
        figure_id="Figure 3",
        title="AV hierarchical control structure (STPA)")
    highlight: dict[str, int] = {}
    if db is not None and db.disengagements:
        overlay = overlay_failures(db.disengagements)
        highlight = dict(overlay.by_component)
        for component, count in overlay.by_component.most_common():
            figure.annotations.append(
                f"{component}: {count} observed failures")
    figure.notes.append(to_outline(structure))
    figure.notes.append(to_dot(structure, highlight=highlight))
    return figure


def figure4(db: FailureDatabase) -> FigureData:
    """Fig. 4: distribution of DPM per car across manufacturers."""
    figure = FigureData(
        figure_id="Figure 4",
        title="Distributions of DPM per car across manufacturers",
        xlabel="manufacturer", ylabel="disengagements / mile")
    summaries = manufacturer_dpm_summary(db, _analysis_names(db))
    for name in FIG4_ORDER:
        summary = summaries.get(name)
        if summary is None:
            continue
        figure.boxes.append(BoxSeries(label=name, box=summary.box))
        figure.notes.append(
            f"{name}: unit={summary.unit}, aggregate DPM="
            f"{summary.aggregate_dpm:.3g}")
    return figure


def figure5(db: FailureDatabase) -> FigureData:
    """Fig. 5: cumulative disengagements vs cumulative miles (log-log)
    with linear regression fits."""
    figure = FigureData(
        figure_id="Figure 5",
        title=("Disengagements per cumulative miles driven "
               "(log-log, linear fits)"),
        xlabel="cumulative distance (miles)",
        ylabel="cumulative disengagements")
    assessments = all_assessments(db, _analysis_names(db))
    for name in _analysis_names(db):
        assessment = assessments.get(name)
        if assessment is None:
            continue
        miles, events = cumulative_curve(db, name)
        fit = assessment.cumulative_fit
        figure.series.append(Series(
            name=name, x=miles, y=[float(e) for e in events],
            annotation=(f"loglog slope={fit.slope:.3f} "
                        f"r2={fit.r_squared:.3f}")))
    return figure


def figure6(db: FailureDatabase) -> FigureData:
    """Fig. 6: fraction of disengagements per fault tag (stacked)."""
    figure = FigureData(
        figure_id="Figure 6",
        title="Fault tags that led to disengagements, by manufacturer",
        xlabel="manufacturer", ylabel="fraction of disengagements")
    fractions = tag_fractions(
        db, ["Delphi", "Nissan", "Tesla", "Volkswagen", "Waymo"])
    for name, tags in fractions.items():
        for tag_name, fraction in sorted(
                tags.items(), key=lambda kv: -kv[1]):
            figure.annotations.append(
                f"{name}: {tag_name} = {fraction:.3f}")
    return figure


def figure7(db: FailureDatabase) -> FigureData:
    """Fig. 7: time evolution (by year) of DPM distributions."""
    figure = FigureData(
        figure_id="Figure 7",
        title="Yearly evolution of per-car DPM distributions",
        xlabel="disengagements / mile", ylabel="manufacturer x year")
    yearly = yearly_dpm_distributions(db, _analysis_names(db))
    for name in FIG4_ORDER:
        per_year = yearly.get(name)
        if not per_year:
            continue
        for year, values in per_year.items():
            positive = [v for v in values]
            if not positive:
                continue
            figure.boxes.append(BoxSeries(
                label=f"{name} {year}", box=boxplot_stats(positive)))
    return figure


def figure8(db: FailureDatabase) -> FigureData:
    """Fig. 8: pooled log(DPM) vs log(cumulative miles) correlation."""
    figure = FigureData(
        figure_id="Figure 8",
        title="log(DPM) vs log(cumulative miles), pooled",
        xlabel="log(cumulative distance)",
        ylabel="log(disengagements / mile)")
    points_x, points_y = [], []
    for name in _analysis_names(db):
        for point in monthly_series(db, name):
            if point.miles > 0 and point.dpm > 0:
                points_x.append(point.cumulative_miles)
                points_y.append(point.dpm)
    correlation = pooled_dpm_correlation(db, _analysis_names(db))
    figure.series.append(Series(
        name="pooled", x=points_x, y=points_y,
        annotation=(f"pearson r={correlation.r:.3f} "
                    f"p={correlation.p_value:.2e} n={correlation.n}")))
    figure.annotations.append(
        f"pearsonr = {correlation.r:.2f}; p = {correlation.p_value:.1e}")
    return figure


def figure9(db: FailureDatabase) -> FigureData:
    """Fig. 9: DPM vs cumulative miles per manufacturer with fits."""
    figure = FigureData(
        figure_id="Figure 9",
        title="Evolution of DPM with cumulative autonomous miles",
        xlabel="cumulative distance (miles)",
        ylabel="disengagements / mile")
    assessments = all_assessments(db, _analysis_names(db))
    for name in _analysis_names(db):
        assessment = assessments.get(name)
        if assessment is None:
            continue
        points = [(p.cumulative_miles, p.dpm)
                  for p in assessment.series if p.dpm > 0]
        if not points:
            continue
        annotation = ""
        if assessment.dpm_fit is not None:
            annotation = (f"loglog slope={assessment.dpm_fit.slope:.3f} "
                          f"r2={assessment.dpm_fit.r_squared:.3f}")
        figure.series.append(Series(
            name=name,
            x=[p[0] for p in points],
            y=[p[1] for p in points],
            annotation=annotation))
    return figure


def figure10(db: FailureDatabase) -> FigureData:
    """Fig. 10: driver reaction-time distributions per manufacturer."""
    figure = FigureData(
        figure_id="Figure 10",
        title="Driver reaction times at disengagement",
        xlabel="manufacturer", ylabel="reaction time (s)")
    summaries = alertness_summary(db)
    for name in ("Nissan", "Tesla", "Delphi", "Mercedes-Benz",
                 "Volkswagen", "Waymo"):
        summary = summaries.get(name)
        if summary is None:
            continue
        figure.boxes.append(BoxSeries(label=name, box=summary.box))
        if summary.outliers:
            figure.notes.append(
                f"{name}: {summary.outliers} outlier(s) above "
                f"{OUTLIER_THRESHOLD_S:g}s (kept in box, excluded "
                "from fits)")
    figure.annotations.append(
        f"overall mean reaction time = "
        f"{overall_mean_reaction_time(db):.2f} s")
    return figure


def figure11(db: FailureDatabase) -> FigureData:
    """Fig. 11: exponentiated-Weibull fits of reaction times
    (Mercedes-Benz and Waymo panels)."""
    figure = FigureData(
        figure_id="Figure 11",
        title="Reaction-time distributions with Weibull fits",
        xlabel="reaction time (s)", ylabel="PDF")
    for name in ("Mercedes-Benz", "Waymo"):
        times = [t for t in db.reaction_times(name)
                 if t <= OUTLIER_THRESHOLD_S]
        if len(times) < 8:
            continue
        fit = fit_reaction_times(db, name)
        centers, densities = histogram_density(times, bins=12)
        figure.series.append(Series(
            name=f"{name} data", x=list(centers), y=list(densities)))
        figure.series.append(Series(
            name=f"{name} fit",
            x=list(centers),
            y=[float(v) for v in fit.pdf(centers)],
            annotation=(f"exponweib a={fit.a:.2f} c={fit.c:.2f} "
                        f"scale={fit.scale:.2f} ks={fit.ks_statistic:.3f}")))
    return figure


def figure12(db: FailureDatabase) -> FigureData:
    """Fig. 12: collision-speed distributions with exponential fits."""
    figure = FigureData(
        figure_id="Figure 12",
        title="Vehicle speeds in reported accidents",
        xlabel="speed (mph)", ylabel="PDF")
    try:
        distributions = collision_speed_distributions(db)
    except InsufficientDataError:
        figure.notes.append("no accident speed data available")
        return figure
    panels = (
        ("AV speed", distributions.av_speeds, distributions.av_fit),
        ("MV speed", distributions.other_speeds, distributions.other_fit),
        ("relative speed", distributions.relative_speeds,
         distributions.relative_fit),
    )
    for label, values, fit in panels:
        centers, densities = histogram_density(values, bins=10)
        figure.series.append(Series(
            name=f"{label} data", x=list(centers), y=list(densities)))
        figure.series.append(Series(
            name=f"{label} fit", x=list(centers),
            y=[float(v) for v in fit.pdf(centers)],
            annotation=f"exponential scale={fit.scale:.2f} mph "
                       f"ks={fit.ks_statistic:.3f}"))
    below10 = distributions.fraction_relative_below(10.0)
    figure.annotations.append(
        f"fraction of accidents with relative speed < 10 mph: "
        f"{below10:.2f}")
    return figure
