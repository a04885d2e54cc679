"""Generators for Tables I-VIII, computed from the failure database."""

from __future__ import annotations

from ..analysis.apm import accident_summary, apm_summary
from ..analysis.categories import category_percentages, modality_percentages
from ..analysis.missions import mission_comparison
from ..analysis.stats import left_sum
from ..calibration.baselines import (
    AIRLINE_ACCIDENTS_PER_MISSION,
    HUMAN_ACCIDENTS_PER_MILE,
    SURGICAL_ROBOT_ACCIDENTS_PER_MISSION,
)
from ..calibration.fault_model import TABLE4_MANUFACTURERS
from ..calibration.manufacturers import MANUFACTURERS, PERIODS, ReportPeriod
from ..calibration.modality import TABLE5_MANUFACTURERS
from ..pipeline.store import FailureDatabase
from ..taxonomy import FaultTag, TAG_DEFINITIONS, category_of
from ..units import months_between
from .tables import Table

#: The analysis set, in the paper's Table VII order.
ANALYSIS_ORDER = ("Mercedes-Benz", "Volkswagen", "Waymo", "Delphi",
                  "Nissan", "Bosch", "GMCruise", "Tesla")

#: Table I's manufacturer order.
TABLE1_ORDER = ("Mercedes-Benz", "Bosch", "Delphi", "GMCruise", "Nissan",
                "Tesla", "Volkswagen", "Waymo", "Uber ATC", "Honda",
                "Ford", "BMW")


def _period_months(period: ReportPeriod) -> set[str]:
    return set(months_between(*PERIODS[period]))


def table1(db: FailureDatabase) -> Table:
    """Table I: fleet size, miles, disengagements, accidents per
    manufacturer and reporting period."""
    table = Table(
        title=("Table I: fleet size, autonomous miles, and failure "
               "incidents across manufacturers"),
        columns=["Manufacturer",
                 "Cars 15-16", "Miles 15-16", "Dis 15-16", "Acc 15-16",
                 "Cars 16-17", "Miles 16-17", "Dis 16-17", "Acc 16-17"])
    totals = {period: [0, 0.0, 0, 0] for period in ReportPeriod}
    for name in TABLE1_ORDER:
        if name not in db.manufacturers() and name in MANUFACTURERS:
            continue
        row: list = [name]
        for period in ReportPeriod:
            months = _period_months(period)
            cars = {cell.vehicle_id for cell in db.mileage
                    if cell.manufacturer == name
                    and cell.month in months and cell.vehicle_id}
            miles = left_sum(cell.miles for cell in db.mileage
                             if cell.manufacturer == name
                             and cell.month in months)
            events = sum(1 for r in db.disengagements
                         if r.manufacturer == name and r.month in months)
            accidents = sum(
                1 for a in db.accidents
                if a.manufacturer == name and a.month in months)
            if miles == 0 and events == 0 and accidents == 0:
                row.extend([None, None, None, None])
            else:
                row.extend([len(cars) or None, miles, events,
                            accidents or None])
                totals[period][0] += len(cars)
                totals[period][1] += miles
                totals[period][2] += events
                totals[period][3] += accidents
        table.add_row(*row)
    total_row: list = ["Total"]
    for period in ReportPeriod:
        total_row.extend(totals[period])
    table.add_row(*total_row)
    table.notes.append("dashes indicate data absent from the reports")
    return table


def table2(db: FailureDatabase) -> Table:
    """Table II: sample raw disengagement logs with the NLP engine's
    category and tag assignments."""
    table = Table(
        title="Table II: sample disengagement reports",
        columns=["Manufacturer", "Raw log", "Category", "Tag"])
    wanted = [
        ("Nissan", FaultTag.SOFTWARE),
        ("Nissan", FaultTag.RECOGNITION_SYSTEM),
        ("Waymo", FaultTag.ENVIRONMENT),
        ("Volkswagen", FaultTag.HANG_CRASH),
    ]
    for manufacturer, tag in wanted:
        sample = next(
            (r for r in db.disengagements
             if r.manufacturer == manufacturer and r.tag is tag), None)
        if sample is None:
            continue
        text = sample.description
        if len(text) > 70:
            text = text[:67] + "..."
        table.add_row(manufacturer, text,
                      str(category_of(tag)), tag.display_name)
    return table


def table3(db: FailureDatabase | None = None) -> Table:
    """Table III: fault tags, categories, and definitions.

    Static ontology; ``db`` is accepted for interface uniformity.
    """
    del db
    table = Table(
        title="Table III: fault tags and categories",
        columns=["Tag", "Category", "Definition"])
    for tag in FaultTag:
        table.add_row(tag.display_name, str(category_of(tag)),
                      TAG_DEFINITIONS[tag])
    return table


def table4(db: FailureDatabase) -> Table:
    """Table IV: disengagement percentages by root failure category."""
    table = Table(
        title=("Table IV: disengagements by root failure category "
               "(percent)"),
        columns=["Manufacturer", "ML Planner/Controller",
                 "ML Perception/Recognition", "System", "Unknown-C"])
    rows = category_percentages(db, list(TABLE4_MANUFACTURERS))
    for name in TABLE4_MANUFACTURERS:
        row = rows.get(name)
        if row is None:
            continue
        table.add_row(name, row["ML-Planner/Controller"],
                      row["ML-Perception/Recognition"], row["System"],
                      row["Unknown-C"])
    return table


def table5(db: FailureDatabase) -> Table:
    """Table V: disengagement modality percentages."""
    table = Table(
        title="Table V: disengagements by modality (percent)",
        columns=["Manufacturer", "Automatic", "Manual", "Planned"])
    rows = modality_percentages(db, list(TABLE5_MANUFACTURERS))
    for name in TABLE5_MANUFACTURERS:
        row = rows.get(name)
        if row is None:
            continue
        table.add_row(name, row["Automatic"], row["Manual"],
                      row["Planned"])
    return table


def table6(db: FailureDatabase) -> Table:
    """Table VI: accidents, share of total, and DPA."""
    table = Table(
        title="Table VI: accidents reported by manufacturers",
        columns=["Manufacturer", "Accidents", "Fraction of Total (%)",
                 "DPA"])
    for name, summary in accident_summary(db).items():
        table.add_row(name, summary.accidents,
                      summary.fraction_of_total, summary.dpa)
    table.notes.append("DPA = disengagements per accident")
    return table


def table7(db: FailureDatabase) -> Table:
    """Table VII: reliability of AVs compared to human drivers."""
    table = Table(
        title="Table VII: reliability of AVs vs. human drivers",
        columns=["Manufacturer", "Median DPM (1/mile)",
                 "Median APM (1/mile)", "Rel. to HAPM"])
    rows = apm_summary(db, list(ANALYSIS_ORDER))
    for name in ANALYSIS_ORDER:
        summary = rows.get(name)
        if summary is None:
            continue
        relative = (f"{summary.relative_to_human:.1f}x"
                    if summary.relative_to_human else None)
        table.add_row(name, summary.median_dpm, summary.apm, relative)
    table.notes.append(
        f"human APM = {HUMAN_ACCIDENTS_PER_MILE:g}/mile (NHTSA/FHWA)")
    return table


def table8(db: FailureDatabase) -> Table:
    """Table VIII: reliability vs. other safety-critical systems."""
    table = Table(
        title=("Table VIII: AVs vs. airplanes and surgical robots "
               "(per mission)"),
        columns=["Manufacturer", "APMi", "APMi/Airline APM",
                 "APMi/SR APM"])
    rows = mission_comparison(db, list(ANALYSIS_ORDER))
    for name in ("Waymo", "Delphi", "Nissan", "GMCruise"):
        comparison = rows.get(name)
        if comparison is None:
            continue
        table.add_row(name, comparison.apmi, comparison.vs_airline,
                      comparison.vs_surgical_robot)
    table.notes.append(
        f"airline APM = {AIRLINE_ACCIDENTS_PER_MISSION:g}, surgical "
        f"robot APM = {SURGICAL_ROBOT_ACCIDENTS_PER_MISSION:g}")
    return table
