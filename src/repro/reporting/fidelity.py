"""Paper fidelity: each number the paper prints, next to its measurement.

Every comparison between a reproduction and a value or claim the paper
prints is one :class:`Row`: the paper value, a function that measures
the same quantity from the failure database, a tolerance and a one-line
reason.  ``tests/test_fidelity.py`` checks every row against the
seed-2018 session database and counts, per row, the seeds of
:data:`PANEL_SEEDS` at which it holds; ``scripts/generate_experiments_md.py``
renders ``EXPERIMENTS.md`` from the same rows.

Values ``repro.calibration`` holds verbatim (Table I, Table VI, the
Table VII/VIII columns of ``calibration.baselines``, the mean reaction
time) are read from there; every other printed value is written once,
in its row.

A rate row (Tables VII and VIII) is held to the 95% Poisson interval of
the event count under the rate, ±1.96/√n around the paper's value: the
manufacturer's Table I disengagements for a median DPM, its Table VI
accidents for APM, APMi and their ratios.  A rate outside that interval
is a known *gap*: its row keeps the bound earlier checks applied, and
its reason names the gap.  Other known gaps are marked ``gap=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.alertness import (
    alertness_summary,
    fit_reaction_times,
    overall_mean_reaction_time,
    reaction_time_mileage_correlation,
)
from ..analysis.apm import (
    accident_summary,
    apm_miles_correlation,
    apm_summary,
    collision_speed_distributions,
    disengagements_per_accident_overall,
    first_principles_apm,
    miles_per_disengagement,
)
from ..analysis.categories import (
    automatic_share,
    category_percentages,
    modality_percentages,
    overall_category_shares,
    tag_fractions,
)
from ..analysis.dpm import manufacturer_dpm_summary, yearly_dpm_distributions
from ..analysis.maturity import all_assessments, pooled_dpm_correlation
from ..analysis.missions import mission_comparison
from ..analysis.significance import failure_rate_confidence
from ..analysis.stats import median
from ..calibration.accidents import ACCIDENT_PROFILES
from ..calibration.baselines import (
    HUMAN_ACCIDENTS_PER_MILE,
    PAPER_APM_RELATIVE_TO_HUMAN,
    PAPER_APMI,
    PAPER_APMI_VS_AIRLINE,
    PAPER_APMI_VS_SURGICAL,
    PAPER_MEDIAN_APM,
    PAPER_MEDIAN_DPM,
)
from ..calibration.manufacturers import (
    MANUFACTURERS,
    total_accidents,
    total_disengagements,
    total_miles,
)
from ..calibration.reaction_times import (
    NON_AV_BRAKING_REACTION_TIME_S,
    OVERALL_MEAN_REACTION_TIME_S,
)
from ..pipeline.store import FailureDatabase
from .tables_paper import ANALYSIS_ORDER, table1

ANALYSIS = ANALYSIS_ORDER

#: Table IV: ML-planner / ML-perception / System / Unknown-C (%).
TABLE4: dict[str, tuple[float, float, float, float]] = {
    "Delphi": (37.59, 50.17, 12.24, 0.0),
    "Nissan": (36.30, 49.63, 14.07, 0.0),
    "Tesla": (0.0, 0.0, 1.65, 98.35),
    "Volkswagen": (0.0, 3.08, 83.08, 13.85),
    "Waymo": (10.13, 53.45, 36.42, 0.0),
}

#: Table V as printed: automatic / manual / planned (%).  Calibration
#: gives Waymo's 0.01 rounding residue to its automatic share.
TABLE5: dict[str, tuple[float, float, float]] = {
    "Mercedes-Benz": (47.11, 52.89, 0.0),
    "Bosch": (0.0, 0.0, 100.0),
    "GMCruise": (0.0, 0.0, 100.0),
    "Nissan": (54.2, 45.8, 0.0),
    "Tesla": (98.35, 1.65, 0.0),
    "Volkswagen": (100.0, 0.0, 0.0),
    "Waymo": (50.32, 49.67, 0.0),
}

_TABLE4_NAMES = tuple(TABLE4)
_TABLE5_NAMES = tuple(TABLE5)

#: Table VI's share-of-accidents column (%).
TABLE6_SHARE = {"Waymo": 59.52, "Delphi": 2.38, "Nissan": 2.38,
                "GMCruise": 33.33, "Uber ATC": 2.38}

#: The reaction-time panels of Fig. 11.
_RT_PANELS = ("Waymo", "Mercedes-Benz")

#: Seconds above which a reaction time is a data-entry outlier (Fig. 11
#: plots Mercedes-Benz below ten minutes).
_RT_PLOT_LIMIT_S = 600


# -- tolerances ------------------------------------------------------------

def _pairs(measured: Any, paper: Any) -> list[tuple[Any, Any]]:
    if isinstance(measured, tuple):
        return list(zip(measured, paper, strict=True))
    return [(measured, paper)]


class Tolerance:
    """How close a measurement must come to the paper's value."""

    def holds(self, measured: Any, paper: Any) -> bool:
        """Whether ``measured`` is within the tolerance of ``paper``."""
        raise NotImplementedError

    def describe(self, fmt: Callable[[Any], str]) -> str:
        """The tolerance as EXPERIMENTS.md prints it (numbers through
        ``fmt``)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exact(Tolerance):
    """Measured equals the paper value."""

    def holds(self, measured: Any, paper: Any) -> bool:
        return measured == paper

    def describe(self, fmt: Callable[[Any], str]) -> str:
        return "exact"


@dataclass(frozen=True)
class Abs(Tolerance):
    """Within ``width`` of the paper value (each element of a tuple)."""

    width: float

    def holds(self, measured: Any, paper: Any) -> bool:
        return all(abs(m - p) <= self.width
                   for m, p in _pairs(measured, paper))

    def describe(self, fmt: Callable[[Any], str]) -> str:
        return f"±{fmt(self.width)}"


@dataclass(frozen=True)
class Rel(Tolerance):
    """Within ``frac`` of the paper value, relatively."""

    frac: float

    def holds(self, measured: Any, paper: Any) -> bool:
        return all(abs(m - p) <= self.frac * abs(p)
                   for m, p in _pairs(measured, paper))

    def describe(self, fmt: Callable[[Any], str]) -> str:
        return f"±{self.frac:.0%}"


@dataclass(frozen=True)
class Factor(Tolerance):
    """Within a factor ``k`` of the paper value, either way."""

    k: float

    def holds(self, measured: Any, paper: Any) -> bool:
        return paper / self.k <= measured <= paper * self.k

    def describe(self, fmt: Callable[[Any], str]) -> str:
        return f"×/÷ {self.k:g}"


@dataclass(frozen=True)
class Between(Tolerance):
    """``lo <= measured <= hi``; ``None`` leaves a side open, and tuple
    bounds apply element by element."""

    lo: Any = None
    hi: Any = None

    def holds(self, measured: Any, paper: Any) -> bool:
        if isinstance(measured, tuple):
            return all(Between(lo, hi).holds(m, paper) for m, lo, hi
                       in zip(measured, self.lo, self.hi, strict=True))
        return ((self.lo is None or measured >= self.lo)
                and (self.hi is None or measured <= self.hi))

    def describe(self, fmt: Callable[[Any], str]) -> str:
        if isinstance(self.lo, tuple):
            return " / ".join(Between(lo, hi).describe(fmt)
                              for lo, hi in zip(self.lo, self.hi))
        if self.hi is None:
            return f"≥ {fmt(self.lo)}"
        if self.lo is None:
            return f"≤ {fmt(self.hi)}"
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


@dataclass(frozen=True)
class Above(Tolerance):
    """Strictly above ``bound``."""

    bound: float

    def holds(self, measured: Any, paper: Any) -> bool:
        return measured > self.bound

    def describe(self, fmt: Callable[[Any], str]) -> str:
        return f"> {fmt(self.bound)}"


@dataclass(frozen=True)
class Below(Tolerance):
    """Strictly below ``bound``."""

    bound: float

    def holds(self, measured: Any, paper: Any) -> bool:
        return measured < self.bound

    def describe(self, fmt: Callable[[Any], str]) -> str:
        return f"< {fmt(self.bound)}"


@dataclass(frozen=True)
class Includes(Tolerance):
    """Measured names include the paper's, with at most ``most`` names."""

    most: int

    def holds(self, measured: Any, paper: Any) -> bool:
        return set(paper) <= set(measured) and len(measured) <= self.most

    def describe(self, fmt: Callable[[Any], str]) -> str:
        return f"⊇ paper, ≤ {self.most} names"


@dataclass(frozen=True)
class Poisson(Tolerance):
    """The 95% Poisson interval of ``events``, ±1.96/√n relative to the
    paper value.  A known gap outside it keeps ``gap``, the bound
    earlier checks applied."""

    events: int
    gap: Tolerance | None = None

    @property
    def half_width(self) -> float:
        """The interval's half-width relative to the paper value."""
        return 1.96 / math.sqrt(self.events)

    def inside(self, measured: float, paper: float) -> bool:
        """Whether ``measured`` lies in the interval around ``paper``."""
        return abs(measured / paper - 1.0) <= self.half_width

    def holds(self, measured: Any, paper: Any) -> bool:
        return self.inside(measured, paper) or (
            self.gap is not None and self.gap.holds(measured, paper))

    def describe(self, fmt: Callable[[Any], str]) -> str:
        text = f"±{self.half_width:.1%} (Poisson, n = {self.events:,})"
        if self.gap is not None:
            text += f"; gap bound {self.gap.describe(fmt)}"
        return text


# -- rows ------------------------------------------------------------------

def _g(value: Any, digits: int = 4) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.{digits}g}"
    return str(value)


@dataclass(frozen=True)
class Row:
    """One paper value, how to measure it, and how close it must be."""

    id: str
    quantity: str
    paper: Any
    measure: Callable[["Analyses"], Any]
    tolerance: Tolerance
    reason: str
    #: A known gap the tolerance does not detect (Poisson rows detect
    #: their own).
    gap: bool = False
    #: Format spec for paper, measured and tolerance values ("" = 4
    #: significant digits).
    fmt: str = ""
    #: Measured by an optimizer (``scipy.stats.exponweib.fit``) whose
    #: last digits may move with the scipy version.
    fitted: bool = False

    def show(self, value: Any) -> str:
        """``value`` as EXPERIMENTS.md prints it."""
        if value is None:
            return "-"
        if isinstance(value, tuple):
            if all(isinstance(v, str) for v in value):
                return ", ".join(value) or "none"
            return " / ".join(self.show(v) for v in value)
        if isinstance(value, str):
            return value
        return format(value, self.fmt) if self.fmt else _g(value)


def _slug(name: str) -> str:
    return name.lower().replace(" ", "-")


_CATEGORY_COLUMNS = ("ML-Planner/Controller", "ML-Perception/Recognition",
                     "System", "Unknown-C")
_MODALITY_COLUMNS = ("Automatic", "Manual", "Planned")

_DPM_GAPS = {
    "Waymo": (
        "gap (0.53x): synthesis picks each event's car in proportion to "
        "its miles that month (synth/events.py), so per-car DPM clusters "
        "at the pooled 464 / 1,060,200 mi while the paper's median is "
        "1.7x its pooled rate; the fix is ROADMAP item 1"),
    "Bosch": (
        "gap (1.32x): the same miles-proportional car pick clusters "
        "per-car DPM at Bosch's pooled 2,067 / 1,918 mi = 1.08, above "
        "the paper's per-car median"),
    "Tesla": (
        "gap (1.50x): a per-month median; the paper publishes only "
        "period totals, so synthesis's monthly mileage profile "
        "(calibration/trends.py) is a guess that sets this median"),
    "Volkswagen": (
        "gap (0.81x): a per-month median over a synthesized monthly "
        "mileage profile, as for Tesla"),
}
_DPM_REASON = ("count-limited: the median rests on the manufacturer's "
               "Table I disengagements")
_APM_REASON = ("count-limited: APM = median DPM / DPA rests on the "
               "manufacturer's Table VI accidents")
_WAYMO_APM_GAP = ("gap (0.52x): APM = median DPM / DPA inherits "
                  "table7-waymo-median-dpm's gap")
_NISSAN_TYPO = ("gap: the paper prints 15.285x, but its own APM column "
                "gives 3.057e-4 / 2e-6 = 152.85x, a decimal typo; we "
                "measure the formula value")


def _accidents(name: str) -> int:
    return ACCIDENT_PROFILES[name].accidents


def _table1_rows() -> list[Row]:
    def total(analyses: Analyses, column: int) -> Any:
        row = analyses(table1).row_for("Total")
        return row[column] + row[column + 4]

    def waymo(analyses: Analyses, column: int) -> tuple:
        row = analyses(table1).row_for("Waymo")
        return (row[column], row[column + 4])

    periods = MANUFACTURERS["Waymo"].periods.values()
    ocr_loss = "the OCR channel drops or misreads a few report lines"
    return [
        Row("table1-total-miles", "autonomous miles",
            total_miles(), lambda a: total(a, 2), Rel(0.03), ocr_loss,
            fmt=",.0f"),
        Row("table1-total-disengagements", "disengagements",
            total_disengagements(), lambda a: total(a, 3), Abs(20),
            ocr_loss, fmt=","),
        Row("table1-total-accidents", "accidents",
            total_accidents(), lambda a: total(a, 4), Exact(),
            "synthesis draws Table VI's counts; accident reports parse "
            "losslessly"),
        Row("table1-waymo-cars", "Waymo cars (15-16 / 16-17)",
            tuple(p.cars for p in periods), lambda a: waymo(a, 1),
            Exact(), "synthesis builds Table I's fleets car by car"),
        Row("table1-waymo-miles",
            "Waymo miles (15-16 / 16-17)", tuple(p.miles for p in periods),
            lambda a: waymo(a, 2), Rel(0.05), ocr_loss, fmt=",.0f"),
    ]


def _share_rows() -> list[Row]:
    rows = [
        Row(f"table4-{_slug(name)}", f"{name} categories (%)",
            paper,
            lambda a, name=name: tuple(
                a(category_percentages, _TABLE4_NAMES)[name][column]
                for column in _CATEGORY_COLUMNS),
            Abs(6.0),
            "gap (Unknown-C 93.41 vs 98.35): the tagger labels 8 of "
            "Tesla's 178 terse Unknown-T narratives Environment or "
            "Hang/Crash; the truth tags give 97.80"
            if name == "Tesla" else
            "a few hundred narratives through the OCR channel and tagger",
            gap=name == "Tesla", fmt=".2f")
        for name, paper in TABLE4.items()
    ]
    rows += [
        Row(f"table4-{key.replace('_', '-')}-share", label,
            paper, lambda a, key=key: a(overall_category_shares)[key],
            Abs(0.05),
            "pooled over every manufacturer but Tesla; tagger noise",
            fmt=".1%")
        for key, label, paper in (
            ("ml_design", "ML/Design share (Sec. V-A)", 0.64),
            ("perception", "perception share", 0.44),
            ("planner", "planner share", 0.20),
            ("system", "system share", 0.336))
    ]
    rows += [
        Row(f"table5-{_slug(name)}", f"{name} modalities (%)",
            paper,
            lambda a, name=name: tuple(
                a(modality_percentages, _TABLE5_NAMES)[name][column]
                for column in _MODALITY_COLUMNS),
            Exact() if max(paper) == 100.0 else Abs(5.0),
            "one modality: every record carries it"
            if max(paper) == 100.0 else
            "calibration gives the printed row's 0.01 rounding residue "
            "to automatic (50.33); sampling"
            if name == "Waymo" else
            "sampling over the manufacturer's disengagements", fmt=".2f")
        for name, paper in TABLE5.items()
    ]
    rows.append(
        Row("table5-automatic-share", "average automatic share",
            0.48, lambda a: a(automatic_share), Abs(0.07),
            "a mean of per-manufacturer shares; sampling", fmt=".0%"))
    return rows


def _table6_rows() -> list[Row]:
    dpa_tolerance = {"Waymo": Rel(0.05), "GMCruise": Rel(0.05),
                     "Delphi": Abs(10.0), "Nissan": Abs(5.0)}
    rows = []
    for name, profile in ACCIDENT_PROFILES.items():
        slug = _slug(name)
        rows += [
            Row(f"table6-{slug}-accidents", f"{name} accidents",
                profile.accidents,
                lambda a, name=name: a(accident_summary)[name].accidents,
                Exact(),
                "synthesis draws Table VI's counts exactly"),
            Row(f"table6-{slug}-share",
                f"{name} share of accidents (%)", TABLE6_SHARE[name],
                lambda a, name=name: (
                    a(accident_summary)[name].fraction_of_total),
                Abs(0.1), "the paper rounds to two decimals", fmt=".2f"),
            Row(f"table6-{slug}-dpa",
                f"{name} disengagements per accident", profile.dpa,
                lambda a, name=name: a(accident_summary)[name].dpa,
                dpa_tolerance.get(name, Exact()),
                "no disengagement data, so no DPA"
                if profile.dpa is None else
                "the paper rounds DPA to an integer; OCR losses",
                fmt=".3g"),
        ]
    rows.append(
        Row("table6-disengagements-per-accident",
            "disengagements per accident, overall (Sec. V-C)", 127.0,
            lambda a: a(disengagements_per_accident_overall), Abs(5.0),
            "Table I and Table VI totals; OCR losses", fmt=".0f"))
    return rows


def _rate_rows() -> list[Row]:
    def rate(row_id: str, quantity: str, paper: float,
             measure: Callable[[Analyses], Any], events: int,
             gap: Any = None, reason: str = _APM_REASON,
             fmt: str = "") -> Row:
        return Row(row_id, quantity, paper, measure,
                   Poisson(events, gap), reason, fmt=fmt)

    rows = [
        rate(f"table7-{_slug(name)}-median-dpm",
             f"{name} median DPM", paper,
             lambda a, name=name: _dpm(a)[name].median_dpm,
             MANUFACTURERS[name].total_disengagements,
             Factor(3) if name in _DPM_GAPS else None,
             _DPM_GAPS.get(name, _DPM_REASON))
        for name, paper in PAPER_MEDIAN_DPM.items()
    ]
    # Table VII-VIII columns that scale APM, each read from baselines.
    for table, key, quantity, printed, field, waymo_bound, fmt in (
            ("table7", "apm", "APM", PAPER_MEDIAN_APM, "apm", Factor(3),
             ""),
            ("table7", "vs-human", "APM relative to human drivers",
             PAPER_APM_RELATIVE_TO_HUMAN, "relative_to_human",
             Between(5.0, 50.0), ".5g"),
            ("table8", "apmi", "accidents per mission", PAPER_APMI, "apmi",
             Factor(3), ""),
            ("table8", "vs-airline", "APMi relative to airlines",
             PAPER_APMI_VS_AIRLINE, "vs_airline", Between(1.0, 10.0),
             ".2f"),
            ("table8", "vs-surgical-robot",
             "APMi relative to surgical robots", PAPER_APMI_VS_SURGICAL,
             "vs_surgical_robot", Below(0.1), ".4g")):
        analysis = apm_summary if table == "table7" else mission_comparison
        for name, paper in printed.items():
            gap, reason = None, _APM_REASON
            if name == "Waymo":
                gap, reason = waymo_bound, _WAYMO_APM_GAP
            elif name == "Nissan" and key == "vs-human":
                gap, reason = Between(5.0, 5000.0), _NISSAN_TYPO
            rows.append(rate(
                f"{table}-{_slug(name)}-{key}", f"{name} {quantity}", paper,
                lambda a, name=name, analysis=analysis, field=field: getattr(
                    a(analysis, ANALYSIS)[name], field),
                _accidents(name), gap, reason, fmt))
    rows += [
        Row("table7-human-ratio-span",
            "AVs vs human drivers, least / most (abstract)",
            (15.0, 4000.0),
            _human_ratio_span,
            Between((5.0, 1000.0), (50.0, 5000.0)),
            "the 15 end is Nissan's 15.285x typo; Waymo's APM gap sets "
            "the measured least", fmt=".4g"),
        Row("table7-miles-per-disengagement",
            "miles per disengagement, per-manufacturer mean (Sec. V-B)",
            262.0, lambda a: a(miles_per_disengagement), Rel(0.6),
            "a mean of per-manufacturer ratios; the paper does not spell "
            "out its aggregation", fmt=".0f"),
        Row("table7-waymo-first-principles-apm",
            "Waymo accidents / miles",
            _accidents("Waymo") / MANUFACTURERS["Waymo"].total_miles,
            lambda a: a(first_principles_apm)["Waymo"], Rel(0.1),
            "Table VI accidents over Table I miles; OCR mileage losses"),
        Row("table7-accidents-miles-r",
            "Pearson r, accidents vs miles (Sec. V-C)", 0.98,
            lambda a: a(apm_miles_correlation).r, Above(0.8),
            "four points, one per manufacturer with accidents",
            fmt=".2f"),
    ]
    rows += [
        Row(f"table7-{_slug(name)}-apm-significance",
            f"{name} APM above human drivers', confidence", 0.9,
            lambda a, name=name: a(_apm_significance, name), Above(0.9),
            "the paper's \"> 90% significance\": a Poisson test of the "
            "manufacturer's accidents over its miles at the human rate "
            "(Kalra-Paddock)", fmt=".3f")
        for name in ("Waymo", "GMCruise")
    ]
    return rows


def _figure_rows() -> list[Row]:
    rows = [
        Row("fig4-waymo-advantage",
            "median of the other medians / Waymo's", "~100x",
            _waymo_advantage, Between(20.0, 1000.0),
            "the paper's own Table VII medians give 238x; Waymo's 0.53x "
            "median-DPM gap raises it", fmt=".0f"),
        Row("fig4-medians-in-band",
            "other manufacturers with median DPM in [0.005, 1.5]",
            "most of 7",
            lambda a: sum(0.005 <= s.median_dpm <= 1.5
                          for name, s in _dpm(a).items() if name != "Waymo"),
            Between(5, None),
            "the paper's [0.01, 1] band, widened for per-month units"),
        Row("fig5-min-cumulative-r2",
            "least r² of the log-log cumulative fits", "strong fits",
            lambda a: min(s.cumulative_fit.r_squared
                          for s in _assessments(a).values()),
            Above(0.8), "every manufacturer's Fig. 5 curve is near-linear",
            fmt=".3f"),
        Row("fig9-not-improving",
            "manufacturers whose DPM fit slope is not negative",
            ("Bosch",),
            lambda a: tuple(name for name, s in _assessments(a).items()
                            if not s.improving),
            Includes(2),
            "gap (Delphi, slope +0.129): Table I raises Delphi's DPM 2.2x "
            "between periods (405 in 16,661 mi, then 167 in 3,090 mi) and "
            "synthesis applies the -0.35 trend only within a period "
            "(period-1 fit -0.34), so the fit over both slopes up",
            gap=True),
        Row("fig9-waymo-dpm-slope", "Waymo DPM fit slope",
            "steepest improvement",
            lambda a: _assessments(a)["Waymo"].dpm_fit.slope, Below(-0.3),
            "calibrated at -0.55 within each period", fmt=".3f"),
        Row("fig9-nobody-mature",
            "manufacturers near the zero-slope asymptote", (),
            lambda a: tuple(name for name, s in _assessments(a).items()
                            if s.mature),
            Exact(), "|slope| < 0.05 counts as mature; all still burn in"),
        Row("fig6-tesla-unknown-t", "Tesla Unknown-T share",
            "almost all",
            lambda a: _tags(a, "Tesla").get("Unknown-T", 0.0), Above(0.9),
            "the tagger gap of table4-tesla", fmt=".3f"),
        Row("fig6-waymo-recognition",
            "Waymo Recognition System share", "large",
            lambda a: _tags(a, "Waymo").get("Recognition System", 0.0),
            Above(0.2), "tagger noise", fmt=".3f"),
        Row("fig6-volkswagen-system",
            "Volkswagen Computer System + Software share", "dominant",
            lambda a: (_tags(a, "Volkswagen").get("Computer System", 0.0)
                       + _tags(a, "Volkswagen").get("Software", 0.0)),
            Above(0.4), "tagger noise", fmt=".3f"),
        Row("fig7-waymo-improvement",
            "Waymo median DPM, 2014 / 2016", 8.0,
            lambda a: (_yearly_medians(a, "Waymo")[2014]
                       / _yearly_medians(a, "Waymo")[2016]),
            Between(3.0, 30.0),
            "gap (6.7x vs ~8x): per-car DPM clusters at each year's "
            "pooled rate, the vehicle-pick cause of "
            "table7-waymo-median-dpm", gap=True, fmt=".1f"),
        Row("fig7-bosch-worsening",
            "Bosch median DPM, last year / first", "> 1 (worsens)",
            lambda a: _last_over_first(_yearly_medians(a, "Bosch")),
            Above(1.0), "calibrated at slope +0.25, and Table I's "
            "per-period DPM rises", fmt=".2f"),
        Row("fig8-pooled-r", "pooled Pearson r", -0.87,
            lambda a: a(pooled_dpm_correlation, ANALYSIS).r, Abs(0.08),
            "trend slopes tuned to the paper's r; monthly noise",
            fmt=".2f"),
        Row("fig8-pooled-p", "pooled p-value", 7e-56,
            lambda a: a(pooled_dpm_correlation, ANALYSIS).p_value,
            Below(1e-30),
            "p depends on n, and the month grid differs from the paper's",
            fmt=".1e"),
        Row("fig10-mean-reaction-time", "mean reaction time (s)",
            OVERALL_MEAN_REACTION_TIME_S,
            lambda a: a(overall_mean_reaction_time), Abs(0.2),
            f"sampling; the non-AV braking baseline is "
            f"{NON_AV_BRAKING_REACTION_TIME_S} s", fmt=".2f"),
        Row("fig10-volkswagen-outlier",
            "Volkswagen's longest reaction time (s)", "~4 h",
            lambda a: a(alertness_summary)["Volkswagen"].box.maximum,
            Above(10000.0), "calibration injects the single outlier",
            fmt=".0f"),
        Row("fig10-long-tails",
            "least max / median over the six boxes", "long tails",
            lambda a: min(s.box.maximum / s.box.median
                          for s in a(alertness_summary).values()),
            Above(2.0), "exponentiated-Weibull draws", fmt=".2f"),
        Row("fig11-benz-wider",
            "Mercedes-Benz / Waymo fitted mean", "> 1 (wider)",
            lambda a: (a(fit_reaction_times, "Mercedes-Benz").mean
                       / a(fit_reaction_times, "Waymo").mean),
            Above(1.0), "an optimizer fit: inequality only", fmt=".2f",
            fitted=True),
        Row("fig11-mercedes-benz-tail",
            "Mercedes-Benz longest reaction time under 600 s (s)",
            "past 10", lambda a: max(
                t for t in a.db.reaction_times("Mercedes-Benz")
                if t < _RT_PLOT_LIMIT_S),
            Above(4.0), "the tail of a few hundred draws", fmt=".1f"),
        Row("fig11-waymo-max", "Waymo longest reaction time (s)",
            "below ~4", lambda a: max(a.db.reaction_times("Waymo")),
            Between(None, 5.0), "the tail of a few hundred draws",
            fmt=".2f"),
    ]
    for name, r, p, r_tolerance, p_tolerance in (
            ("Waymo", 0.19, 0.01, Between(0.1, 0.4), Below(0.01)),
            ("Mercedes-Benz", 0.11, 0.007, Above(0.0), Below(0.05))):
        slug = _slug(name)
        rows += [
            Row(f"fig11-{slug}-ks",
                f"{name} exponweib KS statistic", "good fit",
                lambda a, name=name: (
                    a(fit_reaction_times, name).ks_statistic),
                Below(0.1), "an optimizer fit: inequality only",
                fmt=".3f", fitted=True),
            Row(f"fig11-{slug}-rt-miles-r",
                f"{name} reaction time vs miles, r", r,
                lambda a, name=name: (
                    a(reaction_time_mileage_correlation, name).r),
                r_tolerance, "a weak drift calibrated per log-mile; "
                "sampling", fmt=".2f"),
            Row(f"fig11-{slug}-rt-miles-p",
                f"{name} reaction time vs miles, p", p,
                lambda a, name=name: (
                    a(reaction_time_mileage_correlation, name).p_value),
                p_tolerance, "significant at the paper's level",
                fmt=".3g"),
        ]
    rows += [
        Row("fig12-below-10mph",
            "accidents below 10 mph relative speed", ">80%",
            lambda a: _speeds(a).fraction_relative_below(10.0), Above(0.8),
            "exponential speeds with a 5 mph mean: 86% expected",
            fmt=".0%"),
        Row("fig12-av-slower",
            "AV / manual-vehicle exponential scale", "< 1",
            lambda a: _speeds(a).av_fit.scale / _speeds(a).other_fit.scale,
            Below(1.0), "calibrated scales 4.5 vs 9 mph", fmt=".2f"),
        Row("fig12-av-max-speed", "fastest AV at collision (mph)",
            "axis 0-30", lambda a: max(_speeds(a).av_speeds),
            Between(None, 30.0), "synthesis truncates at the axis",
            fmt=".1f"),
        Row("fig12-mv-max-speed",
            "fastest manual vehicle at collision (mph)", "axis 0-40",
            lambda a: max(_speeds(a).other_speeds), Between(None, 40.0),
            "synthesis truncates at the axis", fmt=".1f"),
    ]
    return rows


# -- measurement -----------------------------------------------------------

class Analyses:
    """The Stage IV analyses of one database, each run once."""

    def __init__(self, db: FailureDatabase) -> None:
        self.db = db
        self._results: dict[tuple, Any] = {}

    def __call__(self, analysis: Callable[..., Any], *args: Any) -> Any:
        """``analysis(db, *args)``, computed on first use only."""
        key = (analysis, *args)
        if key not in self._results:
            self._results[key] = analysis(self.db, *args)
        return self._results[key]


def _dpm(analyses: Analyses) -> dict:
    return analyses(manufacturer_dpm_summary, ANALYSIS)


def _apm(analyses: Analyses) -> dict:
    return analyses(apm_summary, ANALYSIS)


def _assessments(analyses: Analyses) -> dict:
    return analyses(all_assessments, ANALYSIS)


def _tags(analyses: Analyses, name: str) -> dict[str, float]:
    return analyses(tag_fractions, _TABLE4_NAMES)[name]


def _speeds(analyses: Analyses):
    return analyses(collision_speed_distributions)


def _last_over_first(medians: dict[int, float]) -> float:
    return medians[max(medians)] / medians[min(medians)]


def _waymo_advantage(analyses: Analyses) -> float:
    dpm = _dpm(analyses)
    others = [s.median_dpm for name, s in dpm.items() if name != "Waymo"]
    return median(others) / dpm["Waymo"].median_dpm


def _apm_significance(db: FailureDatabase, name: str) -> float:
    return failure_rate_confidence(
        db.miles_by_manufacturer()[name],
        len(db.accidents_by_manufacturer()[name]),
        HUMAN_ACCIDENTS_PER_MILE)


def _human_ratio_span(analyses: Analyses) -> tuple[float, float]:
    ratios = [row.relative_to_human for row in _apm(analyses).values()
              if row.relative_to_human is not None]
    return (min(ratios), max(ratios))


def _yearly_medians(analyses: Analyses, name: str) -> dict[int, float]:
    years = analyses(yearly_dpm_distributions, ("Waymo", "Bosch"))[name]
    return {year: median(values)
            for year, values in years.items()}


#: Every paper comparison, in EXPERIMENTS.md order.
ROWS: tuple[Row, ...] = tuple(
    _table1_rows() + _share_rows() + _table6_rows() + _rate_rows()
    + _figure_rows())


@dataclass(frozen=True)
class Outcome:
    """One row measured against one database."""

    row: Row
    measured: Any

    @property
    def gap(self) -> bool:
        """Whether the row is a known miss (see the module docstring)."""
        tolerance = self.row.tolerance
        if isinstance(tolerance, Poisson):
            return not tolerance.inside(self.measured, self.row.paper)
        return self.row.gap

    def problems(self) -> list[str]:
        """Why the row fails; empty when it holds."""
        row, out = self.row, []
        if not row.reason.strip():
            out.append("the row gives no reason")
        if not row.tolerance.holds(self.measured, row.paper):
            out.append(f"measured {row.show(self.measured)} is outside "
                       f"{row.tolerance.describe(row.show)} of "
                       f"{row.show(row.paper)}")
        if (isinstance(row.tolerance, Poisson)
                and row.tolerance.gap is not None and not self.gap):
            out.append("inside its Poisson interval: drop the gap bound")
        return out

    @property
    def verdict(self) -> str:
        """``ok``, ``gap`` or ``FAIL``, as EXPERIMENTS.md prints it."""
        if self.problems():
            return "FAIL"
        return "gap" if self.gap else "ok"


def evaluate(db: FailureDatabase) -> list[Outcome]:
    """Measure every row against ``db``."""
    analyses = Analyses(db)
    return [Outcome(row, row.measure(analyses)) for row in ROWS]


#: The seeds every row is also measured at: those earlier checks used,
#: plus the ``[2018, 7, 42]`` of docs/USAGE.md.  Fixed before any fix,
#: so it is never re-chosen to hide a failure.
PANEL_SEEDS = (2018, 911, 433, 437, 5, 7, 42)


def panel_holds(panel: dict[int, list[Outcome]]) -> dict[str, int]:
    """Per row id: at how many of ``panel``'s seeds the row does not
    FAIL."""
    holds = {row.id: 0 for row in ROWS}
    for outcomes in panel.values():
        for outcome in outcomes:
            holds[outcome.row.id] += outcome.verdict != "FAIL"
    return holds


# -- EXPERIMENTS.md --------------------------------------------------------

def _fig4(analyses: Analyses) -> list[str]:
    units: dict[str, list[str]] = {}
    for name, summary in _dpm(analyses).items():
        units.setdefault(summary.unit, []).append(name)
    return ["Medians are per " + "; per ".join(
        f"{unit}: {', '.join(names)}" for unit, names in units.items())
        + ". The medians themselves are Table VII's rows."]


def _fig5(analyses: Analyses) -> list[str]:
    lines = ["| manufacturer | cum. fit slope (log-log) | DPM fit slope "
             "| improving? |", "|---|---|---|---|"]
    for name, assessment in _assessments(analyses).items():
        fit = assessment.dpm_fit
        lines.append(f"| {name} | {assessment.cumulative_fit.slope:.3f} | "
                     f"{_g(fit.slope, 3) if fit else '-'} | "
                     f"{assessment.improving} |")
    return lines


def _fig7(analyses: Analyses) -> list[str]:
    lines = ["| year | Waymo median DPM |", "|---|---|"]
    for year, value in _yearly_medians(analyses, "Waymo").items():
        lines.append(f"| {year} | {_g(value)} |")
    return lines


def _fig8(analyses: Analyses) -> list[str]:
    n = analyses(pooled_dpm_correlation, ANALYSIS).n
    return [f"One point per manufacturer-month: n = {n}."]


def _fig10(analyses: Analyses) -> list[str]:
    lines = ["| manufacturer | median (s) | max (s) |", "|---|---|---|"]
    for name, summary in analyses(alertness_summary).items():
        lines.append(f"| {name} | {summary.box.median:.2f} | "
                     f"{summary.box.maximum:.1f} |")
    lines.append("")
    for name in _RT_PANELS:
        fit = analyses(fit_reaction_times, name)
        lines.append(f"- {name}: exponweib(a={fit.a:.2f}, c={fit.c:.2f}, "
                     f"scale={fit.scale:.2f})")
    return lines


def _fig12(analyses: Analyses) -> list[str]:
    speeds = analyses(collision_speed_distributions)
    return [f"Exponential scales (mph): AV {speeds.av_fit.scale:.1f}, "
            f"manual vehicle {speeds.other_fit.scale:.1f}, relative "
            f"{speeds.relative_fit.scale:.1f}."]


#: (row-id prefixes, heading, column note or measured context).
_SECTIONS: tuple[tuple[tuple[str, ...], str, Any], ...] = (
    (("table1",), "Table I — fleet size, miles, incidents", None),
    (("table4",), "Table IV — % by root failure category",
     "Columns: ML-planner / ML-perception / System / Unknown-C."),
    (("table5",), "Table V — % by modality",
     "Columns: automatic / manual / planned."),
    (("table6",), "Table VI — accidents and DPA", None),
    (("table7",), "Table VII — reliability vs human drivers", None),
    (("table8",), "Table VIII — per-mission comparison", None),
    (("fig4",), "Fig. 4 — DPM per car", _fig4),
    (("fig5", "fig9"), "Fig. 5 / Fig. 9 — burn-in trends", _fig5),
    (("fig6",), "Fig. 6 — fault tags", None),
    (("fig7",), "Fig. 7 — yearly DPM evolution", _fig7),
    (("fig8",), "Fig. 8 — pooled correlation", _fig8),
    (("fig10", "fig11"), "Fig. 10 / Fig. 11 — reaction times", _fig10),
    (("fig12",), "Fig. 12 — collision speeds", _fig12),
)

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `scripts/generate_experiments_md.py {seed}` from the rows of
`src/repro/reporting/fidelity.py`, over the canonical seed-{seed}
synthetic corpus processed end to end (OCR channel on, expanded
dictionary). Each row gives the paper's value, the measured one, the
tolerance the measurement must meet and why. A *gap* is a known miss
(for a rate, a value outside the 95% Poisson interval of its event
count): its row keeps the bound earlier checks applied, and its reason
names the cause.

`pytest tests/test_fidelity.py` checks every row; `repro report all
--out DIR` renders the exhibits themselves.

{rows} rows: {ok} ok, {gap} gap, {fail} fail.

## Pipeline recovery (Stage II/III health)

| metric | measured |
|---|---|
| OCR mean confidence | {ocr:.3f} |
| pages manually transcribed (the authors did some by hand) | {fallback} |
| NLP tag accuracy vs ground truth (the paper verified by hand) | {tags:.2%} |
"""

_ABLATIONS = """
## Ablations

The ablation benches (`benchmarks/bench_ablation_*.py`) check design
choices, not paper numbers, so they have no rows here. They assert that:

- voting tagger + corpus-built dictionary >= voting + seeds (tag
  accuracy);
- post-OCR correction recovers both parse yield and tag accuracy;
- per-manufacturer parsers are lossless on clean text, while a single
  generic format loses most of the corpus.
"""


def _row_line(outcome: Outcome) -> str:
    row = outcome.row
    cells = (f"`{row.id}`", row.quantity, row.show(row.paper),
             row.show(outcome.measured),
             row.tolerance.describe(row.show), outcome.verdict,
             row.reason)
    return "| " + " | ".join(cell.replace("|", "\\|")
                             for cell in cells) + " |"


def _panel_lines(panel: dict[int, list[Outcome]]) -> list[str]:
    seeds = len(panel)
    lines = ["## Seed panel", "",
             f"Every row measured at each panel seed "
             f"({', '.join(map(str, panel))}; full corpus, default "
             "config). `tests/test_fidelity.py` fails when a row holds "
             "(is not FAIL) at fewer panel seeds than "
             "`tests/fidelity_panel.json` records.", "",
             "| seed | ok | gap | FAIL |", "|---|---|---|---|"]
    for seed, outcomes in panel.items():
        verdicts = [o.verdict for o in outcomes]
        lines.append(f"| {seed} | {verdicts.count('ok')} | "
                     f"{verdicts.count('gap')} | {verdicts.count('FAIL')} |")
    holds = panel_holds(panel)
    short = sorted((count, row) for row, count in holds.items()
                   if count < seeds)
    lines += ["", f"{len(holds) - len(short)} of {len(holds)} rows hold "
              "at every panel seed; these hold at fewer:", "",
              "| row | holds at | FAIL at seeds |", "|---|---|---|"]
    for count, row in short:
        failing = [str(seed) for seed, outcomes in panel.items()
                   for o in outcomes
                   if o.row.id == row and o.verdict == "FAIL"]
        lines.append(f"| `{row}` | {count}/{seeds} | "
                     f"{', '.join(failing)} |")
    return lines + [""]


def render_markdown(result, seed: int,
                    panel: dict[int, list[Outcome]]) -> str:
    """EXPERIMENTS.md for one pipeline run and the rows measured at
    each panel seed."""
    analyses, diag = Analyses(result.database), result.diagnostics
    outcomes = [Outcome(row, row.measure(analyses)) for row in ROWS]
    verdicts = [o.verdict for o in outcomes]
    out = [_HEADER.format(
        seed=seed, rows=len(outcomes), ok=verdicts.count("ok"),
        gap=verdicts.count("gap"), fail=verdicts.count("FAIL"),
        ocr=diag.ocr.mean_confidence, fallback=diag.ocr.fallback_pages,
        tags=diag.tagging.tag_accuracy)]
    for prefixes, heading, extra in _SECTIONS:
        out += [f"## {heading}", ""]
        if isinstance(extra, str):
            out += [extra, ""]
        out += ["| row | quantity | paper | measured | tolerance | verdict "
                "| reason |", "|---|---|---|---|---|---|---|"]
        out += [_row_line(o) for o in outcomes
                if o.row.id.split("-")[0] in prefixes]
        if callable(extra):
            out += ["", *extra(analyses)]
        out.append("")
    out += _panel_lines(panel)
    return "\n".join(out) + _ABLATIONS
