"""Per-manufacturer fault-tag mixtures (Table IV and Fig. 6).

Table IV reports, for five manufacturers, the percentage of
disengagements falling in each coarse failure category (with ML/Design
split into planner/controller vs. perception/recognition).  Fig. 6 shows
the finer per-tag breakdown as stacked bars.  The mixtures below are
chosen so that the *category* sums match Table IV exactly for the five
manufacturers it lists; the within-category tag split follows the
relative bar heights of Fig. 6.

Mercedes-Benz, Bosch, and GMCruise do not appear in Table IV (Bosch and
GMCruise report all disengagements as planned tests; Mercedes-Benz logs
lack causal narratives).  For these we assign representative mixtures so
that every synthesized event still carries a ground-truth tag; the
Table IV fidelity rows cover only the five manufacturers the paper lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CalibrationError
from ..taxonomy import FaultTag


@dataclass(frozen=True)
class FaultMixture:
    """A probability distribution over fault tags for one manufacturer."""

    manufacturer: str
    #: Tag -> probability, summing to 1.
    weights: dict[FaultTag, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-6:
            raise CalibrationError(
                f"fault mixture for {self.manufacturer} sums to {total}, "
                "expected 1.0")

    def tags(self) -> list[FaultTag]:
        """Tags with non-zero probability, heaviest first."""
        return sorted((t for t, w in self.weights.items() if w > 0),
                      key=lambda t: -self.weights[t])


def _mixture(manufacturer: str,
             percents: dict[FaultTag, float]) -> FaultMixture:
    """Build a mixture from percentages (summing to 100)."""
    weights = {tag: pct / 100.0 for tag, pct in percents.items()}
    return FaultMixture(manufacturer=manufacturer, weights=weights)


T = FaultTag

#: Tag mixtures (percent).  For Delphi, Nissan, Tesla, Volkswagen, and
#: Waymo, the category sums reproduce Table IV exactly:
#:   Delphi     37.59 / 50.17 / 12.24 / 0
#:   Nissan     36.30 / 49.63 / 14.07 / 0
#:   Tesla       0.00 /  0.00 /  1.65 / 98.35
#:   Volkswagen  0.00 /  3.08 / 83.08 / 13.85
#:   Waymo      10.13 / 53.45 / 36.42 / 0
#: (columns: ML-planner / ML-perception / System / Unknown-C).
FAULT_MIXTURES: dict[str, FaultMixture] = {
    "Delphi": _mixture("Delphi", {
        T.PLANNER: 22.00,
        T.INCORRECT_BEHAVIOR_PREDICTION: 9.00,
        T.DESIGN_BUG: 4.59,
        T.AV_CONTROLLER_DECISION: 2.00,
        T.RECOGNITION_SYSTEM: 34.00,
        T.ENVIRONMENT: 16.17,
        T.SOFTWARE: 6.00,
        T.COMPUTER_SYSTEM: 3.00,
        T.SENSOR: 2.00,
        T.NETWORK: 1.24,
    }),
    "Nissan": _mixture("Nissan", {
        T.PLANNER: 20.00,
        T.DESIGN_BUG: 9.00,
        T.INCORRECT_BEHAVIOR_PREDICTION: 5.30,
        T.AV_CONTROLLER_DECISION: 2.00,
        T.RECOGNITION_SYSTEM: 39.63,
        T.ENVIRONMENT: 10.00,
        T.SOFTWARE: 7.00,
        T.COMPUTER_SYSTEM: 4.00,
        T.SENSOR: 2.00,
        T.HANG_CRASH: 1.07,
    }),
    "Tesla": _mixture("Tesla", {
        T.SOFTWARE: 1.65,
        T.UNKNOWN: 98.35,
    }),
    "Volkswagen": _mixture("Volkswagen", {
        T.RECOGNITION_SYSTEM: 3.08,
        T.COMPUTER_SYSTEM: 38.00,
        T.SOFTWARE: 24.00,
        T.HANG_CRASH: 12.00,
        T.SENSOR: 5.00,
        T.AV_CONTROLLER_UNRESPONSIVE: 2.08,
        T.NETWORK: 2.00,
        T.UNKNOWN: 13.84,
    }),
    "Waymo": _mixture("Waymo", {
        T.PLANNER: 5.00,
        T.INCORRECT_BEHAVIOR_PREDICTION: 3.13,
        T.DESIGN_BUG: 2.00,
        T.RECOGNITION_SYSTEM: 36.00,
        T.ENVIRONMENT: 17.45,
        T.SOFTWARE: 19.00,
        T.COMPUTER_SYSTEM: 10.00,
        T.SENSOR: 3.00,
        T.HANG_CRASH: 2.00,
        T.AV_CONTROLLER_UNRESPONSIVE: 1.00,
        T.NETWORK: 1.42,
    }),
    # Not part of Table IV; representative mixtures chosen so the
    # pooled category shares land on the paper's headline numbers
    # (44% perception, 20% planner, ~33.6% system across all reported
    # disengagements excluding Tesla).
    "Mercedes-Benz": _mixture("Mercedes-Benz", {
        T.RECOGNITION_SYSTEM: 32.00,
        T.ENVIRONMENT: 13.00,
        T.PLANNER: 12.00,
        T.DESIGN_BUG: 5.00,
        T.INCORRECT_BEHAVIOR_PREDICTION: 3.00,
        T.SOFTWARE: 15.00,
        T.COMPUTER_SYSTEM: 10.00,
        T.SENSOR: 5.00,
        T.HANG_CRASH: 3.00,
        T.NETWORK: 2.00,
    }),
    "Bosch": _mixture("Bosch", {
        T.RECOGNITION_SYSTEM: 33.00,
        T.ENVIRONMENT: 13.00,
        T.PLANNER: 11.00,
        T.DESIGN_BUG: 8.00,
        T.SOFTWARE: 15.00,
        T.COMPUTER_SYSTEM: 10.00,
        T.SENSOR: 7.00,
        T.HANG_CRASH: 3.00,
    }),
    "GMCruise": _mixture("GMCruise", {
        T.RECOGNITION_SYSTEM: 34.00,
        T.ENVIRONMENT: 11.00,
        T.PLANNER: 15.00,
        T.INCORRECT_BEHAVIOR_PREDICTION: 4.00,
        T.DESIGN_BUG: 6.00,
        T.SOFTWARE: 14.00,
        T.COMPUTER_SYSTEM: 9.00,
        T.SENSOR: 5.00,
        T.HANG_CRASH: 2.00,
    }),
}

#: The five manufacturers Table IV actually reports.
TABLE4_MANUFACTURERS: tuple[str, ...] = (
    "Delphi", "Nissan", "Tesla", "Volkswagen", "Waymo")

#: Mixture for manufacturers with too few events to characterize (Ford,
#: BMW, Uber ATC, Honda): mostly uninformative log lines.
DEFAULT_MIXTURE = _mixture("(default)", {
    T.UNKNOWN: 60.00,
    T.RECOGNITION_SYSTEM: 15.00,
    T.PLANNER: 10.00,
    T.SOFTWARE: 10.00,
    T.SENSOR: 5.00,
})


def fault_mixture(manufacturer: str) -> FaultMixture:
    """Return the fault-tag mixture for ``manufacturer``.

    Manufacturers without a calibrated mixture (the ones the paper
    excludes for sparse data) fall back to :data:`DEFAULT_MIXTURE`.
    """
    return FAULT_MIXTURES.get(manufacturer, DEFAULT_MIXTURE)
