"""Disengagement modality mixtures per manufacturer (Table V).

A disengagement is initiated *automatically* by the ADS, *manually* by
the safety driver, or occurs during a *planned* fault-injection test
(Bosch and GMCruise report all of their disengagements as planned).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CalibrationError
from ..taxonomy import Modality


@dataclass(frozen=True)
class ModalityMixture:
    """Probability distribution over disengagement modalities."""

    manufacturer: str
    weights: dict[Modality, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-6:
            raise CalibrationError(
                f"modality mixture for {self.manufacturer} sums to {total}, "
                "expected 1.0")

    def share(self, modality: Modality) -> float:
        """Probability of ``modality`` for this manufacturer."""
        return self.weights.get(modality, 0.0)


def _mixture(manufacturer: str, automatic: float, manual: float,
             planned: float) -> ModalityMixture:
    return ModalityMixture(
        manufacturer=manufacturer,
        weights={
            Modality.AUTOMATIC: automatic / 100.0,
            Modality.MANUAL: manual / 100.0,
            Modality.PLANNED: planned / 100.0,
        },
    )


#: Table V, verbatim (percentages).  Waymo's row sums to 99.99 in the
#: paper; we assign the rounding residue to the automatic share.
MODALITY_MIXTURES: dict[str, ModalityMixture] = {
    "Mercedes-Benz": _mixture("Mercedes-Benz", 47.11, 52.89, 0.0),
    "Bosch": _mixture("Bosch", 0.0, 0.0, 100.0),
    "GMCruise": _mixture("GMCruise", 0.0, 0.0, 100.0),
    "Nissan": _mixture("Nissan", 54.2, 45.8, 0.0),
    "Tesla": _mixture("Tesla", 98.35, 1.65, 0.0),
    "Volkswagen": _mixture("Volkswagen", 100.0, 0.0, 0.0),
    "Waymo": _mixture("Waymo", 50.33, 49.67, 0.0),
    # Delphi is absent from Table V; assume an even automatic/manual
    # split for synthesis (Table V's fidelity rows cover the paper's seven).
    "Delphi": _mixture("Delphi", 50.0, 50.0, 0.0),
}

#: Manufacturers that appear in the paper's Table V.
TABLE5_MANUFACTURERS: tuple[str, ...] = (
    "Mercedes-Benz", "Bosch", "GMCruise", "Nissan", "Tesla",
    "Volkswagen", "Waymo")


#: Fallback for manufacturers absent from Table V (sparse reporters).
DEFAULT_MODALITY_MIXTURE = _mixture("(default)", 50.0, 50.0, 0.0)


def modality_mixture(manufacturer: str) -> ModalityMixture:
    """Return the modality mixture for ``manufacturer``.

    Manufacturers without a calibrated mixture fall back to an even
    automatic/manual split.
    """
    return MODALITY_MIXTURES.get(manufacturer, DEFAULT_MODALITY_MIXTURE)
