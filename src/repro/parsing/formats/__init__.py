"""Per-manufacturer report format parsers.

Each module mirrors one renderer in :mod:`repro.synth.reports`; the
formats are modeled on the real heterogeneity visible in Table II of
the paper (em-dash rows for Nissan, month-granularity rows for Waymo,
semicolon key-value rows for Mercedes-Benz, CSV for Delphi, ...).
"""

from .benz import BenzParser
from .bosch import BoschParser
from .delphi import DelphiParser
from .generic import GenericParser
from .gmcruise import GmCruiseParser
from .nissan import NissanParser
from .tesla import TeslaParser
from .volkswagen import VolkswagenParser
from .waymo import WaymoParser


def all_parsers():
    """Instantiate every built-in parser (generic ones last)."""
    return [
        NissanParser(),
        WaymoParser(),
        VolkswagenParser(),
        BenzParser(),
        BoschParser(),
        GmCruiseParser(),
        DelphiParser(),
        TeslaParser(),
        GenericParser("Ford"),
        GenericParser("BMW"),
        GenericParser("Honda"),
        GenericParser("Uber ATC"),
    ]

