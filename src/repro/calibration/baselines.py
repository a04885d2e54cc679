"""Cross-domain reliability baselines (Tables VII and VIII).

Scalar constants the paper takes from external sources: the human-driver
accident rate (NHTSA/FHWA), the airline accident rate per departure
(NTSB), the surgical-robot adverse-event rate per procedure (FDA MAUDE
analyses), and the median U.S. trip length used to convert per-mile
rates into per-mission rates.
"""

from __future__ import annotations

#: Human-driven vehicles: one accident every 500,000 miles
#: (NHTSA 2015 crash overview + FHWA traffic volume trends).
HUMAN_ACCIDENTS_PER_MILE = 2e-6

#: Airlines: 9.8 accidents per 100,000 departures (NTSB).
AIRLINE_ACCIDENTS_PER_MISSION = 9.8e-5

#: Surgical robots: 1,043 adverse events per 100,000 procedures.
SURGICAL_ROBOT_ACCIDENTS_PER_MISSION = 1.04e-2

#: Median length of a U.S. vehicle trip in miles (FHWA NHTS).
MEDIAN_TRIP_MILES = 10.0

#: Median DPM per manufacturer as published in Table VII (per mile).
PAPER_MEDIAN_DPM: dict[str, float] = {
    "Mercedes-Benz": 0.565,
    "Volkswagen": 0.0181,
    "Waymo": 0.000745,
    "Delphi": 0.0263,
    "Nissan": 0.0413,
    "Bosch": 0.811,
    "GMCruise": 0.177,
    "Tesla": 0.250,
}

#: Median APM per manufacturer as published in Table VII (per mile).
PAPER_MEDIAN_APM: dict[str, float] = {
    "Waymo": 4.140e-5,
    "Delphi": 4.599e-5,
    "Nissan": 3.057e-4,
    "GMCruise": 8.843e-3,
}

#: APM relative to human drivers, Table VII column 4.
PAPER_APM_RELATIVE_TO_HUMAN: dict[str, float] = {
    "Waymo": 20.7,
    "Delphi": 22.99,
    "Nissan": 15.285,
    "GMCruise": 4421.5,
}

#: Accidents per mission (APMi) as published in Table VIII.
PAPER_APMI: dict[str, float] = {
    "Waymo": 4.140e-4,
    "Delphi": 4.599e-4,
    "Nissan": 3.057e-3,
    "GMCruise": 8.843e-2,
}

#: APMi relative to airlines, Table VIII column 3.
PAPER_APMI_VS_AIRLINE: dict[str, float] = {
    "Waymo": 4.22,
    "Delphi": 4.69,
    "Nissan": 31.19,
    "GMCruise": 902.34,
}

#: APMi relative to surgical robots, Table VIII column 4.
PAPER_APMI_VS_SURGICAL: dict[str, float] = {
    "Waymo": 0.0398,
    "Delphi": 0.0442,
    "Nissan": 0.293,
    "GMCruise": 8.502,
}
