"""repro — a reproduction of *Hands Off the Wheel in Autonomous
Vehicles? A Systems Perspective on over a Million Miles of Field Data*
(Banerjee et al., DSN 2018).

The library implements the paper's full pipeline over a calibrated
synthetic CA DMV corpus:

* Stage I  — :mod:`repro.synth`: corpus synthesis (the data substitute).
* Stage I' — :mod:`repro.ocr`: the scanned-document/OCR channel.
* Stage II — :mod:`repro.parsing`: per-manufacturer parsing and
  normalization into canonical records.
* Stage III — :mod:`repro.nlp`: failure dictionary + voting tagger.
* Stage IV — :mod:`repro.analysis`: the statistical analyses.
* :mod:`repro.stpa` — the STPA control-structure model of Fig. 3.
* :mod:`repro.reporting` — regenerates every table and figure.

Every name is imported from the module that defines it; :mod:`repro.api`
is the one facade that gathers the public ones.

Quickstart::

    from repro.api import PipelineConfig, run_pipeline
    from repro.reporting.experiments import run_experiment

    result = run_pipeline(PipelineConfig(seed=2018))
    print(run_experiment("table7", result.database).render())
"""

__version__ = "1.0.0"
