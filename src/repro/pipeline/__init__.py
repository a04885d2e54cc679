"""End-to-end pipeline: Stage I (data) through Stage IV inputs.

``run_pipeline`` wires everything together: synthesize (or accept) a
raw corpus, push it through the OCR channel, parse and normalize it,
tag every narrative with the NLP engine, and assemble the consolidated
failure database that the statistical analyses consume.  The
:mod:`~repro.pipeline.resilience` layer isolates per-document failures
(quarantine, degraded modes), the :mod:`~repro.pipeline.checkpoint`
layer journals completed work so a killed run resumes instead of
restarting, and :mod:`~repro.pipeline.chaos` kill points simulate hard
crashes to prove it.
"""
