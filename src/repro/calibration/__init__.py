"""Calibration constants extracted from the paper.

Everything the synthetic corpus generator and the benchmark harness need
to know about the paper's published aggregates lives here: fleet sizes
and counts (Table I), fault-tag mixtures (Table IV / Fig. 6), modality
mixtures (Table V), accident counts and DPA (Table VI), median DPM/APM
(Table VII), cross-domain baselines (Table VIII), reaction-time and
collision-speed distribution parameters (Figs. 10-12), road-type shares,
and per-manufacturer DPM trends (Figs. 5, 8, 9).
"""
