"""STPA (Systems-Theoretic Process Analysis) model of the ADS.

Reproduces Section III-B: the hierarchical control structure of Fig. 3
as a typed graph, the highlighted control loops CL-1/CL-2/CL-3, the
unsafe-control-action taxonomy, and the overlay that localizes each
tagged failure record onto the structure.
"""
