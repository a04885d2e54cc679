"""Reporting: regenerate every table and figure of the paper.

``tables_paper`` and ``figures_paper`` hold one generator per exhibit
(Tables I-VIII, Figs. 4-12); ``experiments`` is the registry the
benchmark harness iterates over.
"""
