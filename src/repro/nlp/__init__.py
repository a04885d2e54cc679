"""Stage III: NLP labeling of disengagement causes.

Reproduces the paper's pipeline step 3: a *failure dictionary* of
phrases built by passes over the corpus (seeded from the Table III
definitions, expanded by co-occurrence), and a keyword-*voting* scheme
that assigns each narrative a fault tag — ``Unknown-T`` when no tag
wins.  The STPA-derived ontology that maps tags to coarse failure
categories is :mod:`repro.taxonomy`.
"""

# ``benchmarks/e2e`` imports this name through the package.
from .textcache import token_cache  # noqa: F401
