"""Stage III: NLP labeling of disengagement causes.

Reproduces the paper's pipeline step 3: a *failure dictionary* of
phrases built by passes over the corpus (seeded from the Table III
definitions, expanded by co-occurrence), and a keyword-*voting* scheme
that assigns each narrative a fault tag — ``Unknown-T`` when no tag
wins.  The STPA-derived ontology that maps tags to coarse failure
categories is :mod:`repro.taxonomy`.
"""

from .tokenize import tokenize, sentences
from .normalize import normalize_tokens, STOPWORDS
from .ngrams import ngrams
from .dictionary import FailureDictionary, SEED_PHRASES
from .tagger import TagResult, VotingTagger
from .textcache import TokenCache, cached_tokens, token_cache
from .evaluation import TaggingReport, evaluate_tagger

__all__ = [
    "tokenize",
    "sentences",
    "normalize_tokens",
    "STOPWORDS",
    "ngrams",
    "FailureDictionary",
    "SEED_PHRASES",
    "TagResult",
    "VotingTagger",
    "TokenCache",
    "cached_tokens",
    "token_cache",
    "TaggingReport",
    "evaluate_tagger",
]
