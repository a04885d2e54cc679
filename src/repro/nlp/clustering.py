"""Unsupervised clustering of disengagement narratives.

The Table III tag set is fixed; a real deployment also needs to notice
*emergent* failure modes the dictionary does not know yet.  This
module implements leader clustering over TF-IDF vectors: one pass
assigns each narrative to the first cluster whose leader is within the
similarity threshold (or founds a new cluster), a second pass
re-assigns against the final leader set for stability.  Clusters are
summarized by their most characteristic phrases, ready to be reviewed
and promoted into dictionary entries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from ..errors import NlpError
from .ngrams import distinct_ngrams
from .normalize import normalize_tokens
from .tokenize import tokenize


def _tfidf(tokens: list[str], idf: dict[str, float]) -> dict[str, float]:
    counts = Counter(tokens)
    total = sum(counts.values()) or 1
    return {token: (count / total) * idf.get(token, 0.0)
            for token, count in counts.items()}


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    if not a or not b:
        return 0.0
    dot = sum(value * b.get(token, 0.0) for token, value in a.items())
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


@dataclass
class Cluster:
    """One narrative cluster."""

    cluster_id: int
    leader: dict[str, float] = field(repr=False, default_factory=dict)
    member_indices: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of member narratives."""
        return len(self.member_indices)


@dataclass
class ClusteringResult:
    """Outcome of a clustering run."""

    clusters: list[Cluster]
    #: narrative index -> cluster id.
    assignments: dict[int, int]
    texts: list[str] = field(repr=False, default_factory=list)

    def cluster_of(self, index: int) -> Cluster:
        """The cluster containing narrative ``index``."""
        cluster_id = self.assignments[index]
        return self.clusters[cluster_id]

    def top_clusters(self, k: int = 10) -> list[Cluster]:
        """The ``k`` largest clusters."""
        return sorted(self.clusters, key=lambda c: -c.size)[:k]

    def characteristic_phrases(self, cluster: Cluster,
                               k: int = 5) -> list[tuple[str, ...]]:
        """Phrases over-represented in a cluster vs. the corpus."""
        inside: Counter = Counter()
        for index in cluster.member_indices:
            tokens = normalize_tokens(tokenize(self.texts[index]))
            inside.update(distinct_ngrams(tokens))
        outside: Counter = Counter()
        member_set = set(cluster.member_indices)
        for index, text in enumerate(self.texts):
            if index in member_set:
                continue
            tokens = normalize_tokens(tokenize(text))
            outside.update(distinct_ngrams(tokens))
        scored = []
        for phrase, count in inside.items():
            if count < max(2, cluster.size // 4):
                continue
            lift = (count / cluster.size) / (
                (outside.get(phrase, 0) + 1)
                / max(len(self.texts) - cluster.size, 1))
            scored.append((lift * len(phrase), phrase))
        scored.sort(reverse=True)
        return [phrase for _, phrase in scored[:k]]


def cluster_narratives(texts: list[str],
                       threshold: float = 0.35) -> ClusteringResult:
    """Leader-cluster ``texts`` at the given cosine threshold."""
    if not texts:
        raise NlpError("no narratives to cluster")
    if not 0.0 < threshold < 1.0:
        raise NlpError(f"threshold {threshold} outside (0, 1)")

    token_lists = [normalize_tokens(tokenize(t)) for t in texts]
    document_frequency: Counter = Counter()
    for tokens in token_lists:
        document_frequency.update(set(tokens))
    total = len(token_lists)
    idf = {token: math.log(total / df)
           for token, df in document_frequency.items()}
    vectors = [_tfidf(tokens, idf) for tokens in token_lists]

    # Pass 1: found leaders.
    clusters: list[Cluster] = []
    for index, vector in enumerate(vectors):
        best_id, best_similarity = -1, threshold
        for cluster in clusters:
            similarity = _cosine(vector, cluster.leader)
            if similarity >= best_similarity:
                best_id, best_similarity = cluster.cluster_id, similarity
        if best_id < 0:
            clusters.append(Cluster(cluster_id=len(clusters),
                                    leader=dict(vector)))

    # Pass 2: assign everything against the final leader set.
    assignments: dict[int, int] = {}
    for cluster in clusters:
        cluster.member_indices = []
    for index, vector in enumerate(vectors):
        best_id, best_similarity = 0, -1.0
        for cluster in clusters:
            similarity = _cosine(vector, cluster.leader)
            if similarity > best_similarity:
                best_id, best_similarity = cluster.cluster_id, similarity
        assignments[index] = best_id
        clusters[best_id].member_indices.append(index)

    return ClusteringResult(clusters=clusters, assignments=assignments,
                            texts=list(texts))


def cluster_purity(result: ClusteringResult,
                   labels: list) -> float:
    """Weighted purity of clusters against reference labels."""
    if len(labels) != len(result.texts):
        raise NlpError(
            f"{len(labels)} labels for {len(result.texts)} narratives")
    agreeing = 0
    for cluster in result.clusters:
        if not cluster.member_indices:
            continue
        counts = Counter(labels[i] for i in cluster.member_indices)
        agreeing += counts.most_common(1)[0][1]
    return agreeing / len(result.texts)
