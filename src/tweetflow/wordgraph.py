"""Co-occurrence networks: word-pair graphs and the city-attraction graph.

Each tweet's distinct lemma set expands into a clique, so two words are
connected whenever they appear in the same tweet, regardless of distance.
Edge weight counts the tweets containing both endpoints; node frequency
counts the tweets containing the word. Graphs are undirected with no
self-loops and iterate in canonical (lexicographic) order.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, combinations, compress, starmap
from operator import lt, not_

from .categorize import EntityMentions
from .errors import DataError
from .floats import _sum_left
from .netmetrics import closeness_centrality, degree_centrality
from .preprocess import TokenizedDoc, ranked

log = logging.getLogger(__name__)

DEFAULT_CLIQUE_CAP = 50


def _edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass
class WordGraph:
    nodes: dict[str, int]                  # lemma -> tweet frequency
    edges: dict[tuple[str, str], int]      # sorted lemma pair -> co-occurrence weight
    split: tuple[str, str] | None = None   # (language, polarity)
    capped_tweets: int = 0                 # tweets truncated to the clique cap while building

    def adjacency(self) -> dict[str, list[str]]:
        return adjacency_from_edges(self.nodes, self.edges)


@dataclass
class PlaceNode:
    name: str
    kind: str
    mentions: int
    degree: int = 0
    degree_centrality: float = 0.0
    closeness: float = 0.0
    mean_sentiment: float | None = None


@dataclass
class PlaceGraph:
    nodes: dict[str, PlaceNode]
    edges: dict[tuple[str, str], int]      # sorted (place, place) -> co-mention weight

    def adjacency(self) -> dict[str, list[str]]:
        return adjacency_from_edges(self.nodes, self.edges)


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    density: float
    max_degree: int
    avg_degree: float


def adjacency_from_edges(
    nodes: Iterable[str], edges: Mapping[tuple[str, str], int]
) -> dict[str, list[str]]:
    """Sorted adjacency lists covering every node, including isolated ones."""
    adj: dict[str, set[str]] = {node: set() for node in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return {node: sorted(neigh) for node, neigh in sorted(adj.items())}


def _capped_lemmas(doc: TokenizedDoc, cap: int) -> list[str]:
    """The doc's `cap` most repeated distinct lemmas, in sorted order."""
    return sorted(lem for lem, _ in ranked(Counter(doc.lemmas), cap))


def build_word_graph(
    docs: Sequence[TokenizedDoc],
    split: tuple[str, str] | None = None,
    clique_cap: int = DEFAULT_CLIQUE_CAP,
) -> WordGraph:
    """Aggregate per-tweet cliques into one weighted co-occurrence graph.

    Tweets with more than clique_cap distinct lemmas are truncated to the
    most repeated ones (ties lexicographic) to bound the quadratic blowup;
    the graph counts them and one warning reports the count. An empty
    split yields an empty graph with a warning.
    """
    if not docs:
        log.warning("building word graph over an empty split %s", split)
        return WordGraph({}, {}, split)
    nodes: dict[str, int] = {}
    edges: dict[tuple[str, str], int] = {}
    capped = 0
    for doc in docs:
        lemmas = _capped_lemmas(doc, clique_cap)
        capped += len(lemmas) < len(set(doc.lemmas))
        for lem in lemmas:
            nodes[lem] = nodes.get(lem, 0) + 1
        for u, v in combinations(lemmas, 2):
            key = (u, v)  # lemmas already sorted
            edges[key] = edges.get(key, 0) + 1
    if capped:
        log.warning(
            "word graph %s: %d of %d tweets exceed the clique cap %d, "
            "kept their most repeated lemmas",
            split, capped, len(docs), clique_cap,
        )
    return WordGraph(
        dict(sorted(nodes.items())),
        dict(sorted(edges.items())),
        split,
        capped,
    )


def build_place_graph(
    mentions: Sequence[EntityMentions],
    kinds: Mapping[str, str],
    sentiments: Mapping[str, float] | None = None,
) -> PlaceGraph:
    """Connect cities and attractions co-mentioned in the same tweet.

    `kinds` maps canonical place names to city/attraction. Node metrics
    (degree, degree centrality, closeness) are attached after
    construction; mean sentiment per place comes from the optional
    tweet_id -> compound mapping.
    """
    mention_counts: Counter = Counter()
    edges: dict[tuple[str, str], int] = {}
    sentiment_acc: dict[str, list[float]] = {}
    for mention in mentions:
        places = sorted(set(mention.cities) | set(mention.attractions))
        for place in places:
            mention_counts[place] += 1
            if sentiments is not None and mention.tweet_id in sentiments:
                sentiment_acc.setdefault(place, []).append(sentiments[mention.tweet_id])
        cities = sorted(set(mention.cities))
        attractions = sorted(set(mention.attractions))
        for city in cities:
            for attraction in attractions:
                key = _edge(city, attraction)
                edges[key] = edges.get(key, 0) + 1

    nodes = {}
    for place in sorted(mention_counts):
        kind = kinds.get(place)
        if kind is None:
            raise DataError(f"place {place!r} missing from the gazetteer kinds")
        compounds = sentiment_acc.get(place)
        nodes[place] = PlaceNode(
            name=place,
            kind=kind,
            mentions=mention_counts[place],
            mean_sentiment=_sum_left(compounds) / len(compounds) if compounds else None,
        )
    graph = PlaceGraph(nodes, dict(sorted(edges.items())))
    _attach_place_metrics(graph)
    return graph


def _attach_place_metrics(graph: PlaceGraph) -> None:
    adj = graph.adjacency()
    n = len(adj)
    if n == 0:
        return
    for name, neighbors in adj.items():
        graph.nodes[name].degree = len(neighbors)
    if n >= 2:
        dc = degree_centrality(adj)
        cc = closeness_centrality(adj)
        for name in graph.nodes:
            graph.nodes[name].degree_centrality = dc.values[name]
            graph.nodes[name].closeness = cc.values[name]


def graph_stats(graph: WordGraph | PlaceGraph) -> GraphStats:
    """Node/edge counts, density 2E/(N(N-1)), and degree aggregates.

    A node's degree is its number of distinct neighbours, as in adjacency(),
    counted from the edges without building it: a self-loop counts once,
    and so does a pair that a reader's edges list both ways round.
    """
    n = len(graph.nodes)
    e = len(graph.edges)
    degrees = Counter(chain.from_iterable(graph.edges))
    # only an edge not in u < v order can repeat a neighbour counted above:
    # a self-loop, or (v, u) beside (u, v)
    for u, v in compress(graph.edges, map(not_, starmap(lt, graph.edges))):
        if u == v:
            degrees[u] -= 1
        elif (v, u) in graph.edges:
            degrees[u] -= 1
            degrees[v] -= 1
    return GraphStats(
        nodes=n,
        edges=e,
        density=(2.0 * e / (n * (n - 1))) if n >= 2 else 0.0,
        max_degree=max(degrees.values(), default=0),
        avg_degree=(2.0 * e / n) if n else 0.0,
    )
